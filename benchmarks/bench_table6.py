"""Benchmark: Table VI — index construction and search per (|P|, m)."""
import pytest

from repro.core.pexeso import PexesoIndex
from repro.embedding.hashing import MAX_DISTANCE
from repro.experiments.common import lake_arrays

# Raw τ = 6% of the maximum distance, the filtering regime Tables VI and
# VII report (``experiments.table6``/``table7``), not the ×4-calibrated
# quality regime of Tables IV and V.
TAU = 0.06 * MAX_DISTANCE


@pytest.fixture(scope="module")
def swdc():
    return lake_arrays("swdc", 0)


@pytest.mark.parametrize("n_pivots,m", [(1, 2), (3, 4), (5, 6)])
@pytest.mark.benchmark(group="table6-index")
def test_bench_index_build(benchmark, swdc, n_pivots, m):
    Q, X, col, uniq = swdc
    engine = benchmark.pedantic(
        lambda: PexesoIndex(X, col, len(uniq), n_pivots=n_pivots, m=m),
        rounds=2,
        iterations=1,
    )
    assert engine.m == m


@pytest.mark.parametrize("n_pivots,m", [(3, 4), (5, 6)])
@pytest.mark.benchmark(group="table6-search")
def test_bench_block_verify(benchmark, swdc, n_pivots, m):
    Q, X, col, uniq = swdc
    engine = PexesoIndex(X, col, len(uniq), n_pivots=n_pivots, m=m)
    res = benchmark(lambda: engine.search(Q, TAU, 0.6))
    assert res.joinable is not None
