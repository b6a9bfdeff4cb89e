"""Benchmark: Table VII — one grid cell per method (T=60%, τ=6%)."""
import pytest

from repro.baselines.cover_tree import BallTree, ctree_search
from repro.baselines.ept import PivotTable, ept_search
from repro.core.pexeso import PexesoIndex, t_abs
from repro.embedding.hashing import MAX_DISTANCE
from repro.experiments.common import lake_arrays

# Raw τ = 6% of the maximum distance, the filtering regime Tables VI and
# VII report (``experiments.table6``/``table7``), not the ×4-calibrated
# quality regime of Tables IV and V.
TAU = 0.06 * MAX_DISTANCE
T = 0.6


@pytest.fixture(scope="module")
def swdc():
    return lake_arrays("swdc", 0)


@pytest.mark.benchmark(group="table7")
def test_bench_ctree(benchmark, swdc):
    Q, X, col, uniq = swdc
    tree = BallTree(X)
    out = benchmark(lambda: ctree_search(tree, col, len(uniq), Q, TAU, t_abs(T, len(Q))))
    assert isinstance(out[0], set)


@pytest.mark.benchmark(group="table7")
def test_bench_ept(benchmark, swdc):
    Q, X, col, uniq = swdc
    table = PivotTable(X, n_pivots=5)
    out = benchmark(lambda: ept_search(table, col, len(uniq), Q, TAU, t_abs(T, len(Q))))
    assert isinstance(out[0], set)


@pytest.mark.benchmark(group="table7")
def test_bench_pexeso_h(benchmark, swdc):
    Q, X, col, uniq = swdc
    engine = PexesoIndex(X, col, len(uniq), n_pivots=5, m=4)
    res = benchmark(lambda: engine.search(Q, TAU, T, use_inverted=False))
    assert res.joinable is not None


@pytest.mark.benchmark(group="table7")
def test_bench_pexeso(benchmark, swdc):
    Q, X, col, uniq = swdc
    engine = PexesoIndex(X, col, len(uniq), n_pivots=5, m=4)
    res = benchmark(lambda: engine.search(Q, TAU, T))
    assert res.joinable is not None
