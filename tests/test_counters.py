"""Counter-level claims behind Fig. 7a and Fig. 9 (figures are out of
scope, but the quantities fall out of our modules and pin the paper's
mechanisms)."""
import numpy as np
import pytest

from repro.core.pexeso import PexesoIndex
from repro.partition.cluster import jsd_kmeans, random_partition, split_columns
from repro.partition.histogram import histograms
from tests.conftest import planted_repo

#: ``planted_repo(seed)`` indexed with (|P|, m) and searched at τ, T = 0.5:
#: (seed, |P|, m, τ) → ((n_distance, n_candidates, n_match_pairs) of
#: PEXESO, the same of PEXESO-H, the complete per-column match counts).
#: Recorded from the per-query-vector kernel that preceded leaf-ordered
#: storage; any kernel must reproduce them exactly.
PINNED = {
    (0, 3, 2, 0.15): ((490, 76, 0), (5571, 76, 0),
        [1, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 6, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]),
    (0, 3, 2, 0.4): ((3041, 160, 0), (7259, 160, 0),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (0, 3, 2, 0.7): ((5014, 264, 2), (8043, 264, 2),
        [8, 0, 0, 8, 0, 0, 9, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (0, 5, 3, 0.15): ((150, 383, 0), (1768, 383, 0),
        [1, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 6, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]),
    (0, 5, 3, 0.4): ((2667, 2592, 0), (6288, 2592, 0),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (0, 5, 3, 0.7): ((4959, 3715, 7), (7947, 3715, 7),
        [8, 0, 0, 8, 0, 0, 9, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (0, 9, 8, 0.15): ((84, 85, 0), (85, 85, 0),
        [1, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 6, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]),
    (0, 9, 8, 0.4): ((1703, 3263, 4), (2617, 3263, 4),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (0, 9, 8, 0.7): ((5147, 9292, 20), (7598, 9292, 20),
        [8, 0, 0, 8, 0, 0, 9, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (1, 3, 2, 0.15): ((675, 77, 0), (5979, 77, 0),
        [3, 0, 0, 2, 0, 0, 2, 0, 0, 4, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0]),
    (1, 3, 2, 0.4): ((3050, 158, 0), (7264, 158, 0),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (1, 3, 2, 0.7): ((5100, 296, 0), (8582, 296, 0),
        [8, 0, 0, 8, 1, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0]),
    (1, 5, 3, 0.15): ((155, 346, 0), (1407, 346, 0),
        [3, 0, 0, 2, 0, 0, 2, 0, 0, 4, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0]),
    (1, 5, 3, 0.4): ((2351, 2139, 0), (4918, 2139, 0),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (1, 5, 3, 0.7): ((4044, 3384, 6), (7034, 3384, 6),
        [8, 0, 0, 8, 1, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0]),
    (1, 9, 8, 0.15): ((75, 76, 0), (76, 76, 0),
        [3, 0, 0, 2, 0, 0, 2, 0, 0, 4, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0]),
    (1, 9, 8, 0.4): ((1315, 2294, 10), (1808, 2294, 10),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (1, 9, 8, 0.7): ((4483, 7914, 30), (6376, 7914, 30),
        [8, 0, 0, 8, 1, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0]),
    (2, 3, 2, 0.15): ((414, 49, 0), (3882, 49, 0),
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]),
    (2, 3, 2, 0.4): ((3264, 188, 0), (8259, 188, 0),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (2, 3, 2, 0.7): ((5482, 279, 0), (8752, 279, 0),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (2, 5, 3, 0.15): ((130, 302, 0), (1168, 302, 0),
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]),
    (2, 5, 3, 0.4): ((2475, 2299, 0), (6004, 2299, 0),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (2, 5, 3, 0.7): ((5408, 3818, 0), (8664, 3818, 0),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (2, 9, 8, 0.15): ((80, 80, 0), (80, 80, 0),
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]),
    (2, 9, 8, 0.4): ((1733, 3347, 1), (2772, 3347, 1),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
    (2, 9, 8, 0.7): ((5417, 9969, 10), (8222, 9969, 10),
        [8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0, 8, 0, 0]),
}


@pytest.fixture(scope="module")
def repo():
    return planted_repo(seed=20, n_cols=36, col_size=24, n_query=16, dim=16)


def test_fig7a_distance_computation_ordering(repo):
    """Fig. 7a: naive scan > PEXESO-H > PEXESO in distance computations."""
    Q, X, col, n_cols = repo
    engine = PexesoIndex(X, col, n_cols, n_pivots=5, m=4)
    tau, T = 0.3, 0.4
    px = engine.search(Q, tau, T, plan="index")
    h = engine.search(Q, tau, T, use_inverted=False)
    scan = len(Q) * len(X)
    assert px.n_distance <= h.n_distance <= scan
    assert px.n_distance < scan  # blocking must actually prune


def _partitioned_distance_total(Q, col_vectors, assign, tau, T):
    return sum(
        PexesoIndex(X, col_of, len(cols), n_pivots=3, m=3)
        .search(Q, tau, T, plan="index").n_distance
        for cols, X, col_of in split_columns(col_vectors, assign)
    )


def test_fig9_jsd_partitioning_not_worse_than_random(repo):
    """Fig. 9's mechanism: clustering similar columns together gives the
    per-partition pivots more filtering power, so the total verification
    work under JSD partitioning should not exceed random partitioning."""
    Q, X, col, n_cols = repo
    col_vectors = {f"c{c}": X[col == c] for c in range(n_cols)}
    hists = dict(zip(*histograms(col_vectors)))
    k = 4
    jsd_total = _partitioned_distance_total(
        Q, col_vectors, jsd_kmeans(hists, k, seed=1), 0.3, 0.4
    )
    rnd_total = _partitioned_distance_total(
        Q, col_vectors, random_partition(hists, k, seed=1), 0.3, 0.4
    )
    # Allow slack: at test scale the effect is noisy, but JSD must not
    # be catastrophically worse.
    assert jsd_total <= rnd_total * 1.25


def test_partitioned_union_equals_single_index(repo):
    """Searching partitions independently and unioning loses nothing."""
    Q, X, col, n_cols = repo
    tau, T = 0.3, 0.4
    single = PexesoIndex(X, col, n_cols, n_pivots=3, m=3).search(Q, tau, T)
    col_vectors = {str(c): X[col == c] for c in range(n_cols)}
    assign = jsd_kmeans(dict(zip(*histograms(col_vectors))), 3, seed=0)
    got = set()
    for cols, X_part, col_of in split_columns(col_vectors, assign):
        eng = PexesoIndex(X_part, col_of, len(cols), n_pivots=3, m=3)
        got |= {int(cols[i]) for i in eng.search(Q, tau, T).joinable}
    assert got == single.joinable


@pytest.mark.parametrize("seed,n_pivots,m", sorted({k[:3] for k in PINNED}))
def test_pinned_counters(seed, n_pivots, m):
    """The paper's counters (Fig. 7a, Tables VI/VII) and the full match
    counts are a property of the algorithm, not of the kernel's layout."""
    Q, X, col, n_cols = planted_repo(seed=seed)
    idx = PexesoIndex(X, col, n_cols, n_pivots=n_pivots, m=m, seed=seed)
    for tau in (0.15, 0.4, 0.7):
        px_counts, h_counts, full = PINNED[seed, n_pivots, m, tau]
        for use_inverted, want in ((True, px_counts), (False, h_counts)):
            res = idx.search(Q, tau, 0.5, use_inverted=use_inverted, plan="index")
            got = (res.n_distance, res.n_candidates, res.n_match_pairs)
            assert got == want, (tau, use_inverted)
            res = idx.search(Q, tau, 0.5, use_inverted=use_inverted, early_terminate=False,
                             plan="index")
            assert res.match_counts.tolist() == full, (tau, use_inverted)
