"""Exactness of the full PEXESO search (Algorithms 1+2+3) vs brute force."""
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.baselines import exact_scan
from repro.core.pexeso import PexesoIndex, t_abs
from tests.conftest import planted_repo, time_limit


def assert_pairs_exact(idx, Q, X, tau):
    """The index's record pairs are the scan's, each listed once."""
    got = sorted(zip(*(a.tolist() for a in idx.pairs(Q, tau))))
    assert len(set(got)) == len(got)
    assert got == list(zip(*(a.tolist() for a in exact_scan.pairs(Q, X, tau))))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tau", [0.15, 0.4, 0.7])
@pytest.mark.parametrize("n_pivots,m", [(3, 2), (3, 4), (5, 3), (9, 8)])
@pytest.mark.parametrize("T", [0.2, 0.5, 0.8])
def test_pexeso_exact(seed, tau, n_pivots, m, T):
    Q, X, col, n_cols = planted_repo(seed=seed)
    idx = PexesoIndex(X, col, n_cols, n_pivots=n_pivots, m=m, seed=seed)
    Ta = t_abs(T, len(Q))
    truth = exact_scan.joinable_columns(Q, X, col, n_cols, tau, Ta)
    assert idx.search(Q, tau, T, plan="index").joinable == truth


@pytest.mark.parametrize("tau", [0.2, 0.5])
@pytest.mark.parametrize("T", [0.3, 0.6])
def test_pexeso_h_exact(tau, T):
    """PEXESO-H (naive verification) must also be exact."""
    Q, X, col, n_cols = planted_repo(seed=4)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3, seed=4)
    Ta = t_abs(T, len(Q))
    truth = exact_scan.joinable_columns(Q, X, col, n_cols, tau, Ta)
    assert idx.search(Q, tau, T, use_inverted=False).joinable == truth


@pytest.mark.parametrize("tau", [0.2, 0.6])
def test_full_match_counts_exact(tau):
    """Without early termination the per-column counts are exact."""
    Q, X, col, n_cols = planted_repo(seed=5)
    idx = PexesoIndex(X, col, n_cols, n_pivots=4, m=3, seed=5)
    res = idx.search(Q, tau, 0.5, early_terminate=False, plan="index")
    counts = exact_scan.match_counts(Q, X, col, n_cols, tau)
    assert np.array_equal(res.match_counts, counts)
    assert_pairs_exact(idx, Q, X, tau)


def test_inverted_reduces_distance_computations():
    """The Fig. 7a claim: PEXESO computes far fewer distances than PEXESO-H."""
    Q, X, col, n_cols = planted_repo(seed=7, n_cols=40)
    idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=4, seed=7)
    with_inv = idx.search(Q, 0.3, 0.5, plan="index")
    naive = idx.search(Q, 0.3, 0.5, use_inverted=False)
    assert with_inv.n_distance < naive.n_distance


def test_early_termination_never_changes_answer():
    Q, X, col, n_cols = planted_repo(seed=8)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3, seed=8)
    for T in (0.1, 0.4, 0.9):
        et = idx.search(Q, 0.5, T, plan="index").joinable
        full = idx.search(Q, 0.5, T, early_terminate=False, plan="index").joinable
        assert et == full


def test_t_abs():
    assert t_abs(0.5, 10) == 5
    assert t_abs(0.51, 10) == 6
    assert t_abs(0.0, 10) == 1  # at least one match required
    assert t_abs(1.0, 7) == 7
    # jn = T exactly is joinable (§II), though T·|Q| rounds above 7 here.
    assert t_abs(0.07, 100) == t_abs(0.14, 50) == t_abs(0.28, 25) == 7
    for k in range(101):
        T = k / 100
        for n in range(1, 301):
            assert t_abs(T, n) == max(1, math.ceil(Fraction(str(T)) * n)), (T, n)


def test_empty_query_region_no_results():
    """A query far from everything yields no joinable columns at tiny τ."""
    Q, X, col, n_cols = planted_repo(seed=9, noise=0.0)
    g = np.random.default_rng(123)
    far = g.standard_normal((4, X.shape[1]))
    far /= np.linalg.norm(far, axis=1, keepdims=True)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    assert idx.search(far, 0.01, 0.25, plan="index").joinable == set()


def test_search_counters_populated():
    Q, X, col, n_cols = planted_repo(seed=10)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    res = idx.search(Q, 0.4, 0.3, plan="index")
    assert res.block_seconds >= 0 and res.verify_seconds >= 0
    assert res.n_candidates >= 0 and res.n_distance >= 0


@pytest.mark.parametrize("use_inverted", [True, False])
def test_fewer_vectors_than_pivots(use_inverted):
    """A 2-vector repository with |P| = 5 builds (one pivot per distinct
    vector) and answers exactly."""
    Q, X, col, n_cols = planted_repo(seed=11, n_cols=2, col_size=1)
    with time_limit(10):
        idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=3)
    assert idx.pivots.shape[0] == 2
    for tau in (0.3, 1.2):
        truth = exact_scan.joinable_columns(Q, X, col, n_cols, tau, t_abs(0.1, len(Q)))
        assert idx.search(Q, tau, 0.1, use_inverted=use_inverted, plan="index").joinable == truth


@pytest.mark.parametrize("use_inverted", [True, False])
@pytest.mark.parametrize("T", [0.0, 1.0])
@pytest.mark.parametrize("tau", [1.9, 2.0, 2.5])
def test_edge_thresholds_exact(tau, T, use_inverted):
    """τ at or beyond the maximum distance 2 (every pair matches, or
    nearly) and T at its ends (one match, or every query vector)."""
    Q, X, col, n_cols = planted_repo(seed=7)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3, seed=7)
    truth = exact_scan.joinable_columns(Q, X, col, n_cols, tau, t_abs(T, len(Q)))
    assert idx.search(Q, tau, T, use_inverted=use_inverted, plan="index").joinable == truth
    assert_pairs_exact(idx, Q, X, tau)


def test_rejects_non_unit_repository():
    """The grid's fixed extent holds only for unit vectors: rescaled rows
    would lose matches silently, so the build refuses them."""
    Q, X, col, n_cols = planted_repo(seed=12)
    scale = np.random.default_rng(0).uniform(0.3, 3.0, (len(X), 1))
    with pytest.raises(ValueError, match="unit-norm"):
        PexesoIndex(X * scale, col, n_cols, n_pivots=3, m=3)


def test_rejects_non_finite_repository():
    Q, X, col, n_cols = planted_repo(seed=12)
    X = X.copy()
    X[3, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        PexesoIndex(X, col, n_cols, n_pivots=3, m=3)


def test_rejects_non_unit_query():
    Q, X, col, n_cols = planted_repo(seed=12)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    with pytest.raises(ValueError, match="unit-norm"):
        idx.search(Q * 2.0, 0.4, 0.5)


def test_rejects_nan_query():
    """A NaN row or a NaN τ would match nothing, silently; a negative τ
    has no query region."""
    Q, X, col, n_cols = planted_repo(seed=12)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    for tau in (np.nan, -0.1):
        with pytest.raises(ValueError, match="tau must be"):
            idx.search(Q, tau, 0.5)
        with pytest.raises(ValueError, match="tau must be"):
            idx.pairs(Q, tau)
    Q = Q.copy()
    Q[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        idx.search(Q, 0.4, 0.5)
    with pytest.raises(ValueError, match="finite"):
        idx.pairs(Q, 0.4)


def test_rejects_query_of_other_dimension():
    Q, X, col, n_cols = planted_repo(seed=12)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    with pytest.raises(ValueError, match="shape"):
        idx.search(Q[:, :-1], 0.4, 0.5)
    with pytest.raises(ValueError, match="shape"):
        idx.pairs(Q[:, :-1], 0.4)


def test_rejects_empty_query():
    """T_abs is a share of |Q|, so an empty query column has no answer."""
    Q, X, col, n_cols = planted_repo(seed=12)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    with pytest.raises(ValueError, match="at least one row"):
        idx.search(Q[:0], 0.4, 0.5)


def test_rejects_empty_repository():
    Q, X, col, n_cols = planted_repo(seed=12)
    with pytest.raises(ValueError, match="at least one row"):
        PexesoIndex(X[:0], col[:0], n_cols, n_pivots=3, m=3)


@pytest.mark.parametrize("bad", ["negative", "too_large", "fractional"])
def test_rejects_bad_column_labels(bad):
    """Labels index per-column arrays directly: -1 would alias the last
    column, and a fractional label would be truncated to another one."""
    Q, X, col, n_cols = planted_repo(seed=12)
    col = {
        "negative": np.where(col == 9, -1, col),
        "too_large": np.where(col == 9, n_cols, col),
        "fractional": col + 0.5,
    }[bad]
    with pytest.raises(ValueError, match="integer labels"):
        PexesoIndex(X, col, n_cols, n_pivots=3, m=3)


@pytest.mark.parametrize("use_inverted", [True, False])
def test_empty_columns_exact(use_inverted):
    """Labels need not cover [0, n_cols): a column with no rows gets no
    matches, and the others are answered as without it."""
    Q, X, col, n_cols = planted_repo(seed=13)
    col, n_cols = 2 * col + 1, 2 * n_cols + 3  # even labels and the last three are empty
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3, seed=13)
    for tau in (0.2, 0.6):
        truth = exact_scan.joinable_columns(Q, X, col, n_cols, tau, t_abs(0.3, len(Q)))
        assert idx.search(Q, tau, 0.3, use_inverted=use_inverted, plan="index").joinable == truth
        full = idx.search(Q, tau, 0.3, use_inverted=use_inverted, early_terminate=False,
                          plan="index")
        assert np.array_equal(full.match_counts, exact_scan.match_counts(Q, X, col, n_cols, tau))


def test_accepts_narrow_integer_labels():
    Q, X, col, n_cols = planted_repo(seed=12)
    a = PexesoIndex(X, col, n_cols, n_pivots=3, m=3).search(Q, 0.4, 0.5, plan="index")
    b = PexesoIndex(X, col.astype(np.int16), n_cols, n_pivots=3, m=3).search(
        Q, 0.4, 0.5, plan="index")
    assert a.joinable == b.joinable and a.n_distance == b.n_distance


@pytest.mark.parametrize("use_inverted", [True, False])
@pytest.mark.parametrize("seed", [0, 3])
def test_row_order_independent_of_column_order(seed, use_inverted):
    """Every fixture stacks each column's rows contiguously; shuffling the
    rows (labels with them) must change nothing, so a row is mapped back
    to its own column wherever it is stored."""
    Q, X, col, n_cols = planted_repo(seed=seed)
    perm = np.random.default_rng(seed).permutation(len(X))
    base = PexesoIndex(X, col, n_cols, n_pivots=5, m=3, seed=seed)
    shuf = PexesoIndex(X[perm], col[perm], n_cols, n_pivots=5, m=3, seed=seed)
    for tau in (0.15, 0.4, 0.7):
        for early in (True, False):
            a, b = (ix.search(Q, tau, 0.5, use_inverted=use_inverted, early_terminate=early,
                              plan="index")
                    for ix in (base, shuf))
            assert a.joinable == b.joinable
            assert np.array_equal(a.match_counts, b.match_counts)
            assert a.n_distance == b.n_distance


def test_index_keeps_one_row_order():
    """The index holds one row order, in one array: the inverted index's
    ``perm`` is the repository grid's sort, and search still equals the scan."""
    Q, X, col, n_cols = planted_repo(seed=1)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    assert idx.index.perm is idx.grid.order
    assert idx.search(Q, 0.4, 0.5, plan="index").joinable == exact_scan.joinable_columns(
        Q, X, col, n_cols, 0.4, t_abs(0.5, len(Q))
    )
