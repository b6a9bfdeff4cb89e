"""Exactness of the full PEXESO search (Algorithms 1+2+3) vs brute force."""
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.baselines import exact_scan
from repro.core.pexeso import PexesoIndex, t_abs
from tests.conftest import planted_repo, time_limit


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("tau", [0.15, 0.4, 0.7])
@pytest.mark.parametrize("n_pivots,m", [(3, 2), (3, 4), (5, 3), (9, 8)])
@pytest.mark.parametrize("T", [0.2, 0.5, 0.8])
def test_pexeso_exact(seed, tau, n_pivots, m, T):
    Q, X, col, n_cols = planted_repo(seed=seed)
    idx = PexesoIndex(X, col, n_cols, n_pivots=n_pivots, m=m, seed=seed)
    Ta = t_abs(T, len(Q))
    truth = exact_scan.joinable_columns(Q, X, col, n_cols, tau, Ta)
    assert idx.search(Q, tau, T).joinable == truth


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
    res = idx.search(Q, tau, 0.5, early_terminate=False)
    counts = exact_scan.match_counts(Q, X, col, n_cols, tau)
    assert np.array_equal(res.match_counts, counts)


def test_no_quick_browsing_same_answer():
    Q, X, col, n_cols = planted_repo(seed=6)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3, seed=6)
    a = idx.search(Q, 0.4, 0.4)
    b = idx.search(Q, 0.4, 0.4, use_quick_browsing=False)
    assert a.joinable == b.joinable


def test_inverted_reduces_distance_computations():
    """The Fig. 7a claim: PEXESO computes far fewer distances than PEXESO-H."""
    Q, X, col, n_cols = planted_repo(seed=7, n_cols=40)
    idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=4, seed=7)
    with_inv = idx.search(Q, 0.3, 0.5)
    naive = idx.search(Q, 0.3, 0.5, use_inverted=False)
    assert with_inv.n_distance < naive.n_distance


def test_early_termination_never_changes_answer():
    Q, X, col, n_cols = planted_repo(seed=8)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3, seed=8)
    for T in (0.1, 0.4, 0.9):
        et = idx.search(Q, 0.5, T).joinable
        full = idx.search(Q, 0.5, T, early_terminate=False).joinable
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
    assert idx.search(far, 0.01, 0.25).joinable == set()


def test_search_counters_populated():
    Q, X, col, n_cols = planted_repo(seed=10)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    res = idx.search(Q, 0.4, 0.3)
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
        assert idx.search(Q, tau, 0.1, use_inverted=use_inverted).joinable == truth


@pytest.mark.parametrize("use_inverted", [True, False])
@pytest.mark.parametrize("T", [0.0, 1.0])
@pytest.mark.parametrize("tau", [1.9, 2.0, 2.5])
def test_edge_thresholds_exact(tau, T, use_inverted):
    """τ at or beyond the maximum distance 2 (every pair matches, or
    nearly) and T at its ends (one match, or every query vector)."""
    Q, X, col, n_cols = planted_repo(seed=7)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3, seed=7)
    truth = exact_scan.joinable_columns(Q, X, col, n_cols, tau, t_abs(T, len(Q)))
    assert idx.search(Q, tau, T, use_inverted=use_inverted).joinable == truth


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
    Q, X, col, n_cols = planted_repo(seed=12)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    Q = Q.copy()
    Q[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        idx.search(Q, 0.4, 0.5)


def test_rejects_query_of_other_dimension():
    Q, X, col, n_cols = planted_repo(seed=12)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    with pytest.raises(ValueError, match="shape"):
        idx.search(Q[:, :-1], 0.4, 0.5)
