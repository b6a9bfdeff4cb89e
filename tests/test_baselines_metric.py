"""Tests for the metric-space baselines: CTREE, EPT, PQ."""
import numpy as np
import pytest

from repro.baselines import exact_scan
from repro.baselines.cover_tree import BallTree, ctree_search
from repro.baselines.ept import PivotTable, ept_search
from repro.baselines.pq import PQIndex, calibrate_radius_scale, kmeans, pq_search
from repro.core.pexeso import t_abs
from tests.conftest import planted_repo, unit_rows


@pytest.fixture(scope="module")
def repo():
    return planted_repo(seed=11, n_cols=24, col_size=20, n_query=12, dim=16)


# ---------- CTREE (ball tree) ----------
def test_balltree_range_query_exact(repo):
    Q, X, col, n_cols = repo
    tree = BallTree(X)
    for tau in (0.1, 0.4, 0.9):
        for q in Q[:5]:
            hits = set(tree.range_query(q, tau, [0]).tolist())
            truth = set(np.flatnonzero(np.linalg.norm(X - q, axis=1) <= tau).tolist())
            assert hits == truth


@pytest.mark.parametrize("tau,T", [(0.2, 0.3), (0.5, 0.5), (0.8, 0.2)])
def test_ctree_search_exact(repo, tau, T):
    Q, X, col, n_cols = repo
    tree = BallTree(X)
    Ta = t_abs(T, len(Q))
    joinable, n_dist = ctree_search(tree, col, n_cols, Q, tau, Ta)
    assert joinable == exact_scan.joinable_columns(Q, X, col, n_cols, tau, Ta)
    assert n_dist > 0


def test_balltree_handles_duplicates():
    X = np.tile(unit_rows(1, 8), (100, 1))
    tree = BallTree(X)
    hits = tree.range_query(X[0], 0.1, [0])
    assert len(hits) == 100


# ---------- EPT ----------
@pytest.mark.parametrize("tau,T", [(0.2, 0.3), (0.5, 0.5)])
def test_ept_search_exact(repo, tau, T):
    Q, X, col, n_cols = repo
    table = PivotTable(X, n_pivots=4)
    Ta = t_abs(T, len(Q))
    joinable, _ = ept_search(table, col, n_cols, Q, tau, Ta)
    assert joinable == exact_scan.joinable_columns(Q, X, col, n_cols, tau, Ta)


def test_ept_fewer_distances_than_scan(repo):
    Q, X, col, n_cols = repo
    table = PivotTable(X, n_pivots=4)
    _, n_dist = ept_search(table, col, n_cols, Q, 0.2, 3)
    assert n_dist < len(Q) * len(X)


# ---------- input outside the paper's assumptions ----------
#: name → (build over X, search with Q at τ, T_abs = 3)
_METRIC_BASELINES = {
    "ctree": (BallTree, lambda ix, col, n, Q, tau: ctree_search(ix, col, n, Q, tau, 3)),
    "ept": (lambda X: PivotTable(X, n_pivots=4),
            lambda ix, col, n, Q, tau: ept_search(ix, col, n, Q, tau, 3)),
    "pq": (lambda X: PQIndex(X, n_subspaces=4, n_codes=8),
           lambda ix, col, n, Q, tau: pq_search(ix, col, n, Q, tau, 3)),
}


@pytest.mark.parametrize("method", sorted(_METRIC_BASELINES))
@pytest.mark.parametrize("bad", ["nan", "non_unit", "nan_tau", "negative_tau"])
def test_baselines_reject_bad_query(repo, method, bad):
    """A NaN row never matches, and a non-unit row leaves the unit sphere
    the lake lives on: either would be answered silently wrong. So would
    a NaN τ, which matches nothing."""
    Q, X, col, n_cols = repo
    build, search = _METRIC_BASELINES[method]
    index = build(X)
    Q, tau = Q.copy(), 0.4
    if bad == "nan":
        Q[0, 0] = np.nan
    elif bad == "non_unit":
        Q *= 2.0
    else:
        tau = np.nan if bad == "nan_tau" else -0.1
    match = "tau must be" if bad.endswith("tau") else "finite and unit-norm"
    with pytest.raises(ValueError, match=match):
        search(index, col, n_cols, Q, tau)


@pytest.mark.parametrize("method", sorted(_METRIC_BASELINES))
@pytest.mark.parametrize("bad", ["nan", "non_unit"])
def test_baselines_reject_bad_repository(repo, method, bad):
    Q, X, col, n_cols = repo
    X = X.copy()
    if bad == "nan":
        X[5, 0] = np.nan
    else:
        X[5] *= 3.0
    with pytest.raises(ValueError, match="finite and unit-norm"):
        _METRIC_BASELINES[method][0](X)


# ---------- PQ ----------
def test_kmeans_shapes():
    X = unit_rows(200, 8)
    C = kmeans(X, 16, seed=1)
    assert C.shape == (16, 8)


def test_kmeans_k_larger_than_n():
    X = unit_rows(5, 4)
    assert kmeans(X, 16).shape[0] == 5


def test_pq_dim_divisibility():
    with pytest.raises(ValueError):
        PQIndex(unit_rows(50, 10), n_subspaces=3)


def test_pq_estimates_correlate(repo):
    """ADC estimated distances must correlate strongly with true distances."""
    Q, X, col, n_cols = repo
    pq = PQIndex(X, n_subspaces=4, n_codes=32)
    q = Q[0]
    est = np.sqrt(pq.estimated_d2(q))
    true = np.linalg.norm(X - q, axis=1)
    r = np.corrcoef(est, true)[0, 1]
    assert r > 0.8


def test_pq_range_query_is_approximate(repo):
    """PQ must NOT be exact — that is the point of Table IV's PQ rows."""
    Q, X, col, n_cols = repo
    pq = PQIndex(X, n_subspaces=4, n_codes=8)
    wrong = 0
    for q in Q:
        hits = set(pq.range_query(q, 0.3, 1.0).tolist())
        truth = set(np.flatnonzero(np.linalg.norm(X - q, axis=1) <= 0.3).tolist())
        if hits != truth:
            wrong += 1
    assert wrong > 0


def test_calibrate_radius_reaches_recall(repo):
    Q, X, col, n_cols = repo
    pq = PQIndex(X, n_subspaces=4, n_codes=32)
    scale = calibrate_radius_scale(pq, X, Q, 0.3, 0.85)
    got, want = 0, 0
    for q in Q:
        truth = set(np.flatnonzero(np.linalg.norm(X - q, axis=1) <= 0.3).tolist())
        hits = set(pq.range_query(q, 0.3, scale).tolist())
        got += len(hits & truth)
        want += len(truth)
    assert want == 0 or got / want >= 0.85


def test_pq_search_returns_columns(repo):
    Q, X, col, n_cols = repo
    pq = PQIndex(X, n_subspaces=4, n_codes=32)
    joinable = pq_search(pq, col, n_cols, Q, 0.4, 3, scale=1.2)
    assert isinstance(joinable, set)
    assert all(0 <= c < n_cols for c in joinable)
