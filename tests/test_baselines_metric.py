"""Tests for the metric-space baselines: CTREE, EPT, PQ."""
import numpy as np
import pytest

from repro.baselines import exact_scan
from repro.baselines.cover_tree import BallTree
from repro.baselines.ept import PivotTable
from repro.baselines.pq import PQIndex, calibrate_radius_scale, kmeans
from repro.core.pexeso import t_abs
from tests.conftest import planted_repo, unit_rows


@pytest.fixture(scope="module")
def repo():
    return planted_repo(seed=11, n_cols=24, col_size=20, n_query=12, dim=16)


# ---------- CTREE (ball tree) ----------
def test_balltree_range_query_exact(repo):
    Q, X, col, n_cols = repo
    tree = BallTree(X, col, n_cols)
    for tau in (0.1, 0.4, 0.9):
        qi, xi = exact_scan.pairs(Q[:5], X, tau)
        for k, q in enumerate(Q[:5]):
            assert sorted(tree.range_query(q, tau, [0]).tolist()) == xi[qi == k].tolist()


@pytest.mark.parametrize("tau,T", [(0.2, 0.3), (0.5, 0.5), (0.8, 0.2)])
def test_ctree_search_exact(repo, tau, T):
    Q, X, col, n_cols = repo
    res = BallTree(X, col, n_cols).search(Q, tau, T)
    Ta = t_abs(T, len(Q))
    assert res.joinable == exact_scan.joinable_columns(Q, X, col, n_cols, tau, Ta)
    assert np.array_equal(res.match_counts, exact_scan.match_counts(Q, X, col, n_cols, tau))
    assert res.n_distance > 0


def test_balltree_handles_duplicates():
    X = np.tile(unit_rows(1, 8), (100, 1))
    tree = BallTree(X, np.zeros(100, dtype=int), 1)
    hits = tree.range_query(X[0], 0.1, [0])
    assert len(hits) == 100


def test_balltree_zero_tau_near_duplicates():
    """Copies of a vector ~1e-9 from q: the oracle rounds their d² to 0, so
    τ = 0 matches them, though the ball's centre lies ~1e-9 from q, farther
    than τ; the ball is tested against ``regions.widened(τ)``."""
    q = unit_rows(1, 8)[0]
    v = q + np.random.default_rng(1).standard_normal(8) * 1e-9
    X = np.tile(v / np.linalg.norm(v), (100, 1))
    assert len(exact_scan.pairs(q[None], X, 0.0)[1]) == 100
    tree = BallTree(X, np.zeros(100, dtype=int), 1)
    assert len(tree.range_query(q, 0.0, [0])) == 100


# ---------- EPT ----------
@pytest.mark.parametrize("tau,T", [(0.2, 0.3), (0.5, 0.5)])
def test_ept_search_exact(repo, tau, T):
    Q, X, col, n_cols = repo
    res = PivotTable(X, col, n_cols, n_pivots=4).search(Q, tau, T)
    Ta = t_abs(T, len(Q))
    assert res.joinable == exact_scan.joinable_columns(Q, X, col, n_cols, tau, Ta)


def test_ept_fewer_distances_than_scan(repo):
    Q, X, col, n_cols = repo
    res = PivotTable(X, col, n_cols, n_pivots=4).search(Q, 0.2, 3 / len(Q))
    assert res.n_distance < len(Q) * len(X)


# ---------- input outside the paper's assumptions ----------
#: name → (engine class, build keywords); each is built over
#: ``(X, col_of_vector, n_cols)`` and searched as ``search(Q, tau, T)``.
_METRIC_BASELINES = {
    "ctree": (BallTree, {}),
    "ept": (PivotTable, {"n_pivots": 4}),
    "pq": (PQIndex, {"n_subspaces": 4, "n_codes": 8}),
}


@pytest.mark.parametrize("method", sorted(_METRIC_BASELINES))
@pytest.mark.parametrize("bad", ["nan", "non_unit", "nan_tau", "negative_tau", "wrong_dim"])
def test_baselines_reject_bad_query(repo, method, bad):
    """A NaN row never matches, and a non-unit row leaves the unit sphere
    the lake lives on: either would be answered silently wrong. So would
    a NaN τ, which matches nothing, and a query of another dimension."""
    Q, X, col, n_cols = repo
    engine, kw = _METRIC_BASELINES[method]
    index = engine(X, col, n_cols, **kw)
    Q, tau = Q.copy(), 0.4
    if bad == "nan":
        Q[0, 0] = np.nan
    elif bad == "non_unit":
        Q *= 2.0
    elif bad == "wrong_dim":
        Q = Q[:, :-1] / np.linalg.norm(Q[:, :-1], axis=1, keepdims=True)
    else:
        tau = np.nan if bad == "nan_tau" else -0.1
    match = {"nan_tau": "tau must be", "negative_tau": "tau must be",
             "wrong_dim": "Q must have shape"}.get(bad, "finite and unit-norm")
    with pytest.raises(ValueError, match=match):
        index.search(Q, tau, 3 / len(Q))


@pytest.mark.parametrize("method", sorted(_METRIC_BASELINES))
@pytest.mark.parametrize(
    "bad", ["nan", "non_unit", "label_negative", "label_too_large", "float_labels",
            "short_labels"],
)
def test_baselines_reject_bad_repository(repo, method, bad):
    """Vectors off the unit sphere, and labels that name no column in
    [0, n_cols) or do not align with X: a label of -1 came back as
    joinable column -1."""
    Q, X, col, n_cols = repo
    X, col = X.copy(), col.copy()
    if bad == "nan":
        X[5, 0] = np.nan
    elif bad == "non_unit":
        X[5] *= 3.0
    elif bad == "label_negative":
        col[5] = -1
    elif bad == "label_too_large":
        col[5] = n_cols
    elif bad == "float_labels":
        col = col.astype(float)
    else:
        col = col[:-1]
    match = {"nan": "finite and unit-norm", "non_unit": "finite and unit-norm",
             "short_labels": "must align"}.get(bad, "integer labels in")
    engine, kw = _METRIC_BASELINES[method]
    with pytest.raises(ValueError, match=match):
        engine(X, col, n_cols, **kw)


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
        PQIndex(unit_rows(50, 10), np.zeros(50, dtype=int), 1, n_subspaces=3)


def test_pq_estimates_correlate(repo):
    """ADC estimated distances must correlate strongly with true distances."""
    Q, X, col, n_cols = repo
    pq = PQIndex(X, col, n_cols, n_subspaces=4, n_codes=32)
    q = Q[0]
    est = np.sqrt(pq.estimated_d2(q))
    true = np.linalg.norm(X - q, axis=1)
    r = np.corrcoef(est, true)[0, 1]
    assert r > 0.8


def test_pq_range_query_is_approximate(repo):
    """PQ must NOT be exact — that is the point of Table IV's PQ rows."""
    Q, X, col, n_cols = repo
    pq = PQIndex(X, col, n_cols, n_subspaces=4, n_codes=8)
    wrong = 0
    for q in Q:
        hits = set(pq.range_query(q, 0.3, 1.0).tolist())
        truth = set(np.flatnonzero(np.linalg.norm(X - q, axis=1) <= 0.3).tolist())
        if hits != truth:
            wrong += 1
    assert wrong > 0


def test_calibrate_radius_reaches_recall(repo):
    Q, X, col, n_cols = repo
    pq = PQIndex(X, col, n_cols, n_subspaces=4, n_codes=32)
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
    pq = PQIndex(X, col, n_cols, n_subspaces=4, n_codes=32)
    joinable = pq.search(Q, 0.4, 3 / len(Q), scale=1.2)
    assert isinstance(joinable, set)
    assert all(0 <= c < n_cols for c in joinable)
