"""The scan plan and the planner of ``PexesoIndex.search``, and the scan
behind ``PexesoIndex.pairs``.

Whatever plan runs, the answer is the brute-force scan's: the joinable
set and the complete per-column match counts; the record pairs are
listed as ``exact_scan.pairs`` lists them.
"""
import numpy as np
import pytest

from repro.baselines import exact_scan
from repro.core import cost, scan
from repro.core.pexeso import PexesoIndex, t_abs
from repro.core.pivots import pivot_map
from repro.embedding.hashing import MAX_DISTANCE
from repro.experiments import plans
from repro.experiments.common import lake_arrays
from tests.conftest import planted_repo, unit_rows

#: The index plan is here too: at τ = 0 and at exactly distance τ it must
#: round as the oracle does as well.
PLANS = ["index", "scan", "auto"]


def assert_exact(idx, Q, X, col, n_cols, tau, plan, T=0.5):
    """Joinable set (with and without early termination), match counts
    and record pairs all equal ``exact_scan``'s, the pairs in its order."""
    want = exact_scan.joinable_columns(Q, X, col, n_cols, tau, t_abs(T, len(Q)))
    assert idx.search(Q, tau, T, plan=plan).joinable == want
    full = idx.search(Q, tau, T, plan=plan, early_terminate=False)
    assert full.joinable == want
    assert np.array_equal(full.match_counts, exact_scan.match_counts(Q, X, col, n_cols, tau))
    got, oracle = idx.pairs(Q, tau), exact_scan.pairs(Q, X, tau)
    assert all(np.array_equal(a, b) for a, b in zip(got, oracle))


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("tau", [0.15, 0.4, 0.7, 2.0, 2.5])
@pytest.mark.parametrize("seed", [0, 1])
def test_plans_exact(seed, tau, plan):
    Q, X, col, n_cols = planted_repo(seed=seed)
    idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=3, seed=seed)
    assert_exact(idx, Q, X, col, n_cols, tau, plan)


@pytest.mark.parametrize("plan", PLANS)
def test_zero_tau_with_duplicates(plan):
    """τ = 0 matches exact copies only, as the oracle rounds them: copies
    of query vectors, a vector repeated in X and a repeated query vector."""
    Q = unit_rows(6, 12, seed=3)
    Q[5] = Q[0]
    X = unit_rows(200, 12, seed=4)
    X[[10, 11, 150]] = Q[0]
    X[12] = Q[2]
    X[13] = X[14] = X[100]
    col = np.arange(200) // 10
    idx = PexesoIndex(X, col, 20, n_pivots=3, m=3)
    assert_exact(idx, Q, X, col, 20, 0.0, plan, T=0.1)


@pytest.mark.parametrize("kind", ["index", "pexeso-h", "scan"])
def test_zero_tau_near_duplicates(kind):
    """τ = 0 against copies of the query vectors, half of them moved by
    ~1e-9: the oracle rounds many of these to d² ≤ 0, while their pivot
    coordinates differ by up to ~1e-8, which a Lemma 1 test without a
    rounding band dropped."""
    g = np.random.default_rng(0)
    Q = unit_rows(12, 16, seed=2)
    X = unit_rows(600, 16, seed=1)
    col = np.arange(600) // 20
    for c in range(0, 30, 2):
        V = Q + g.standard_normal(Q.shape) * 1e-9 * (c % 4 == 0)
        X[c * 20:c * 20 + 12] = V / np.linalg.norm(V, axis=1, keepdims=True)
    want = exact_scan.match_counts(Q, X, col, 30, 0.0)
    assert want.sum() > 7 * 12  # some of the moved copies match too
    idx = PexesoIndex(X, col, 30, n_pivots=5, m=4)
    kw = {"use_inverted": False} if kind == "pexeso-h" else {"plan": kind}
    for early_terminate in (True, False):
        res = idx.search(Q, 0.0, 0.5, early_terminate=early_terminate, **kw)
        assert res.joinable == set(np.flatnonzero(want >= t_abs(0.5, 12)).tolist())
    assert res.match_counts.tolist() == want.tolist()


@pytest.mark.parametrize("plan", PLANS)
def test_pair_exactly_at_tau(plan):
    """τ set to a pair's own distance, and one float either side of it."""
    Q, X, col, n_cols = planted_repo(seed=2)
    x2 = np.einsum("ij,ij->i", X, X)
    d2 = x2[7] + Q[3] @ Q[3] - 2.0 * (X @ Q[3])[7]
    tau = float(np.sqrt(d2))
    idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=3)
    for t in (np.nextafter(tau, 0.0), tau, np.nextafter(tau, 3.0)):
        assert_exact(idx, Q, X, col, n_cols, float(t), plan)


@pytest.mark.parametrize("plan", PLANS)
def test_one_row_repository(plan):
    Q = unit_rows(5, 8, seed=6)
    X = Q[2:3].copy()
    col = np.zeros(1, dtype=np.int64)
    idx = PexesoIndex(X, col, 2, n_pivots=5, m=3)
    for tau in (0.0, 0.5, 2.0):
        assert_exact(idx, Q, X, col, 2, tau, plan, T=0.2)


@pytest.mark.parametrize("plan", PLANS)
def test_repository_larger_than_one_chunk(plan):
    n = 2 * scan.CHUNK + 7
    X = unit_rows(n, 8, seed=8)
    Q = unit_rows(12, 8, seed=9)
    col = np.arange(n) % 50
    idx = PexesoIndex(X, col, 50, n_pivots=3, m=3)
    for tau in (0.3, 0.6):
        assert_exact(idx, Q, X, col, 50, tau, plan, T=0.1)


@pytest.mark.parametrize("n_q", [1, 7, 9, 13, 14, 15])
def test_padded_query_sizes(n_q):
    """|Q| off a multiple of ``scan.PAD``: the zero rows padded onto Q never
    show up as a match, a count or a query index."""
    Q, X, col, n_cols = planted_repo(n_query=16, seed=11)
    Q = Q[:n_q]
    x2 = np.einsum("ij,ij->i", X, X)
    for tau in (0.0, 0.3, 1.0, 2.5, np.inf):
        assert np.array_equal(scan.match_counts(X, x2, col, n_cols, Q, tau),
                              exact_scan.match_counts(Q, X, col, n_cols, tau))
        got, oracle = scan.pairs(X, x2, Q, tau), exact_scan.pairs(Q, X, tau)
        assert all(np.array_equal(a, b) for a, b in zip(got, oracle))


@pytest.mark.parametrize("plan", ["index", "auto"])
@pytest.mark.parametrize("m", [16, 40])
def test_deep_grid_exact_with_small_marginals(m, plan):
    """The marginals stop at ``cost.MARGINAL_LEVEL``: a 40-level grid keeps
    a few KiB of them and still answers exactly."""
    Q, X, col, n_cols = planted_repo(seed=3)
    idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=m)
    assert idx.marginals.nbytes <= 64 * 1024
    for tau in (0.1, 0.4, 0.9):
        assert_exact(idx, Q, X, col, n_cols, tau, plan)


def test_plan_recorded_and_deterministic():
    Q, X, col, n_cols = planted_repo(seed=4)
    idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=3)
    for plan in ("index", "scan"):
        assert idx.search(Q, 0.4, 0.5, plan=plan).plan == plan
    for tau in (0.05, 0.4, 1.0):
        first = idx.search(Q, tau, 0.5)
        again = [idx.search(Q, tau, 0.5) for _ in range(3)]
        assert {r.plan for r in again} == {first.plan}
        assert {r.n_distance for r in again} == {first.n_distance}
        rows = cost.region_rows(idx.marginals, pivot_map(Q, idx.pivots), tau)
        assert first.plan == cost.choose_plan(len(Q), len(X), X.shape[1], rows)


def test_short_cut_keeps_the_plan_on_calibration_cells(monkeypatch):
    """On every cell of ``experiments/plans``, the planned search takes the
    plan ``choose_plan`` gives from the mapped query. Where the scan's
    prediction is below the index plan's constant term (every SWDC-lite
    column), it takes it without computing ``region_rows``."""
    region_rows, calls = cost.region_rows, []
    monkeypatch.setattr(cost, "region_rows", lambda *a: calls.append(1) or region_rows(*a))
    for kind in dict.fromkeys(k for k, _ in plans.CELLS):
        _, X, col, uniq = lake_arrays(kind)
        idx = PexesoIndex(X, col, len(uniq), n_pivots=5, m=4)
        for Q in plans.query_columns(kind, 12):
            short = cost.scan_surely_cheaper(len(Q), len(X), X.shape[1])
            assert short == (kind == "swdc")
            for pct in (p for k, p in plans.CELLS if k == kind):
                tau = pct * MAX_DISTANCE
                rows = region_rows(idx.marginals, pivot_map(Q, idx.pivots), tau)
                calls.clear()
                assert idx.search(Q, tau, plans.T).plan == cost.choose_plan(
                    len(Q), len(X), X.shape[1], rows)
                assert len(calls) == (0 if short else 1)


def test_auto_follows_the_cost_model(monkeypatch):
    """With either plan's predicted cost zeroed, auto takes that plan."""
    Q, X, col, n_cols = planted_repo(seed=5)
    idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=3)
    for cheap in cost.PLANS:
        coef = {p: (0.0,) * len(c) if p == cheap else (1.0,) * len(c)
                for p, c in cost.PLAN_COEF.items()}
        monkeypatch.setattr(cost, "PLAN_COEF", coef)
        assert idx.search(Q, 0.4, 0.5).plan == cheap


def test_scan_counters():
    """Under the scan plan the counters say what the scan did."""
    Q, X, col, n_cols = planted_repo(seed=6)
    res = PexesoIndex(X, col, n_cols, n_pivots=5, m=3).search(Q, 0.4, 0.5, plan="scan")
    assert res.n_distance == len(Q) * len(X)
    assert res.n_candidates == res.n_match_pairs == 0


def test_pexeso_h_is_never_planned():
    Q, X, col, n_cols = planted_repo(seed=7)
    idx = PexesoIndex(X, col, n_cols, n_pivots=5, m=3)
    assert idx.search(Q, 0.4, 0.5, use_inverted=False).plan == "index"
    with pytest.raises(ValueError, match="no scan plan"):
        idx.search(Q, 0.4, 0.5, use_inverted=False, plan="scan")


def test_rejects_unknown_plan():
    Q, X, col, n_cols = planted_repo(seed=8)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    for use_inverted in (True, False):
        with pytest.raises(ValueError, match="plan must be"):
            idx.search(Q, 0.4, 0.5, use_inverted=use_inverted, plan="gemm")


@pytest.mark.parametrize("T", [np.nan, -0.1, 1.1, np.inf])
def test_rejects_bad_threshold(T):
    with pytest.raises(ValueError, match="T must be"):
        t_abs(T, 10)
    Q, X, col, n_cols = planted_repo(seed=9)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    for plan in ("index", "scan"):
        with pytest.raises(ValueError, match="T must be"):
            idx.search(Q, 0.4, T, plan=plan)


def test_zero_threshold_needs_one_match():
    """T = 0 still means "at least one match" (a column with none is not
    joinable), on both plans."""
    assert t_abs(0.0, 10) == 1
    Q, X, col, n_cols = planted_repo(seed=10)
    idx = PexesoIndex(X, col, n_cols, n_pivots=3, m=3)
    want = exact_scan.joinable_columns(Q, X, col, n_cols, 0.2, 1)
    assert len(want) < n_cols
    for plan in ("index", "scan"):
        assert idx.search(Q, 0.2, 0.0, plan=plan).joinable == want
