"""Tests for the §III-E cost model and optimal-m selection."""
import numpy as np
import pytest

from repro.core.cost import (
    expected_cost,
    leaf_marginals,
    n_max_sqr,
    optimal_m,
    region_rows,
)
from repro.core.grid import HierarchicalGrid, leaf_coords
from repro.core.pivots import pivot_map, select_pivots
from tests.conftest import planted_repo, unit_rows


def test_n_max_sqr_counts_interval():
    dims = [np.array([0.0, 0.5, 1.0, 1.5, 2.0]), np.array([0.0, 0.1, 0.2, 1.8, 1.9])]
    # dim0: |[0.4,1.6]∩xs| = 3 (0.5,1.0,1.5); dim1: |[0.4,1.6]∩xs| = 0
    assert n_max_sqr(dims, np.array([1.0, 1.0]), 0.5, 0.1) == 0


def test_n_max_sqr_upper_bounds_truth():
    """Eq. 2 must upper-bound the true number of in-region vectors."""
    X = unit_rows(300, 10, seed=3)
    P = select_pivots(X, 3)
    Xp = pivot_map(X, P)
    sorted_dims = [np.sort(Xp[:, i]) for i in range(3)]
    g = np.random.default_rng(0)
    for _ in range(20):
        qp = Xp[g.integers(0, len(Xp))]
        tau = float(g.uniform(0.05, 0.5))
        inside = np.all(np.abs(Xp - qp) <= tau, axis=1).sum()
        assert n_max_sqr(sorted_dims, qp, tau, 0.0) >= inside


def test_expected_cost_decreases_with_m_without_access_term():
    """Finer grids shrink the slack, so the Eq. 1 part is non-increasing."""
    Q, X, col, n_cols = planted_repo(seed=1)
    P = select_pivots(X, 3)
    Xp, Qp = pivot_map(X, P), pivot_map(Q, P)
    costs = [expected_cost(Xp, Qp, m, 0.3, alpha=0.0) for m in (1, 3, 5)]
    assert costs[0] >= costs[-1]


def test_optimal_m_returns_interior_value():
    Q, X, col, n_cols = planted_repo(seed=2)
    best, costs = optimal_m(X, [(Q, 0.3)], n_pivots=3, m_max=6, alpha=2.0)
    assert 1 <= best <= 6
    assert set(costs) == set(range(1, 7))
    assert costs[best] == min(costs.values())


def test_optimal_m_workload_sum():
    Q, X, col, n_cols = planted_repo(seed=3)
    _, c1 = optimal_m(X, [(Q, 0.3)], n_pivots=3, m_max=3)
    _, c2 = optimal_m(X, [(Q, 0.3), (Q, 0.3)], n_pivots=3, m_max=3)
    for m in c1:
        assert c2[m] == pytest.approx(2 * c1[m], rel=1e-9)


def test_leaf_marginals_count_rows_below_each_coordinate():
    X = unit_rows(500, 10, seed=4)
    Xp = pivot_map(X, select_pivots(X, 4))
    M = leaf_marginals(HierarchicalGrid(Xp, 3))
    c = leaf_coords(Xp, 3)
    assert M.shape == (4, 9)
    for j in range(4):
        assert M[j].tolist() == [int(np.sum(c[:, j] < k)) for k in range(9)]


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.4, 2.5])
def test_region_rows_bound_covers_the_region(tau):
    """Eq. 2 at leaf resolution bounds the rows inside each query vector's
    square region; with one pivot the independence estimate is that bound."""
    Q, X, col, n_cols = planted_repo(seed=6)
    P = select_pivots(X, 3)
    Xp, Qp = pivot_map(X, P), pivot_map(Q, P)
    bound, est = region_rows(leaf_marginals(HierarchicalGrid(Xp, 4)), Qp, tau)
    inside = sum(int(np.all(np.abs(Xp - qp) <= tau, axis=1).sum()) for qp in Qp)
    assert bound >= inside and 0 <= est <= bound
    one = region_rows(leaf_marginals(HierarchicalGrid(Xp[:, :1], 4)), Qp[:, :1], tau)
    assert one[1] == pytest.approx(one[0])
