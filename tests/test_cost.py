"""Tests for the §III-E cost model and optimal-m selection."""
import numpy as np
import pytest

from repro.core.cost import (
    MARGINAL_LEVEL,
    leaf_marginals,
    optimal_m,
    region_counts,
    region_rows,
)
from repro.core.grid import HierarchicalGrid, leaf_coords
from repro.core.pivots import pivot_map, select_pivots
from tests.conftest import planted_repo, unit_rows


def test_region_counts_non_increasing_with_m():
    """A finer grid's cells nest in the coarser ones', so the rows in the
    cells a region meets can only fall as m grows, pivot by pivot."""
    Q, X, col, n_cols = planted_repo(seed=1)
    P = select_pivots(X, 3)
    Xp, Qp = pivot_map(X, P), pivot_map(Q, P)
    counts = [region_counts(leaf_marginals(HierarchicalGrid(Xp, m)), Qp, 0.3)
              for m in range(1, 7)]
    for coarse, fine in zip(counts, counts[1:]):
        assert np.all(fine <= coarse)
    assert counts[-1].min(axis=1).sum() < counts[0].min(axis=1).sum()


def test_optimal_m_returns_interior_value():
    Q, X, col, n_cols = planted_repo(seed=2)
    best, costs = optimal_m(X, [(Q, 0.3)], n_pivots=3, m_max=6)
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
    # A grid deeper than MARGINAL_LEVEL keeps that level's counts.
    deep = leaf_marginals(HierarchicalGrid(Xp, MARGINAL_LEVEL + 6))
    assert np.array_equal(deep, leaf_marginals(HierarchicalGrid(Xp, MARGINAL_LEVEL)))


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.4, 2.5])
def test_region_rows_bound_covers_the_region(tau):
    """Eq. 2 (the fewest rows over the pivots) bounds the rows inside each
    query vector's square region, and the independence estimate lies
    below it; with one pivot the estimate is that bound. Checked at a
    leaf level and past ``MARGINAL_LEVEL``."""
    Q, X, col, n_cols = planted_repo(seed=6)
    P = select_pivots(X, 3)
    Xp, Qp = pivot_map(X, P), pivot_map(Q, P)
    for m in (4, MARGINAL_LEVEL + 2):
        M = leaf_marginals(HierarchicalGrid(Xp, m))
        bounds = region_counts(M, Qp, tau).min(axis=1)
        for qp, bound in zip(Qp, bounds):
            assert bound >= np.all(np.abs(Xp - qp) <= tau, axis=1).sum()
        assert 0 <= region_rows(M, Qp, tau) <= bounds.sum()
        one = leaf_marginals(HierarchicalGrid(Xp[:, :1], m))
        assert region_rows(one, Qp[:, :1], tau) == pytest.approx(
            region_counts(one, Qp[:, :1], tau).sum())
