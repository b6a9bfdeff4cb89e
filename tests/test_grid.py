"""Tests for the hierarchical grid."""
import numpy as np
import pytest

from repro.core.grid import DOMAIN, HierarchicalGrid, expand_ranges, leaf_coords
from repro.core.pivots import pivot_map, select_pivots
from tests.conftest import unit_rows


def _mapped(n=200, dim=12, n_pivots=3, seed=0):
    X = unit_rows(n, dim, seed)
    P = select_pivots(X, n_pivots, seed=seed)
    return pivot_map(X, P)


def _children(hg, level, cell):
    lo, hi = hg.below(level, np.array([cell]), level + 1)
    return range(lo[0], hi[0])


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_every_vector_in_exactly_one_leaf(m):
    Xp = _mapped()
    hg = HierarchicalGrid(Xp, m)
    leaf, rows = hg.rows(m, np.arange(hg.n_level(m)))
    assert np.all(np.bincount(rows, minlength=len(Xp)) == 1)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_leaf_bounds_contain_vectors(m):
    Xp = _mapped()
    hg = HierarchicalGrid(Xp, m)
    leaf, rows = hg.rows(m, np.arange(hg.n_level(m)))
    lo = hg.coords[m][leaf] * hg.side(m)
    assert np.all(Xp[rows] >= lo - 1e-12) and np.all(Xp[rows] <= lo + hg.side(m) + 1e-12)


def test_side_lengths_halve():
    hg = HierarchicalGrid(_mapped(), 3)
    assert hg.side(1) == DOMAIN / 2
    assert hg.side(2) == DOMAIN / 4
    assert hg.side(3) == DOMAIN / 8


def test_children_partition_parents():
    Xp = _mapped()
    hg = HierarchicalGrid(Xp, 3)
    # Walking root→leaves reaches every occupied leaf exactly once.
    reached, stack = [], [(0, 0)]
    while stack:
        level, cell = stack.pop()
        if level == hg.m:
            reached.append(cell)
        else:
            stack.extend((level + 1, k) for k in _children(hg, level, cell))
    assert sorted(reached) == list(range(hg.n_level(hg.m)))


def test_child_coords_are_children():
    hg = HierarchicalGrid(_mapped(), 3)
    for level in range(hg.m):
        for parent in range(hg.n_level(level)):
            for kid in _children(hg, level, parent):
                assert np.array_equal(
                    hg.coords[level + 1][kid] >> 1, hg.coords[level][parent]
                )


def test_boundary_value_clipped():
    """A coordinate exactly at DOMAIN lands in the last cell, not out of
    range; so does a huge one, such as a query region's ``q' + τ`` at
    τ = 1e300 or inf, which a cast to int64 before the clip wraps around."""
    Xp = np.array([[DOMAIN, 0.0], [0.0, DOMAIN]])
    hg = HierarchicalGrid(Xp, 2)
    assert np.all((hg.coords[2] >= 0) & (hg.coords[2] < 4))
    assert np.array_equal(leaf_coords(Xp, 2), [[3, 0], [0, 3]])
    for big in (1e18, 1e19, 1e300, np.inf):
        Xp = np.array([[big, -big], [-big, big]])
        assert np.array_equal(leaf_coords(Xp, 2), [[3, 0], [0, 3]]), big


def test_m_zero_rejected():
    with pytest.raises(ValueError):
        HierarchicalGrid(_mapped(), 0)


def test_n_cells_counts_all_levels():
    Xp = _mapped()
    hg = HierarchicalGrid(Xp, 2)
    leaves = leaf_coords(Xp, 2)
    distinct = sum(len({tuple(c >> (2 - l)) for c in leaves}) for l in range(3))
    assert sum(hg.n_level(l) for l in range(hg.m + 1)) == distinct


def test_empty_leaf_lookup():
    """Only non-empty cells are materialized, one per distinct coordinate."""
    hg = HierarchicalGrid(_mapped(), 2)
    for level in range(hg.m + 1):
        assert np.all(np.diff(hg.starts[level]) > 0)
        assert len(np.unique(hg.coords[level], axis=0)) == hg.n_level(level)


def test_nine_pivots_eight_levels():
    """|P|·m = 72 bits of cell address: more than one int64 key holds."""
    Xp = _mapped(n=300, n_pivots=9)
    hg = HierarchicalGrid(Xp, 8)
    leaf, rows = hg.rows(8, np.arange(hg.n_level(8)))
    assert np.array_equal(hg.coords[8][leaf], leaf_coords(Xp, 8)[rows])


def test_expand_ranges():
    owner, idx = expand_ranges(np.array([3, 0, 7]), np.array([5, 0, 8]))
    assert owner.tolist() == [0, 0, 2]
    assert idx.tolist() == [3, 4, 7]
