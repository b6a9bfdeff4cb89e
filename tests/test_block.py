"""Tests for Algorithm 1 (blocking) and quick browsing."""
import numpy as np
import pytest

from repro.core.block import BlockResult, block
from repro.core.grid import HierarchicalGrid
from repro.core.pivots import pivot_map, select_pivots
from tests.conftest import planted_repo


def _setup(tau_seed=0, n_pivots=3, m=3):
    Q, X, col, n_cols = planted_repo(seed=tau_seed)
    P = select_pivots(X, n_pivots, seed=tau_seed)
    Xp, Qp = pivot_map(X, P), pivot_map(Q, P)
    return Q, X, Qp, Xp


def _pairs(r: BlockResult) -> set[tuple[int, int, bool]]:
    return set(zip(r.q.tolist(), r.leaf.tolist(), r.matched.tolist()))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [0.1, 0.4, 0.8])
def test_blocking_complete(m, tau):
    """Completeness: every true match (q, x) has x's leaf in q's pairs."""
    Q, X, Qp, Xp = _setup(m=m)
    hg_q, hg_s = HierarchicalGrid(Qp, m), HierarchicalGrid(Xp, m)
    res = block(hg_q, hg_s, Qp, tau)
    leaf, rows = hg_s.rows(m, np.arange(hg_s.n_level(m)))
    leaf_of = np.empty(len(X), dtype=np.int64)
    leaf_of[rows] = leaf
    d = np.linalg.norm(Q[:, None, :] - X[None, :, :], axis=2)
    for qi, xi in zip(*np.where(d <= tau)):
        cells = res.leaf[res.q == qi]
        assert leaf_of[xi] in cells, (qi, xi)


@pytest.mark.parametrize("tau", [0.1, 0.4])
def test_matching_pairs_sound(tau):
    """Every vector in a matching-pair leaf really matches the query vector."""
    Q, X, Qp, Xp = _setup()
    m = 3
    hg_q, hg_s = HierarchicalGrid(Qp, m), HierarchicalGrid(Xp, m)
    res = block(hg_q, hg_s, Qp, tau)
    for qi, leaf, matched in _pairs(res):
        if matched:
            d = np.linalg.norm(X[hg_s.rows(m, np.array([leaf]))[1]] - Q[qi], axis=1)
            assert np.all(d <= tau + 1e-9)


def test_quick_browse_emits_shared_leaves():
    """Every query vector is paired, as a candidate, with the target leaf
    at its own leaf's coordinates, whenever that leaf exists."""
    Q, X, Qp, Xp = _setup()
    m = 3
    hg_q, hg_s = HierarchicalGrid(Qp, m), HierarchicalGrid(Xp, m)
    res = block(hg_q, hg_s, Qp, 0.05)
    pairs = _pairs(res)
    target_leaf = {tuple(c): i for i, c in enumerate(hg_s.coords[m].tolist())}
    shared = 0
    leaf, rows = hg_q.rows(m, np.arange(hg_q.n_level(m)))
    for qi, c in zip(rows.tolist(), hg_q.coords[m][leaf].tolist()):
        if tuple(c) in target_leaf:
            assert (qi, target_leaf[tuple(c)], False) in pairs
            shared += 1
    assert shared > 0


def test_mismatched_levels_rejected():
    Q, X, Qp, Xp = _setup()
    with pytest.raises(ValueError):
        block(HierarchicalGrid(Qp, 2), HierarchicalGrid(Xp, 3), Qp, 0.3)


def test_larger_tau_more_candidates():
    Q, X, Qp, Xp = _setup()
    hg_q, hg_s = HierarchicalGrid(Qp, 3), HierarchicalGrid(Xp, 3)
    small = block(hg_q, hg_s, Qp, 0.05)
    large = block(hg_q, hg_s, Qp, 0.8)
    total_small = small.n_candidates() + small.n_matches()
    total_large = large.n_candidates() + large.n_matches()
    assert total_large >= total_small


def test_blocking_prunes_at_small_tau():
    """At tiny τ most (q, leaf) pairs must be pruned."""
    Q, X, Qp, Xp = _setup()
    hg_q, hg_s = HierarchicalGrid(Qp, 3), HierarchicalGrid(Xp, 3)
    res = block(hg_q, hg_s, Qp, 0.05)
    exhaustive = len(Q) * hg_s.n_level(3)
    assert res.n_candidates() + res.n_matches() < exhaustive * 0.5


def test_pairs_unique_and_grouped():
    """Each (query vector, leaf) pair is emitted once, under its query."""
    Q, X, Qp, Xp = _setup()
    hg_q, hg_s = HierarchicalGrid(Qp, 3), HierarchicalGrid(Xp, 3)
    res = block(hg_q, hg_s, Qp, 0.8)
    q = res.q
    assert len(set(zip(q.tolist(), res.leaf.tolist()))) == len(q)
    assert len(q) == len(res.leaf) == len(res.matched)
    assert q.min() >= 0 and q.max() < len(Q)
    assert np.all(np.diff(q) >= 0)
