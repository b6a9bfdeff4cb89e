"""CTREE baseline: exact metric-tree range search (§VI-A).

The paper uses the cover-tree implementation of [28]; that C++ package
is unavailable offline, so CTREE is realized as an exact metric **ball
tree** — the same role (per-query-vector range search over all target
vectors, no cross-query or cross-column sharing), the same
triangle-inequality pruning, and the same workflow: one range query of
radius τ per query vector, each hit counted toward its column's
joinability. Every column is counted: the reach-T early termination the
other baselines get would skip only counting here, not distances.

A pair matches as in ``baselines.exact_scan`` (``scan.settle``). A ball
is pruned against ``regions.widened(τ)``: against a bare τ, a ball whose
centre lies 1e-9 from a near-duplicate was pruned at τ = 0.
"""
from __future__ import annotations

import numpy as np

from repro.core.pexeso import (
    SearchResult, check_labels, check_search, check_unit_rows, column_counts, t_abs,
)
from repro.core.regions import widened
from repro.core.scan import settle

__all__ = ["BallTree"]

_LEAF = 32


class _Node:
    """A ball over rows ``idx`` of ``X``, split in two unless a leaf."""

    __slots__ = ("idx", "center", "radius", "left", "right")

    def __init__(self, X: np.ndarray, idx: np.ndarray) -> None:
        pts = X[idx]
        self.center = pts.mean(axis=0)
        d = np.linalg.norm(pts - self.center, axis=1)
        self.radius = float(d.max()) if len(d) else 0.0
        self.idx, self.left, self.right = idx, None, None
        if len(idx) > _LEAF:
            # Split on the farthest point and its antipode (classic
            # two-pivot ball-tree split).
            a = idx[int(np.argmax(d))]
            da = np.linalg.norm(pts - X[a], axis=1)
            b = idx[int(np.argmax(da))]
            db = np.linalg.norm(pts - X[b], axis=1)
            to_left = da <= db
            if to_left.all() or (~to_left).all():
                return  # degenerate (duplicate points): stay a leaf
            self.left = _Node(X, idx[to_left])
            self.right = _Node(X, idx[~to_left])


class BallTree:
    """CTREE: an exact ball tree over the rows of ``X`` (Euclidean).

    ``X`` and ``col_of_vector`` are checked as ``PexesoIndex`` checks them.
    """

    def __init__(self, X: np.ndarray, col_of_vector: np.ndarray, n_cols: int) -> None:
        self.col = check_labels(X, col_of_vector, n_cols)
        self.x2 = check_unit_rows("X", X)
        self.X = X
        self.n_cols = n_cols
        self.root = _Node(X, np.arange(len(X)))

    def range_query(self, q: np.ndarray, tau: float, counter: list[int]) -> np.ndarray:
        """Rows of ``X`` within τ of ``q`` as the oracle decides it; adds the
        distances evaluated to ``counter[0]``."""
        out: list[np.ndarray] = []
        reach, tau2, q2 = widened(tau), tau * tau, q @ q
        stack = [self.root]
        while stack:
            node = stack.pop()
            dc = float(np.linalg.norm(q - node.center))
            counter[0] += 1
            if dc - node.radius > reach:
                continue  # ball fully outside the range
            if node.left is None:
                idx = node.idx
                d2 = self.x2[idx] + q2 - 2.0 * (self.X[idx] @ q)
                counter[0] += len(idx)
                out.append(idx[settle(d2, tau2, self.X, self.x2[idx], q, idx)])
            else:
                stack.append(node.left)
                stack.append(node.right)
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    def search(self, Q: np.ndarray, tau: float, T: float) -> SearchResult:
        """Columns joinable to ``Q``: one range query per query vector."""
        check_search(Q, tau, self.X.shape[1])
        T_abs = t_abs(T, len(Q))
        counter = [0]
        match = column_counts(
            self.col, self.n_cols, (self.range_query(q, tau, counter) for q in Q)
        )
        return SearchResult(
            joinable=set(np.flatnonzero(match >= T_abs).tolist()),
            match_counts=match,
            n_distance=counter[0],
            plan="ctree",
        )
