"""CTREE baseline: exact metric-tree range search (§VI-A).

The paper uses the cover-tree implementation of [28]; that C++ package
is unavailable offline, so CTREE is realized as an exact metric **ball
tree** — the same role (per-query-vector range search over all target
vectors, no cross-query or cross-column sharing), the same
triangle-inequality pruning, and the same workflow: one range query of
radius τ per query vector, each hit counted toward its column's
joinability, with the reach-T early-termination all baselines get.
"""
from __future__ import annotations

import numpy as np

from repro.core.pexeso import check_query, check_unit_rows

__all__ = ["BallTree", "ctree_search"]

_LEAF = 32


class BallTree:
    """Exact ball tree over row vectors of ``X`` (Euclidean)."""

    __slots__ = ("X", "idx", "center", "radius", "left", "right")

    def __init__(self, X: np.ndarray, idx: np.ndarray | None = None) -> None:
        if idx is None:  # the root: check the input once
            check_unit_rows("X", X)
            idx = np.arange(len(X))
        self.X = X
        self.idx = idx
        pts = X[idx]
        self.center = pts.mean(axis=0)
        d = np.linalg.norm(pts - self.center, axis=1)
        self.radius = float(d.max()) if len(d) else 0.0
        self.left = self.right = None
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
            self.left = BallTree(X, idx[to_left])
            self.right = BallTree(X, idx[~to_left])

    def range_query(self, q: np.ndarray, tau: float, counter: list[int]) -> np.ndarray:
        """Indices of vectors with d(q, x) <= τ; counts distance evals."""
        out: list[np.ndarray] = []
        stack = [self]
        while stack:
            node = stack.pop()
            dc = float(np.linalg.norm(q - node.center))
            counter[0] += 1
            if dc - node.radius > tau:
                continue  # ball fully outside the range
            if node.left is None:
                d = np.linalg.norm(node.X[node.idx] - q, axis=1)
                counter[0] += len(node.idx)
                out.append(node.idx[d <= tau])
            else:
                stack.append(node.left)
                stack.append(node.right)
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def ctree_search(
    tree: BallTree,
    col_of_vector: np.ndarray,
    n_cols: int,
    Q: np.ndarray,
    tau: float,
    T_abs: int,
) -> tuple[set[int], int]:
    """CTREE workflow: range query per query vector, count per column.

    Returns (joinable column set, number of distance computations).
    """
    check_query(Q, tau)
    counts = np.zeros(n_cols, dtype=np.int64)
    joinable: set[int] = set()
    counter = [0]
    for q in Q:
        hits = tree.range_query(q, tau, counter)
        for col in np.unique(col_of_vector[hits]).tolist():
            if col in joinable:
                continue  # early termination: column already joinable
            counts[col] += 1
            if counts[col] >= T_abs:
                joinable.add(col)
    return joinable, counter[0]
