"""Hierarchical grids over the pivot space (§III-B), as sorted arrays.

The pivot space is the hyper-cube ``[0, DOMAIN]^{|P|}`` (DOMAIN = 2 for
unit-normalized vectors under Euclidean distance). Level ``l`` of an
``m``-level grid splits each dimension into ``2^l`` equal parts; only
non-empty cells are materialized. The parent of a cell halves each
integer coordinate.

``HierarchicalGrid`` sorts the vectors once, in Z-order (coarsest level
first, stable), so every cell at every level is one contiguous run of
``order``; the repository's inverted index stores its rows in this
order too (``InvertedIndex.perm is order``). Per level it stores the
CSR ``starts`` of those runs and each cell's integer ``coords``
(column-major: one contiguous run per pivot). A cell
is an integer index into its level; since the runs of level ``l`` are
unions of runs of level ``l+1``, a cell's children (and its descendants
at any deeper level) are one ``searchsorted`` range.
"""
from __future__ import annotations

import numpy as np

__all__ = ["DOMAIN", "HierarchicalGrid", "expand_ranges", "leaf_coords"]

#: Extent of the pivot space per dimension (max pairwise distance, §V).
DOMAIN = 2.0


def leaf_coords(Xp: np.ndarray, m: int) -> np.ndarray:
    """Integer level-``m`` cell coordinates of mapped vectors ``Xp``.

    The clip puts a coordinate exactly at ``DOMAIN`` into the last cell.
    It runs before the cast, so a coordinate beyond the int64 range (a
    query region of τ = 1e300 or inf) clips to the nearest cell instead
    of wrapping around.
    """
    c = Xp / (DOMAIN / (1 << m))
    np.floor(c, out=c)
    np.clip(c, 0, (1 << m) - 1, out=c)
    return c.astype(np.int64)


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges ``[lo[i], hi[i])`` into ``(owner, idx)`` arrays.

    ``owner[k]`` is the range that ``idx[k]`` came from, in range order.
    """
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    offset = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return owner, np.arange(len(owner)) + offset


class HierarchicalGrid:
    """An m-level grid over mapped vectors ``Xp`` (shape (n, |P|))."""

    def __init__(self, Xp: np.ndarray, m: int) -> None:
        if m < 1:
            raise ValueError("grid needs at least one level")
        self.m = m
        self.n, self.dims = Xp.shape
        coords = leaf_coords(Xp, m)
        # Child digit per level: one bit per dimension of the level's split.
        weights = np.int64(1) << np.arange(self.dims, dtype=np.int64)
        digits = [((coords >> (m - l)) & 1) @ weights for l in range(1, m + 1)]
        # lexsort's last key is the primary one: level 1 first, then 2, ...
        self.order = np.lexsort(digits[::-1])
        sc = coords[self.order]
        self.starts: list[np.ndarray] = []
        self.coords: list[np.ndarray] = []
        for l in range(m + 1):
            cl = sc >> (m - l)
            first = np.flatnonzero(np.any(cl[1:] != cl[:-1], axis=1)) + 1
            s = np.concatenate(([0], first, [self.n])) if self.n else np.zeros(1, np.int64)
            self.starts.append(s)
            self.coords.append(np.asfortranarray(cl[s[:-1]]))

    # -- geometry --------------------------------------------------------
    def side(self, level: int) -> float:
        """Edge length of a cell at ``level``: a cell spans
        ``[coords * side, coords * side + side]`` per pivot."""
        return DOMAIN / (1 << level)

    # -- topology --------------------------------------------------------
    def n_level(self, level: int) -> int:
        """Number of non-empty cells at ``level``."""
        return len(self.starts[level]) - 1

    def below(
        self, level: int, cells: np.ndarray, to_level: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Index ranges ``[lo, hi)`` of the level-``to_level`` cells under ``cells``."""
        s, t = self.starts[level], self.starts[to_level]
        return np.searchsorted(t, s[cells]), np.searchsorted(t, s[cells + 1])

    def rows(self, level: int, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(owner, row index) of every vector in ``cells``, cell by cell."""
        s = self.starts[level]
        owner, pos = expand_ranges(s[cells], s[cells + 1])
        return owner, self.order[pos]
