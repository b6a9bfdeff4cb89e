"""Inverted index over the leaf cells of ``HG_SV`` (§III-C), as leaf-ordered rows.

One ``lexsort`` of the rows by (leaf cell, column) is the only
permutation: position ``r`` holds target row ``perm[r]``. The per-row
arrays the search reads — column label ``col``, ``x2 = |x|²`` and the
pivot coordinates ``XpT`` (column-major, |P| × n) — are stored in that
order, so leaf ``c`` is the row slice ``leaf_start[c]:leaf_start[c + 1]``
and a posting (one column's rows in one leaf) is a run of it, in column
order (DaaT). ``X`` itself is not copied: distances gather ``X[perm[r]]``.
"""
from __future__ import annotations

import numpy as np

from repro.core.grid import HierarchicalGrid

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """leaf cell → row range, rows sorted by (leaf, column)."""

    def __init__(self, hg: HierarchicalGrid, col_of_vector: np.ndarray,
                 Xp: np.ndarray, x2: np.ndarray) -> None:
        """Row i of the grid's vectors has column ``col_of_vector[i]``,
        pivot coordinates ``Xp[i]`` and ``|x|² = x2[i]``."""
        self.perm = np.lexsort((col_of_vector, hg.leaf_of_vector()))
        self.col = col_of_vector[self.perm]
        self.x2 = x2[self.perm]
        self.XpT = Xp.T.take(self.perm, axis=1)
        # Leaves are numbered in row order, so their row ranges are the grid's.
        self.leaf_start = hg.starts[hg.m]
