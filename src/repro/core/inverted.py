"""Inverted index over the leaf cells of ``HG_SV`` (§III-C), as leaf-ordered rows.

The grid's stable Z-order sort is the only permutation: position ``r``
holds target row ``perm[r] = hg.order[r]``. It sorts by every level's
cell digit, so the rows of a leaf are contiguous, in input order, and
leaves are numbered in row order. The per-row arrays the
search reads — column label ``col``, ``x2 = |x|²`` and the pivot
coordinates ``XpT`` (column-major, |P| × n) — are stored in that order,
so leaf ``c`` is the row slice ``leaf_start[c]:leaf_start[c + 1]``;
verification groups a leaf's rows by column itself. ``X`` is not copied:
distances gather ``X[perm[r]]``.
"""
from __future__ import annotations

import numpy as np

from repro.core.grid import HierarchicalGrid

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """leaf cell → row range, rows in the grid's leaf order."""

    def __init__(self, hg: HierarchicalGrid, col_of_vector: np.ndarray,
                 Xp: np.ndarray, x2: np.ndarray) -> None:
        """Row i of the grid's vectors has column ``col_of_vector[i]``,
        pivot coordinates ``Xp[i]`` and ``|x|² = x2[i]``."""
        self.perm = hg.order
        self.col = col_of_vector[self.perm]
        self.x2 = x2[self.perm]
        self.XpT = Xp.T.take(self.perm, axis=1)
        self.leaf_start = hg.starts[hg.m]
