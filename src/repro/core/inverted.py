"""Inverted index over the leaf cells of ``HG_SV`` (§III-C), as CSR arrays.

One ``lexsort`` of the rows by (leaf cell, column) lays out every
postings list contiguously: ``rows`` holds the target-matrix row
indices, a *posting* is one (leaf, column) run of it with column
``col[p]`` and rows ``rows[start[p]:start[p + 1]]``, and the postings of
leaf ``c`` are ``leaf_start[c]:leaf_start[c + 1]``, sorted by column —
the order verification resolves columns in, document-at-a-time (DaaT).
"""
from __future__ import annotations

import numpy as np

from repro.core.grid import HierarchicalGrid

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """leaf cell → postings (column, rows) sorted by column, in CSR form."""

    def __init__(self, hg: HierarchicalGrid, col_of_vector: np.ndarray) -> None:
        """``col_of_vector[i]`` is the integer column index of vector i."""
        leaf = hg.leaf_of_vector()
        self.rows = np.lexsort((col_of_vector, leaf))
        leaf, cols = leaf[self.rows], col_of_vector[self.rows]
        new = np.flatnonzero((leaf[1:] != leaf[:-1]) | (cols[1:] != cols[:-1])) + 1
        first = np.concatenate(([0], new))
        self.start = np.append(first, len(self.rows))
        self.col = cols[first]
        self.leaf_start = np.searchsorted(
            leaf[first], np.arange(hg.n_level(hg.m) + 1)
        )
