"""PEXESO index construction and search (Algorithm 3, §III-E).

``PexesoIndex.build`` runs the offline pipeline: PCA pivot selection →
pivot mapping → hierarchical grid over the mapped target vectors →
inverted index. ``PexesoIndex.search`` runs the online pipeline for a
query column: map the query, build ``HG_Q`` with the same ``m``, block
(Algorithm 1 + quick browsing), verify (Algorithm 2).

``use_inverted=False`` at search time runs the same verifier without
its per-vector pivot filters (Lemmas 1, 2 and 7): the cell scan of the
PEXESO-H baseline (§VI-A), with identical blocking.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.core import block as blockmod
from repro.core import verify as verifymod
from repro.core.grid import HierarchicalGrid
from repro.core.inverted import InvertedIndex
from repro.core.pivots import pivot_map, select_pivots

__all__ = ["SearchResult", "PexesoIndex", "check_unit_rows", "t_abs"]


#: Largest accepted | |x|² − 1 | of an input row. The grid's fixed extent
#: (``grid.DOMAIN``) bounds pivot distances only for unit vectors, so
#: other input would be answered silently wrong.
NORM_TOL = 1e-6


def check_unit_rows(name: str, X: np.ndarray) -> np.ndarray:
    """Return the rows' |x|²; raise ``ValueError`` unless every row of
    ``X`` is finite and unit-norm."""
    sq_norms = np.einsum("ij,ij->i", X, X)
    # A NaN or infinite entry makes |x|² NaN or infinite, failing the test.
    if not np.all(np.abs(sq_norms - 1.0) <= NORM_TOL):
        raise ValueError(f"{name} rows must be finite and unit-norm")
    return sq_norms


def t_abs(T: float, n_query: int) -> int:
    """Absolute joinability threshold (§V): the fewest matches c ≥ 1 with
    c / |Q| ≥ T − 1e-12, so a column with jn = T exactly is joinable."""
    c = math.ceil(T * n_query)
    if (c - 1) / n_query >= T - 1e-12:  # T·|Q| rounded up past an integer
        c -= 1
    return max(1, c)


@dataclass
class SearchResult:
    """Joinable columns plus the counters behind Tables VI/VII & Fig. 7a."""

    joinable: set[int]
    match_counts: np.ndarray
    n_distance: int
    n_candidates: int
    n_match_pairs: int
    block_seconds: float = 0.0
    verify_seconds: float = 0.0


class PexesoIndex:
    """A single in-memory PEXESO over one repository (or one partition)."""

    def __init__(
        self,
        X: np.ndarray,
        col_of_vector: np.ndarray,
        n_cols: int,
        *,
        n_pivots: int = 5,
        m: int = 4,
        seed: int = 0,
    ) -> None:
        """Build the index over target vectors ``X`` (rows finite, unit-norm).

        ``col_of_vector`` maps each row of ``X`` to its column index in
        ``[0, n_cols)``.
        """
        if len(X) != len(col_of_vector):
            raise ValueError("X and col_of_vector must align")
        self.x2 = check_unit_rows("X", X)
        self.X = X
        self.col_of_vector = np.asarray(col_of_vector, dtype=np.int64)
        self.n_cols = n_cols
        self.m = m
        self.pivots = select_pivots(X, n_pivots, seed=seed)
        self.Xp = pivot_map(X, self.pivots)
        self.grid = HierarchicalGrid(self.Xp, m)
        self.index = InvertedIndex(self.grid, self.col_of_vector)

    # -- online ----------------------------------------------------------
    def search(
        self,
        Q: np.ndarray,
        tau: float,
        T: float,
        *,
        use_inverted: bool = True,
        use_quick_browsing: bool = True,
        early_terminate: bool = True,
    ) -> SearchResult:
        """Find all columns joinable to the query column ``Q`` (Alg. 3)."""
        import time

        if Q.ndim != 2 or Q.shape[1] != self.X.shape[1]:
            raise ValueError(f"Q must have shape (n, {self.X.shape[1]}), got {Q.shape}")
        check_unit_rows("Q", Q)
        t0 = time.perf_counter()
        Qp = pivot_map(Q, self.pivots)
        hg_q = HierarchicalGrid(Qp, self.m)
        blocks = blockmod.block(
            hg_q, self.grid, Qp, tau, use_quick_browsing=use_quick_browsing
        )
        t1 = time.perf_counter()
        T_abs = t_abs(T, len(Q))
        res = verifymod.verify(
            blocks, self.index, self.X, self.Xp, self.x2, Q, Qp, tau, T_abs,
            self.n_cols, use_pivots=use_inverted, early_terminate=early_terminate,
        )
        t2 = time.perf_counter()
        return SearchResult(
            joinable=res.joinable,
            match_counts=res.match,
            n_distance=res.n_distance,
            n_candidates=blocks.n_candidates(),
            n_match_pairs=blocks.n_matches(),
            block_seconds=t1 - t0,
            verify_seconds=t2 - t1,
        )
