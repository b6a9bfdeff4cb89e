"""PEXESO index construction and search (Algorithm 3, §III-E).

``PexesoIndex.build`` runs the offline pipeline: PCA pivot selection →
pivot mapping → hierarchical grid over the mapped target vectors →
inverted index. ``PexesoIndex.search`` runs the online pipeline for a
query column: map the query, build ``HG_Q`` with the same ``m``, block
(Algorithm 1 + quick browsing), verify (Algorithm 2). ``PexesoIndex.pairs``
blocks the same way and lists the matching record pairs instead.

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

__all__ = ["SearchResult", "PexesoIndex", "check_query", "check_unit_rows", "t_abs"]


#: Largest accepted | |x|² − 1 | of an input row. The grid's fixed extent
#: (``grid.DOMAIN``) bounds pivot distances only for unit vectors, so
#: other input would be answered silently wrong.
NORM_TOL = 1e-6


def check_unit_rows(name: str, X: np.ndarray) -> np.ndarray:
    """Return the rows' |x|²; raise ``ValueError`` unless ``X`` has rows
    and every row is finite and unit-norm."""
    sq_norms = np.einsum("ij,ij->i", X, X)
    # A NaN or infinite entry makes |x|² NaN or infinite, failing the test.
    if not (len(X) and np.all(np.abs(sq_norms - 1.0) <= NORM_TOL)):
        raise ValueError(f"{name} must have at least one row, each finite and unit-norm")
    return sq_norms


def check_query(Q: np.ndarray, tau: float) -> None:
    """Raise ``ValueError`` unless ``Q`` passes :func:`check_unit_rows` and
    ``tau`` is a number ≥ 0. A NaN τ would match nothing, silently."""
    check_unit_rows("Q", Q)
    if not tau >= 0:
        raise ValueError(f"tau must be a number >= 0, got {tau!r}")


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

        ``col_of_vector`` maps each row of ``X`` to its integer column
        index in ``[0, n_cols)``; other labels raise ``ValueError``.
        """
        col = np.asarray(col_of_vector)
        if len(X) != len(col):
            raise ValueError("X and col_of_vector must align")
        if col.dtype.kind not in "iu" or not np.all((col >= 0) & (col < n_cols)):
            raise ValueError(f"col_of_vector must hold integer labels in [0, {n_cols})")
        x2 = check_unit_rows("X", X)
        self.X = X
        self.n_cols = n_cols
        self.m = m
        self.pivots = select_pivots(X, n_pivots, seed=seed)
        Xp = pivot_map(X, self.pivots)
        self.grid = HierarchicalGrid(Xp, m)
        self.index = InvertedIndex(self.grid, col.astype(np.int64, copy=False), Xp, x2)

    # -- online ----------------------------------------------------------
    def _block(self, Q: np.ndarray, tau: float) -> tuple[np.ndarray, blockmod.BlockResult]:
        """Check the query, map it, build ``HG_Q`` and block: (Q′, pairs)."""
        if Q.ndim != 2 or Q.shape[1] != self.X.shape[1]:
            raise ValueError(f"Q must have shape (n, {self.X.shape[1]}), got {Q.shape}")
        check_query(Q, tau)
        Qp = pivot_map(Q, self.pivots)
        hg_q = HierarchicalGrid(Qp, self.m)
        return Qp, blockmod.block(hg_q, self.grid, Qp, tau)

    def search(
        self,
        Q: np.ndarray,
        tau: float,
        T: float,
        *,
        use_inverted: bool = True,
        early_terminate: bool = True,
    ) -> SearchResult:
        """Find all columns joinable to the query column ``Q`` (Alg. 3)."""
        import time

        t0 = time.perf_counter()
        Qp, blocks = self._block(Q, tau)
        t1 = time.perf_counter()
        T_abs = t_abs(T, len(Q))
        match, n_distance = verifymod.verify(
            blocks, self.index, self.X, Q, Qp, tau, T_abs, self.n_cols,
            use_pivots=use_inverted, early_terminate=early_terminate,
        )
        t2 = time.perf_counter()
        return SearchResult(
            joinable=set(np.flatnonzero(match >= T_abs).tolist()),
            match_counts=match,
            n_distance=n_distance,
            n_candidates=blocks.n_candidates(),
            n_match_pairs=blocks.n_matches(),
            block_seconds=t1 - t0,
            verify_seconds=t2 - t1,
        )

    def pairs(self, Q: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """The record mapping (§II-A): every (query vector, row of ``X``) pair
        with distance ≤ τ, as ``(q_idx, x_idx)``, with no early termination.
        Sure rows need no distance; kept rows get verify's, so boundary pairs
        round as in ``exact_scan.pairs``."""
        Qp, blocks = self._block(Q, tau)
        r, rq, _, sure, kept = verifymod.candidate_rows(blocks, self.index, Qp, tau, True)
        kept &= ~sure
        x = self.index.perm[r]
        qk, xk, x2k = rq[kept], x[kept], self.index.x2[r[kept]]
        hit = np.zeros(len(xk), dtype=bool)
        bounds = np.searchsorted(qk, np.arange(len(Q) + 1)).tolist()
        for q, a, b in zip(Q, bounds, bounds[1:]):
            hit[a:b] = x2k[a:b] + q @ q - 2.0 * (self.X[xk[a:b]] @ q) <= tau * tau
        return np.concatenate((rq[sure], qk[hit])), np.concatenate((x[sure], xk[hit]))
