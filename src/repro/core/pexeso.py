"""PEXESO index construction and search (Algorithm 3, §III-E).

``PexesoIndex.build`` runs the offline pipeline: PCA pivot selection →
pivot mapping → hierarchical grid over the mapped target vectors →
inverted index. ``PexesoIndex.search`` runs the online pipeline for a
query column: map the query, choose a plan, then either build ``HG_Q``
with the same ``m``, block (Algorithm 1 + quick browsing) and verify
(Algorithm 2) — the *index* plan — or run the exact GEMM scan of
``core/scan.py`` — the *scan* plan. ``plan="auto"`` picks the plan with
the lower cost predicted by ``core/cost.choose_plan``. ``PexesoIndex.pairs``
lists the matching record pairs; it always runs the scan.

``use_inverted=False`` at search time runs the same verifier without
its per-vector pivot filters (Lemmas 1, 2 and 7): the cell scan of the
PEXESO-H baseline (§VI-A), with identical blocking. It is never planned.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
import math

import numpy as np

from repro.core import block as blockmod
from repro.core import cost
from repro.core import scan as scanmod
from repro.core import verify as verifymod
from repro.core.grid import HierarchicalGrid
from repro.core.inverted import InvertedIndex
from repro.core.pivots import pivot_map, select_pivots

__all__ = ["SearchResult", "PexesoIndex", "check_labels", "check_query", "check_search",
           "check_unit_rows", "column_counts", "t_abs"]


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


def check_search(Q: np.ndarray, tau: float, dim: int) -> None:
    """Raise ``ValueError`` unless ``Q`` has shape (n, ``dim``) and ``Q``
    and ``tau`` pass :func:`check_query`: a search engine's query check."""
    if Q.ndim != 2 or Q.shape[1] != dim:
        raise ValueError(f"Q must have shape (n, {dim}), got {Q.shape}")
    check_query(Q, tau)


def check_labels(X: np.ndarray, col_of_vector: np.ndarray, n_cols: int) -> np.ndarray:
    """Return ``col_of_vector`` as int64; raise ``ValueError`` unless it
    gives each row of ``X`` an integer column label in ``[0, n_cols)``."""
    col = np.asarray(col_of_vector)
    if len(X) != len(col):
        raise ValueError("X and col_of_vector must align")
    if col.dtype.kind not in "iu" or not np.all((col >= 0) & (col < n_cols)):
        raise ValueError(f"col_of_vector must hold integer labels in [0, {n_cols})")
    return col.astype(np.int64, copy=False)


def column_counts(col: np.ndarray, n_cols: int, hits: Iterable[np.ndarray]) -> np.ndarray:
    """Per column, how many of ``hits`` (an iterable of row-index arrays,
    one per query vector) hold a row of it; ``col`` labels the rows."""
    counts = np.zeros(n_cols, dtype=np.int64)
    for rows in hits:
        counts[np.unique(col[rows])] += 1
    return counts


def t_abs(T: float, n_query: int) -> int:
    """Absolute joinability threshold (§V): the fewest matches c ≥ 1 with
    c / |Q| ≥ T − 1e-12, so a column with jn = T exactly is joinable.
    Raises ``ValueError`` unless T is a number in [0, 1]."""
    if not 0.0 <= T <= 1.0:
        raise ValueError(f"T must be a number in [0, 1], got {T!r}")
    c = math.ceil(T * n_query)
    if (c - 1) / n_query >= T - 1e-12:  # T·|Q| rounded up past an integer
        c -= 1
    return max(1, c)


@dataclass
class SearchResult:
    """Joinable columns plus the counters behind Tables VI/VII & Fig. 7a.

    Under the index plan every counter is Algorithm 2's. Under the scan
    plan ``n_distance`` is |Q| · |X|, the distances the scan evaluates,
    there are no blocking pairs (``n_candidates = n_match_pairs = 0``) and
    ``match_counts`` are complete. ``block_seconds`` covers the checks,
    the query's pivot mapping, the plan and blocking; ``verify_seconds``
    covers verification or the scan. The CTREE and EPT baselines return
    one with ``plan`` "ctree" or "ept", no blocking pairs and no seconds;
    CTREE's counts are complete, EPT's stop at T_abs.
    """

    joinable: set[int]
    match_counts: np.ndarray
    n_distance: int
    n_candidates: int = 0
    n_match_pairs: int = 0
    block_seconds: float = 0.0
    verify_seconds: float = 0.0
    plan: str = "index"


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
        col = check_labels(X, col_of_vector, n_cols)
        x2 = check_unit_rows("X", X)
        self.X = X
        self.n_cols = n_cols
        self.m = m
        self.pivots = select_pivots(X, n_pivots, seed=seed)
        Xp = pivot_map(X, self.pivots)
        self.grid = HierarchicalGrid(Xp, m)
        self.index = InvertedIndex(self.grid, col, Xp, x2)
        self.marginals = cost.leaf_marginals(self.grid)

    # -- online ----------------------------------------------------------
    def _caller_order(self, a: np.ndarray) -> np.ndarray:
        """A per-row array of the index, put back in ``X``'s row order."""
        out = np.empty_like(a)
        out[self.index.perm] = a
        return out

    def search(
        self,
        Q: np.ndarray,
        tau: float,
        T: float,
        *,
        use_inverted: bool = True,
        early_terminate: bool = True,
        plan: str = "auto",
    ) -> SearchResult:
        """Find all columns joinable to the query column ``Q`` (Alg. 3).

        ``plan`` is "index" (Algorithm 2), "scan" (the exact GEMM scan) or
        "auto" (the cheaper by ``cost.choose_plan``). PEXESO-H
        (``use_inverted=False``) always runs the index plan; asking it for
        the scan raises ``ValueError``.
        """
        import time

        if plan not in ("auto", *cost.PLANS):
            raise ValueError(f"plan must be 'auto', 'index' or 'scan', got {plan!r}")
        if plan == "scan" and not use_inverted:
            raise ValueError("PEXESO-H (use_inverted=False) has no scan plan")
        t0 = time.perf_counter()
        check_search(Q, tau, self.X.shape[1])
        T_abs = t_abs(T, len(Q))
        if not use_inverted:
            plan = "index"
        if plan == "auto" and cost.scan_surely_cheaper(len(Q), len(self.X), self.X.shape[1]):
            plan = "scan"  # what choose_plan picks, without mapping Q
        if plan != "scan":
            Qp = pivot_map(Q, self.pivots)
        if plan == "auto":
            rows = cost.region_rows(self.marginals, Qp, tau)
            plan = cost.choose_plan(len(Q), len(self.X), self.X.shape[1], rows)
        if plan == "scan":
            t1 = time.perf_counter()
            ix = self.index
            match = scanmod.match_counts(
                self.X, self._caller_order(ix.x2), self._caller_order(ix.col),
                self.n_cols, Q, tau,
            )
            n_distance, n_candidates, n_match_pairs = len(Q) * len(self.X), 0, 0
        else:
            blocks = blockmod.block(HierarchicalGrid(Qp, self.m), self.grid, Qp, tau)
            t1 = time.perf_counter()
            match, n_distance = verifymod.verify(
                blocks, self.index, self.X, Q, Qp, tau, T_abs, self.n_cols,
                use_pivots=use_inverted, early_terminate=early_terminate,
            )
            n_candidates, n_match_pairs = blocks.n_candidates(), blocks.n_matches()
        t2 = time.perf_counter()
        return SearchResult(
            joinable=set(np.flatnonzero(match >= T_abs).tolist()),
            match_counts=match,
            n_distance=n_distance,
            n_candidates=n_candidates,
            n_match_pairs=n_match_pairs,
            block_seconds=t1 - t0,
            verify_seconds=t2 - t1,
            plan=plan,
        )

    def pairs(self, Q: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """The record mapping (§II-A): every (query vector, row of ``X``) pair
        with distance ≤ τ, as ``(q_idx, x_idx)``, listed as
        ``exact_scan.pairs`` lists them, sorted by query vector, then row.
        It runs the scan: with no early termination to gain from, the index
        plan was ~9× slower than ``exact_scan.pairs`` at Table V's τ = 0.5."""
        check_search(Q, tau, self.X.shape[1])
        return scanmod.pairs(self.X, self._caller_order(self.index.x2), Q, tau)
