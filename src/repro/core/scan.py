"""The scan plan: an exact GEMM scan of a query column over the repository.

``X @ Q.T`` is computed over fixed-size row chunks of ``X``, in the
caller's row order and without copying ``X``; ``Q`` is padded to a
multiple of ``PAD`` rows with zero rows that never hit, a shape the GEMM
runs faster. A pair is decided on its squared distance formed in
``baselines.exact_scan``'s operation order,
``(|x|² + |q|²) − 2·(x·q)``; one comparison of the dot products against
a per-query-vector threshold first drops the pairs that are surely
farther than τ, so only the few others get a ``d²``. A GEMM may round a
dot product differently from the oracle's matrix-vector product, so
every pair whose ``d²`` lies within ``BOUNDARY`` of τ² is settled by
:func:`oracle_hits`, the oracle's own expression; boundary pairs then
round as the oracle rounds them.

The scan computes every dot product (|Q| · |X| of them) and never stops
early, so its match counts are complete.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["CHUNK", "PAD", "BOUNDARY", "oracle_hits", "settle", "hits", "match_counts", "pairs"]

#: Rows of ``X`` per GEMM.
CHUNK = 4096
#: The GEMM's query side is padded to a multiple of this many rows.
PAD = 8
#: Pairs with | d² − τ² | at most this get the oracle's expression. A
#: GEMM and a matrix-vector product of unit vectors differ by far less.
BOUNDARY = 1e-12


def oracle_hits(X: np.ndarray, x2_rows: np.ndarray, q: np.ndarray,
                rows: np.ndarray, tau2: float) -> np.ndarray:
    """Whether each of ``rows`` of ``X`` (with |x|² ``x2_rows``) lies within
    τ of ``q``, decided on ``exact_scan``'s expression ``x2 + q @ q −
    2.0 * (X @ q)``. The product runs over all of ``X``: one over gathered
    rows can round differently (a one-row gather put an exact copy of
    ``q`` at d² = 2.2e-16 where the full product gives 0), which decides
    a pair at τ = 0 or at exactly distance τ the other way."""
    return x2_rows + q @ q - 2.0 * (X @ q)[rows] <= tau2


def settle(d2: np.ndarray, tau2: float, X: np.ndarray, x2_rows: np.ndarray,
           q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``d2 <= tau2`` for ``q`` against ``rows`` of ``X``, with every ``d2``
    within ``BOUNDARY`` of τ² decided by :func:`oracle_hits` instead."""
    hit = d2 <= tau2 + BOUNDARY
    near = np.flatnonzero(hit)  # hits are few: test only them for the band
    near = near[d2[near] >= tau2 - BOUNDARY]
    if len(near):
        hit[near] = oracle_hits(X, x2_rows[near], q, rows[near], tau2)
    return hit


def hits(X: np.ndarray, x2: np.ndarray, Q: np.ndarray,
         tau: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per chunk of ``X``, the pairs within distance τ as ``(row, q)``
    arrays, sorted by row, then query vector. ``x2`` holds |x|² of each
    row of ``X``, in the same order."""
    tau2 = tau * tau
    n_q = len(Q)
    # The GEMM ran up to 1.7x slower when |Q| was not a multiple of 8, so Q
    # is padded with zero rows; their floor of +inf keeps them from hitting.
    Q = np.vstack([Q, np.zeros((-n_q % PAD, Q.shape[1]), dtype=Q.dtype)])
    q2 = np.einsum("ij,ij->i", Q, Q)
    # d² ≤ τ² + BOUNDARY needs 2·x·q ≥ |x|² + |q|² − τ² − BOUNDARY; |x|² is
    # replaced by its minimum, and the slack covers the rounding of both sides.
    floor = (x2.min() + q2 - tau2 - BOUNDARY) / 2.0 - 1e-9
    floor[n_q:] = np.inf
    for a in range(0, len(X), CHUNK):
        g = X[a:a + CHUNK] @ Q.T
        r, k = np.divmod(np.flatnonzero(g >= floor), len(Q))
        d2 = (x2[r + a] + q2[k]) - 2.0 * g[r, k]
        keep = d2 <= tau2
        near = np.flatnonzero(np.abs(d2 - tau2) <= BOUNDARY)
        for qi in np.unique(k[near]):
            at = near[k[near] == qi]
            rows = r[at] + a
            keep[at] = oracle_hits(X, x2[rows], Q[qi], rows, tau2)
        yield r[keep] + a, k[keep]


def match_counts(X: np.ndarray, x2: np.ndarray, col: np.ndarray, n_cols: int,
                 Q: np.ndarray, tau: float) -> np.ndarray:
    """Exact per-column count of query vectors with a match in the column;
    ``col`` labels each row of ``X``."""
    got = np.zeros((len(Q), n_cols), dtype=bool)
    for rows, qs in hits(X, x2, Q, tau):
        got[qs, col[rows]] = True
    return got.sum(axis=0)


def pairs(X: np.ndarray, x2: np.ndarray, Q: np.ndarray,
          tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Every (query vector, row of ``X``) pair within distance τ, as
    ``(q_idx, x_idx)`` sorted by query vector, then row: ``exact_scan.pairs``."""
    found = list(hits(X, x2, Q, tau))
    x = np.concatenate([rows for rows, _ in found])
    q = np.concatenate([qs for _, qs in found])
    order = np.argsort(q, kind="stable")  # rows ascend across chunks already
    return q[order], x[order]
