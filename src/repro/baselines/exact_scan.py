"""Brute-force joinability: the naive method of §III and the test oracle.

Computes every query-target distance (``|Q| · |S_V|`` evaluations), the
matching record pairs and the exact per-column match counts. All other
methods must agree with this on joinable sets (PEXESO, CTREE, EPT
exactly; PQ approximately) and PEXESO also on the record pairs.
"""
from __future__ import annotations

import numpy as np

__all__ = ["pairs", "match_counts", "joinable_columns"]


def _hits(Q: np.ndarray, X: np.ndarray, tau: float):
    """Per query vector, the mask of rows of ``X`` within distance τ."""
    tau2 = tau * tau
    x2 = np.einsum("ij,ij->i", X, X)
    for q in Q:
        yield x2 + q @ q - 2.0 * (X @ q) <= tau2


def pairs(Q: np.ndarray, X: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The record mapping: every (query vector, row of ``X``) pair with
    distance ≤ τ, as arrays ``(q_idx, x_idx)`` sorted by query vector, then row."""
    return np.nonzero(np.array(list(_hits(Q, X, tau)), dtype=bool).reshape(len(Q), len(X)))


def match_counts(
    Q: np.ndarray, X: np.ndarray, col_of_vector: np.ndarray, n_cols: int, tau: float
) -> np.ndarray:
    """Exact per-column count of query vectors with ≥1 match in the column."""
    counts = np.zeros(n_cols, dtype=np.int64)
    for hit in _hits(Q, X, tau):
        counts[np.unique(col_of_vector[hit])] += 1
    return counts


def joinable_columns(
    Q: np.ndarray,
    X: np.ndarray,
    col_of_vector: np.ndarray,
    n_cols: int,
    tau: float,
    T_abs: int,
) -> set[int]:
    """Exact joinable column set at absolute threshold ``T_abs``."""
    counts = match_counts(Q, X, col_of_vector, n_cols, tau)
    return set(np.flatnonzero(counts >= T_abs).tolist())
