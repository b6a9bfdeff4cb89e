"""Pivot selection and pivot mapping (§III-A, §III-D).

Pivot mapping sends a vector ``x`` to ``x' = [d(p_1,x), …, d(p_n,x)]``
for a pivot set ``P``. The lemmas of ``regions`` (triangle inequality)
then filter and match vectors using only pivot-space coordinates.

Pivot selection follows the PCA-based method of Mao et al. [20] the
paper adopts for its O(|S_V|) cost: good pivots are outliers, and the
points with extreme projections along the top principal components are
exactly the outliers that spread the mapped vectors.
"""
from __future__ import annotations

import numpy as np

__all__ = ["select_pivots", "pivot_map"]

#: Rows of ``X`` that pivot selection samples: the PCA runs on at most these.
SAMPLE = 4096


def select_pivots(X: np.ndarray, n_pivots: int, *, seed: int = 0) -> np.ndarray:
    """PCA-based pivot selection: (n_pivots, dim) rows drawn from ``X``.

    For each of the top principal components (cycled if ``n_pivots``
    exceeds the rank), the not-yet-chosen sample point with the largest
    absolute projection is picked — an outlier along that axis. At most
    one pivot is taken per distinct sample row, so fewer than
    ``n_pivots`` rows come back when the sample has fewer distinct rows.
    Raises ``ValueError`` for an empty ``X`` or ``n_pivots < 1``.
    """
    if n_pivots < 1:
        raise ValueError(f"n_pivots must be at least 1, got {n_pivots!r}")
    if len(X) == 0:
        raise ValueError("cannot select pivots from an empty dataset")
    g = np.random.default_rng(seed)
    idx = np.arange(len(X)) if len(X) <= SAMPLE else g.choice(len(X), SAMPLE, False)
    S = X[idx]
    centered = S - S.mean(axis=0)
    # Top components via SVD of the (sample, dim) matrix.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    chosen: list[int] = []
    comp = 0
    n_comp = vt.shape[0]
    while len(chosen) < n_pivots:
        proj = np.abs(centered @ vt[comp % n_comp])
        comp += 1
        fresh = (
            int(j) for j in np.argsort(-proj)
            if not np.any(np.all(S[chosen] == S[j], axis=1))
        )
        j = next(fresh, None)
        if j is None:  # every sample row is a copy of a chosen pivot
            break
        chosen.append(j)
    return S[chosen].copy()


def pivot_map(X: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Map vectors to the pivot space: (n, |P|) matrix of distances."""
    # ||x - p||^2 = ||x||^2 + ||p||^2 - 2 x·p, computed blockwise.
    x2 = np.einsum("ij,ij->i", X, X)[:, None]
    p2 = np.einsum("ij,ij->i", pivots, pivots)[None, :]
    d2 = x2 + p2 - 2.0 * (X @ pivots.T)
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)
