"""PQ baseline: product-quantization range search (§VI-A, [16], [21]).

Reimplements the nanopq workflow offline: the vector space is split
into ``n_subspaces`` contiguous sub-vectors; each subspace gets a
k-means codebook; a target vector is encoded as one code per subspace.
A query builds an asymmetric-distance (ADC) lookup table — squared
distance from each query sub-vector to each centroid — and a vector's
distance is *estimated* as the sum of table entries for its codes. The
range query returns vectors whose estimated distance is within an
inflated radius; it is approximate in both directions (false accepts
and false drops), which is exactly why Table IV shows "our join with
PQ-85" losing precision and recall.

``calibrate_radius_scale`` tunes the radius inflation so the range
query reaches a target recall (PQ-75 / PQ-85 in §VI-E).
"""
from __future__ import annotations

import numpy as np

from repro.baselines import exact_scan
from repro.core.pexeso import check_labels, check_search, check_unit_rows, column_counts, t_abs

__all__ = ["kmeans", "PQIndex", "calibrate_radius_scale"]


def kmeans(
    X: np.ndarray, k: int, *, n_iter: int = 15, seed: int = 0
) -> np.ndarray:
    """Plain Lloyd k-means (numpy); returns (k, dim) centroids."""
    g = np.random.default_rng(seed)
    k = min(k, len(X))
    centroids = X[g.choice(len(X), size=k, replace=False)].copy()
    for _ in range(n_iter):
        d2 = (
            np.einsum("ij,ij->i", X, X)[:, None]
            + np.einsum("ij,ij->i", centroids, centroids)[None, :]
            - 2.0 * X @ centroids.T
        )
        assign = np.argmin(d2, axis=1)
        for j in range(k):
            members = X[assign == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
    return centroids


class PQIndex:
    """Product quantizer + encoded database. ``X`` and ``col_of_vector``
    are checked as ``PexesoIndex`` checks them."""

    def __init__(
        self,
        X: np.ndarray,
        col_of_vector: np.ndarray,
        n_cols: int,
        *,
        n_subspaces: int = 5,
        n_codes: int = 32,
        seed: int = 0,
    ) -> None:
        self.col = check_labels(X, col_of_vector, n_cols)
        check_unit_rows("X", X)
        self.n_cols = n_cols
        dim = X.shape[1]
        if dim % n_subspaces != 0:
            raise ValueError(f"dim {dim} not divisible by {n_subspaces} subspaces")
        self.ds = dim // n_subspaces
        self.n_subspaces = n_subspaces
        self.codebooks = [
            kmeans(X[:, i * self.ds : (i + 1) * self.ds], n_codes, seed=seed + i)
            for i in range(n_subspaces)
        ]
        self.codes = np.stack(
            [
                np.argmin(
                    np.linalg.norm(
                        X[:, i * self.ds : (i + 1) * self.ds][:, None, :]
                        - self.codebooks[i][None, :, :],
                        axis=2,
                    ),
                    axis=1,
                )
                for i in range(self.n_subspaces)
            ],
            axis=1,
        )  # (n, n_subspaces)

    def estimated_d2(self, q: np.ndarray) -> np.ndarray:
        """ADC estimated squared distance from q to every encoded vector: per
        subspace, the squared distance from q's sub-vector to each centroid
        (the lookup table), summed over the vector's codes."""
        est = np.zeros(len(self.codes))
        for i, codebook in enumerate(self.codebooks):
            diff = codebook - q[i * self.ds : (i + 1) * self.ds]
            est += np.einsum("ij,ij->i", diff, diff)[self.codes[:, i]]
        return est

    def range_query(self, q: np.ndarray, tau: float, scale: float) -> np.ndarray:
        """Approximate: vectors with estimated distance <= scale · τ."""
        return np.flatnonzero(self.estimated_d2(q) <= (scale * tau) ** 2)

    def search(self, Q: np.ndarray, tau: float, T: float, *, scale: float = 1.0) -> set[int]:
        """PQ workflow: one approximate range query per query vector; the
        columns hit by at least T · |Q| of them."""
        check_search(Q, tau, self.ds * self.n_subspaces)
        T_abs = t_abs(T, len(Q))
        match = column_counts(self.col, self.n_cols, (self.range_query(q, tau, scale) for q in Q))
        return set(np.flatnonzero(match >= T_abs).tolist())


def calibrate_radius_scale(
    pq: PQIndex,
    X: np.ndarray,
    Q: np.ndarray,
    tau: float,
    target_recall: float,
    *,
    scales: np.ndarray | None = None,
) -> float:
    """Smallest radius scale whose range-query recall ≥ target.

    Recall is the share of the sample workload ``Q``'s true pairs
    (``exact_scan.pairs``) that the range query returns (the §VI-E
    procedure for PQ-75/PQ-85).
    """
    if scales is None:
        scales = np.linspace(0.5, 3.0, 26)
    qi, xi = exact_scan.pairs(Q, X, tau)
    est = np.stack([pq.estimated_d2(q) for q in Q])[qi, xi]  # of the true pairs
    for scale in scales:
        if len(est) == 0 or np.mean(est <= (float(scale) * tau) ** 2) >= target_recall:
            return float(scale)
    return float(scales[-1])
