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

from repro.core.pexeso import check_query, check_unit_rows

__all__ = ["kmeans", "PQIndex", "pq_search", "calibrate_radius_scale"]


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
    """Product quantizer + encoded database."""

    def __init__(
        self,
        X: np.ndarray,
        *,
        n_subspaces: int = 5,
        n_codes: int = 32,
        seed: int = 0,
    ) -> None:
        check_unit_rows("X", X)
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

    def adc_table(self, q: np.ndarray) -> list[np.ndarray]:
        """Squared distances from each query sub-vector to each centroid."""
        return [
            np.einsum(
                "ij,ij->i",
                self.codebooks[i] - q[i * self.ds : (i + 1) * self.ds],
                self.codebooks[i] - q[i * self.ds : (i + 1) * self.ds],
            )
            for i in range(self.n_subspaces)
        ]

    def estimated_d2(self, q: np.ndarray) -> np.ndarray:
        """ADC estimated squared distance from q to every encoded vector."""
        tables = self.adc_table(q)
        est = np.zeros(len(self.codes))
        for i in range(self.n_subspaces):
            est += tables[i][self.codes[:, i]]
        return est

    def range_query(self, q: np.ndarray, tau: float, scale: float) -> np.ndarray:
        """Approximate: vectors with estimated distance <= scale · τ."""
        return np.flatnonzero(self.estimated_d2(q) <= (scale * tau) ** 2)


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

    Recall is measured against the exact range result over the sample
    workload ``Q`` (the §VI-E procedure for PQ-75/PQ-85).
    """
    if scales is None:
        scales = np.linspace(0.5, 3.0, 26)
    true_hits = []
    for q in Q:
        d = np.linalg.norm(X - q, axis=1)
        true_hits.append(set(np.flatnonzero(d <= tau).tolist()))
    for scale in scales:
        got, want = 0, 0
        for q, truth in zip(Q, true_hits):
            if not truth:
                continue
            hits = set(pq.range_query(q, tau, float(scale)).tolist())
            got += len(hits & truth)
            want += len(truth)
        if want == 0 or got / want >= target_recall:
            return float(scale)
    return float(scales[-1])


def pq_search(
    pq: PQIndex,
    col_of_vector: np.ndarray,
    n_cols: int,
    Q: np.ndarray,
    tau: float,
    T_abs: int,
    *,
    scale: float = 1.0,
) -> set[int]:
    """PQ workflow: approximate range query per query vector."""
    check_query(Q, tau)
    counts = np.zeros(n_cols, dtype=np.int64)
    joinable: set[int] = set()
    for q in Q:
        hits = pq.range_query(q, tau, scale)
        for col in np.unique(col_of_vector[hits]).tolist():
            if col in joinable:
                continue
            counts[col] += 1
            if counts[col] >= T_abs:
                joinable.add(col)
    return joinable
