"""Column partitioning for out-of-core data lakes (§IV).

Two of the partitioners in §VI-E's Fig. 9 comparison:

- :func:`jsd_kmeans` — the paper's proposal: k-means over column
  probability histograms with Jensen–Shannon divergence as the metric;
- :func:`random_partition` — uniform random assignment.

All return ``{col_id: partition}`` with partitions in ``[0, k)``.
"""
from __future__ import annotations

import numpy as np

from repro.partition.histogram import histograms
from repro.partition.jsd import jsd_matrix

__all__ = ["jsd_kmeans", "random_partition"]


def jsd_kmeans(
    column_vectors: dict[str, np.ndarray],
    k: int,
    *,
    n_iter: int = 10,
    seed: int = 0,
) -> dict[str, int]:
    """§IV clustering: histograms → k centers → assign by min JSD.

    Follows the paper's loop: random initial centers, assignment by
    minimum JSD, centers updated to the mean histogram, ``n_iter``
    rounds (the paper's user-defined t). O(|S|·k·t).
    """
    ids, H = histograms(column_vectors)
    g = np.random.default_rng(seed)
    k = min(k, len(ids))
    centers = H[g.choice(len(ids), size=k, replace=False)].copy()
    assign = np.zeros(len(ids), dtype=np.int64)
    for _ in range(n_iter):
        assign = np.argmin(jsd_matrix(H, centers), axis=1)
        for j in range(k):
            members = H[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
                centers[j] /= centers[j].sum()
    return {cid: int(a) for cid, a in zip(ids, assign)}


def random_partition(
    column_vectors: dict[str, np.ndarray], k: int, *, seed: int = 0
) -> dict[str, int]:
    """Uniform random column → partition assignment."""
    g = np.random.default_rng(seed)
    ids = sorted(column_vectors)
    return {cid: int(g.integers(0, k)) for cid in ids}

