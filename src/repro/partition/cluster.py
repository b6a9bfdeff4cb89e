"""Column partitioning for out-of-core data lakes (§IV).

Two of the partitioners in §VI-E's Fig. 9 comparison:

- :func:`jsd_kmeans` — the paper's proposal: k-means over column
  probability histograms with Jensen–Shannon divergence as the metric;
- :func:`random_partition` — uniform random assignment.

Both take ``{col_id: histogram}`` (see ``partition.histogram``) and
return ``{col_id: partition}`` with partitions in ``[0, k)``;
:func:`split_columns` turns such an assignment into per-partition arrays.
"""
from __future__ import annotations

import numpy as np

from repro.partition.jsd import jsd_matrix

__all__ = ["jsd_kmeans", "random_partition", "split_columns"]

#: k-means rounds, the paper's user-defined t.
N_ITER = 10


def jsd_kmeans(
    column_histograms: dict[str, np.ndarray],
    k: int,
    *,
    seed: int = 0,
) -> dict[str, int]:
    """§IV clustering: k centers → assign by min JSD.

    Follows the paper's loop: random initial centers, assignment by
    minimum JSD, centers updated to the mean histogram, ``N_ITER``
    rounds (the paper's user-defined t). O(|S|·k·t).
    """
    ids = sorted(column_histograms)
    H = np.stack([column_histograms[c] for c in ids])
    log_H = np.log(H)
    g = np.random.default_rng(seed)
    k = min(k, len(ids))
    centers = H[g.choice(len(ids), size=k, replace=False)].copy()
    assign = np.zeros(len(ids), dtype=np.int64)
    for _ in range(N_ITER):
        assign = np.argmin(jsd_matrix(H, centers, log_H), axis=1)
        for j in range(k):
            members = H[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
                centers[j] /= centers[j].sum()
    return {cid: int(a) for cid, a in zip(ids, assign)}


def random_partition(
    column_histograms: dict[str, np.ndarray], k: int, *, seed: int = 0
) -> dict[str, int]:
    """Uniform random column → partition assignment."""
    g = np.random.default_rng(seed)
    ids = sorted(column_histograms)
    return {cid: int(g.integers(0, k)) for cid in ids}


def split_columns(
    column_vectors: dict, assign: dict
) -> list[tuple[list, np.ndarray, np.ndarray]]:
    """``(cols, X, col_of)`` of each non-empty partition of ``assign``
    (``{col_id: partition}``), in partition order: the partition's column
    ids sorted, their vectors from ``column_vectors`` stacked in that
    order, and each row's index into ``cols``."""
    parts = []
    for part in sorted(set(assign.values())):
        cols = sorted(c for c, p in assign.items() if p == part)
        X = np.vstack([column_vectors[c] for c in cols])
        col_of = np.repeat(np.arange(len(cols)), [len(column_vectors[c]) for c in cols])
        parts.append((cols, X, col_of))
    return parts
