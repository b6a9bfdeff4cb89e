"""EPT baseline: pivot-table scan (§VI-A, [27]).

A pivot table stores the pre-computed distances from every target
vector to a pivot set. A range query scans the vectors, skipping the
exact distance computation for any vector Lemma-1-filtered in the
pivot space (∃ pivot j: |d(x,p_j) - d(q,p_j)| > τ).

The scan is organized per column, like the paper's setup: every method
is "equipped with the early termination technique" that skips all the
vectors of a column once its joinability counter reaches T — which
requires column-granular processing. EPT loops in Python per (query
vector, column), with numpy inside, mirroring the paper's all-Python
implementations. The other competitors do not: CTREE runs one range
query per query vector over all columns, and PEXESO verifies all of a
query vector's candidate columns in one batched step.
"""
from __future__ import annotations

import numpy as np

from repro.core.pexeso import check_query, check_unit_rows
from repro.core.pivots import pivot_map, select_pivots
from repro.core.regions import lemma1_survives

__all__ = ["PivotTable", "ept_search"]


class PivotTable:
    """Pre-computed pivot distances for all target vectors."""

    def __init__(self, X: np.ndarray, *, n_pivots: int = 5, seed: int = 0) -> None:
        check_unit_rows("X", X)
        self.X = X
        self.pivots = select_pivots(X, n_pivots, seed=seed)
        self.Xp = pivot_map(X, self.pivots)


def ept_search(
    table: PivotTable,
    col_of_vector: np.ndarray,
    n_cols: int,
    Q: np.ndarray,
    tau: float,
    T_abs: int,
) -> tuple[set[int], int]:
    """EPT workflow; returns (joinable set, distance computations).

    For each query vector and each column: pivot-filter the column's
    vectors, exact-distance the survivors, count one match per
    (q, column); columns that reach T are skipped thereafter.
    """
    check_query(Q, tau)
    counts = np.zeros(n_cols, dtype=np.int64)
    joinable: set[int] = set()
    n_dist = 0
    col_rows = {
        int(c): np.flatnonzero(col_of_vector == c) for c in np.unique(col_of_vector)
    }
    Qp = pivot_map(Q, table.pivots)
    for qi in range(len(Q)):
        q, qp = Q[qi], Qp[qi]
        for col, rows in col_rows.items():
            if col in joinable:
                continue  # early termination
            sub = rows[np.all(lemma1_survives(table.Xp[rows], qp, tau), axis=1)]
            if len(sub) == 0:
                continue
            d = np.linalg.norm(table.X[sub] - q, axis=1)
            n_dist += len(sub)
            if np.any(d <= tau):
                counts[col] += 1
                if counts[col] >= T_abs:
                    joinable.add(col)
    return joinable, n_dist
