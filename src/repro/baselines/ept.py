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

A pair matches as in ``baselines.exact_scan`` (``scan.settle``).
"""
from __future__ import annotations

import numpy as np

from repro.core.pexeso import SearchResult, check_labels, check_search, check_unit_rows, t_abs
from repro.core.pivots import pivot_map, select_pivots
from repro.core.regions import lemma1_survives
from repro.core.scan import BOUNDARY, settle

__all__ = ["PivotTable"]


class PivotTable:
    """EPT: pre-computed pivot distances for all target vectors, and each
    column's rows. ``X`` and ``col_of_vector`` are checked as
    ``PexesoIndex`` checks them."""

    def __init__(
        self,
        X: np.ndarray,
        col_of_vector: np.ndarray,
        n_cols: int,
        *,
        n_pivots: int = 5,
        seed: int = 0,
    ) -> None:
        col = check_labels(X, col_of_vector, n_cols)
        self.x2 = check_unit_rows("X", X)
        self.X = X
        self.n_cols = n_cols
        self.pivots = select_pivots(X, n_pivots, seed=seed)
        self.Xp = pivot_map(X, self.pivots)
        #: (column, its rows) for every column that has rows.
        self.col_rows = [(int(c), np.flatnonzero(col == c)) for c in np.unique(col)]

    def search(self, Q: np.ndarray, tau: float, T: float) -> SearchResult:
        """EPT workflow: for each query vector and each column, pivot-filter
        the column's rows, exact-distance the survivors and count one match
        per (q, column); columns that reach T are skipped thereafter."""
        check_search(Q, tau, self.X.shape[1])
        T_abs = t_abs(T, len(Q))
        counts = np.zeros(self.n_cols, dtype=np.int64)
        joinable: set[int] = set()
        n_dist = 0
        tau2 = tau * tau
        Qp = pivot_map(Q, self.pivots)
        for qi in range(len(Q)):
            q, qp = Q[qi], Qp[qi]
            q2 = q @ q
            for col, rows in self.col_rows:
                if col in joinable:
                    continue  # early termination
                sub = rows[np.all(lemma1_survives(self.Xp[rows], qp, tau), axis=1)]
                if len(sub) == 0:
                    continue
                d2 = self.x2[sub] + q2 - 2.0 * (self.X[sub] @ q)
                n_dist += len(sub)
                # Most columns miss outright, so settle runs only on the others.
                if d2.min() <= tau2 + BOUNDARY and np.any(
                    settle(d2, tau2, self.X, self.x2[sub], q, sub)
                ):
                    counts[col] += 1
                    if counts[col] >= T_abs:
                        joinable.add(col)
        return SearchResult(
            joinable=joinable,
            match_counts=counts,
            n_distance=n_dist,
            plan="ept",
        )
