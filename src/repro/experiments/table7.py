"""Table VII: search-time grid T × τ for CTREE, EPT, PEXESO-H, PEXESO.

In-memory: OPEN-lite and SWDC-lite, each method's index built once and
searched across the 4×4 (T, τ) grid.

Out-of-core (LWDC-lite): columns are split into ``N_PARTS`` partitions
by the §IV JSD clustering; each partition's index is built once and
*pickled to disk*; a search loads one partition's index at a time
(the paper's "load each single PEXESO into main memory at a time"),
searches it, and merges the per-partition joinable sets. Reported
times include the deserialization overhead, as in the paper.

τ here is the paper's raw grid — a percentage of the maximum distance
2.0 — because these tables measure the search engines' filtering
regime, not semantic match quality (which is where the ×4 embedder
calibration of ``experiments.common`` applies).
"""
from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.baselines.cover_tree import BallTree, ctree_search
from repro.baselines.ept import PivotTable, ept_search
from repro.core.pexeso import PexesoIndex, t_abs
from repro.experiments.common import (
    PAPER_T_GRID,
    PAPER_TAU_GRID,
    lake_arrays,
    lite_lake,
)
from repro.embedding.hashing import MAX_DISTANCE
from repro.partition.cluster import jsd_kmeans
from repro.partition.histogram import histograms

__all__ = ["run_inmemory", "run_outofcore", "format_table7", "METHODS", "PAPER_RANGES"]

METHODS = ["CTREE", "EPT", "PEXESO-H", "PEXESO"]
N_PARTS = 10

#: Paper's Table VII value ranges (seconds) per dataset/method, for the
#: shape comparison in EXPERIMENTS.md.
PAPER_RANGES = {
    "OPEN": {"CTREE": (656, 934), "EPT": (704, 973), "PEXESO-H": (66.7, 279),
             "PEXESO": (32.5, 68.1)},
    "SWDC": {"CTREE": (567, 831), "EPT": (577, 829), "PEXESO-H": (130, 157),
             "PEXESO": (9.8, 13.6)},
    "LWDC": {"CTREE": (7200, 7200), "EPT": (7200, 7200),
             "PEXESO-H": (3567, 7200), "PEXESO": (456, 635)},
}


@dataclass
class EffRow:
    dataset: str
    T: float
    tau_pct: float
    method: str
    seconds: float
    n_distance: int


@dataclass
class _Indexes:
    """Every method's index over one repository (or one partition)."""

    col: np.ndarray
    n_cols: int
    ctree: BallTree
    ept: PivotTable
    pexeso: PexesoIndex

    @classmethod
    def build(cls, X, col, n_cols) -> "_Indexes":
        return cls(col, n_cols, BallTree(X), PivotTable(X, n_pivots=5),
                   PexesoIndex(X, col, n_cols, n_pivots=5, m=4))

    def search(self, method, Q, tau, Ta, T) -> tuple[set[int], int]:
        """(joinable column indexes, distance computations) of ``method``."""
        if method == "CTREE":
            return ctree_search(self.ctree, self.col, self.n_cols, Q, tau, Ta)
        if method == "EPT":
            return ept_search(self.ept, self.col, self.n_cols, Q, tau, Ta)
        r = self.pexeso.search(Q, tau, T, use_inverted=method == "PEXESO")
        return r.joinable, r.n_distance


def _check_agree(answers: dict[str, set], T: float, pct: float) -> None:
    """Raise unless every exact method returned the same joinable set."""
    if len(set(map(frozenset, answers.values()))) != 1:
        raise AssertionError(
            f"exact methods disagree at T={T} τ={pct}: "
            f"{ {k: len(v) for k, v in answers.items()} }"
        )


def _search_grid(
    dataset: str, Q: np.ndarray, parts: list[tuple], methods, t_grid, tau_grid
) -> list[EffRow]:
    """Time every method over the T × τ grid on ``parts``, a list of
    ``(column ids, load)``: ``load()`` returns the partition's ``_Indexes``
    inside the timer, and the partitions' joinable sets are merged.

    Raises ``AssertionError`` if the methods' merged joinable sets differ.
    """
    rows: list[EffRow] = []
    for T in t_grid:
        Ta = t_abs(T, len(Q))
        for pct in tau_grid:
            tau = pct * MAX_DISTANCE
            answers = {}
            for method in methods:
                t0 = time.perf_counter()
                joinable, n_dist = set(), 0
                for cols, load in parts:  # one partition in memory at a time
                    hit, n = load().search(method, Q, tau, Ta, T)
                    joinable |= {cols[i] for i in hit}
                    n_dist += n
                dt = time.perf_counter() - t0
                answers[method] = joinable
                rows.append(EffRow(dataset, T, pct, method, dt, n_dist))
            _check_agree(answers, T, pct)
    return rows


def run_inmemory(
    *,
    datasets=("open", "swdc"),
    methods=METHODS,
    t_grid=PAPER_T_GRID,
    tau_grid=PAPER_TAU_GRID,
    seed: int = 0,
) -> list[EffRow]:
    """The left 2/3 of Table VII on the lite datasets.

    Raises ``AssertionError`` if the methods' joinable sets differ.
    """
    rows: list[EffRow] = []
    for kind in datasets:
        Q, X, col, uniq = lake_arrays(kind, seed)
        indexes = _Indexes.build(X, col, len(uniq))
        parts = [(range(len(uniq)), lambda: indexes)]
        rows += _search_grid(kind.upper() + "-lite", Q, parts, methods, t_grid, tau_grid)
    return rows


# ---------------- out-of-core (LWDC-lite) ----------------
def _load(path: str) -> _Indexes:
    with open(path, "rb") as f:
        return pickle.load(f)


def _build_partition_indexes(tmpdir: str, seed: int = 0) -> list[tuple]:
    """Partition LWDC-lite by JSD clustering; pickle every method's index
    per partition to disk. Returns ``(column ids, load)`` per partition."""
    lake = lite_lake("lwdc", seed)
    col_vecs = lake.column_matrices()
    assign = jsd_kmeans(dict(zip(*histograms(col_vecs))), N_PARTS, seed=seed)
    parts = []
    for part in range(N_PARTS):
        cols = sorted(c for c, p in assign.items() if p == part)
        if not cols:
            continue
        X = np.vstack([col_vecs[c] for c in cols])
        col_of = np.concatenate(
            [np.full(len(col_vecs[c]), i) for i, c in enumerate(cols)]
        )
        path = os.path.join(tmpdir, f"part{part}.pkl")
        with open(path, "wb") as f:
            pickle.dump(_Indexes.build(X, col_of, len(cols)), f)
        parts.append((cols, partial(_load, path)))
    return parts


def run_outofcore(
    *,
    methods=METHODS,
    t_grid=PAPER_T_GRID,
    tau_grid=PAPER_TAU_GRID,
    seed: int = 0,
) -> list[EffRow]:
    """The right 1/3 of Table VII: partitioned LWDC-lite with disk loads.

    Raises ``AssertionError`` if the methods' merged joinable sets differ.
    """
    Q = lite_lake("lwdc", seed).query_vectors
    with tempfile.TemporaryDirectory() as tmpdir:
        parts = _build_partition_indexes(tmpdir, seed)
        return _search_grid("LWDC-lite", Q, parts, methods, t_grid, tau_grid)


def format_table7(rows: list[EffRow]) -> str:
    datasets = sorted({r.dataset for r in rows})
    lines = [
        f"{'T':>4s} {'τ':>4s} "
        + "  ".join(
            f"{ds}: " + "/".join(METHODS) + " (s)" for ds in datasets
        )
    ]
    keyed = {(r.dataset, r.T, r.tau_pct, r.method): r for r in rows}
    t_vals = sorted({r.T for r in rows})
    tau_vals = sorted({r.tau_pct for r in rows})
    for T in t_vals:
        for pct in tau_vals:
            cells = []
            for ds in datasets:
                vals = []
                for mtd in METHODS:
                    r = keyed.get((ds, T, pct, mtd))
                    vals.append(f"{r.seconds:7.3f}" if r else "      -")
                cells.append(" ".join(vals))
            lines.append(f"{int(T*100):>3d}% {int(pct*100):>3d}% " + "  ".join(cells))
    return "\n".join(lines)
