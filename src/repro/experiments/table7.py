"""Table VII: search-time grid T × τ for CTREE, EPT, PEXESO-H, PEXESO, SCAN.

Each method is one ``(engine class, search keywords)`` entry of
``_ENGINES``; PEXESO-H, PEXESO and SCAN share one ``PexesoIndex``.
PEXESO and PEXESO-H run the index plan, so they time Algorithm 2; SCAN
is the same index's exact GEMM scan (``plan="scan"``), the floor an
index has to beat. A lake is a list of partitions holding one index per
engine class; a method's timer loads only its own index of each
partition in turn, searches it and merges the joinable sets, so each
row's ``seconds`` is load plus search over the partitions.

In-memory (OPEN-lite, SWDC-lite): one partition, its indexes held in
memory. Out-of-core (LWDC-lite): ``N_PARTS`` partitions by the §IV JSD
clustering, each index pickled to its own file (a PEXESO file is a bare
``PexesoIndex``, as ``spark.joinable`` caches it) and loaded one at a
time, the paper's "load each single PEXESO into main memory at a time".

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

from repro.baselines.cover_tree import BallTree
from repro.baselines.ept import PivotTable
from repro.core.pexeso import PexesoIndex
from repro.experiments.common import (
    PAPER_T_GRID,
    PAPER_TAU_GRID,
    lake_arrays,
    lite_lake,
)
from repro.embedding.hashing import MAX_DISTANCE
from repro.partition.cluster import jsd_kmeans, split_columns
from repro.partition.histogram import histograms

__all__ = ["run_inmemory", "run_outofcore", "format_table7", "METHODS"]

N_PARTS = 10


@dataclass
class EffRow:
    dataset: str
    T: float
    tau_pct: float
    method: str
    seconds: float
    n_distance: int


#: method → (engine class, search keywords). Each engine is built as
#: ``cls(X, col_of_vector, n_cols)`` and searched as ``search(Q, tau, T, **kw)``.
_ENGINES = {
    "CTREE": (BallTree, {}),
    "EPT": (PivotTable, {}),
    "PEXESO-H": (PexesoIndex, {"use_inverted": False}),
    "PEXESO": (PexesoIndex, {"plan": "index"}),
    "SCAN": (PexesoIndex, {"plan": "scan"}),
}
METHODS = list(_ENGINES)


def _check_agree(answers: dict[str, set], T: float, pct: float) -> None:
    """Raise unless every exact method returned the same joinable set."""
    if len(set(map(frozenset, answers.values()))) != 1:
        raise AssertionError(
            f"exact methods disagree at T={T} τ={pct}: "
            f"{ {k: len(v) for k, v in answers.items()} }"
        )


def _indexed(parts: list[tuple], methods, keep) -> list[tuple]:
    """``(cols, {engine class: load})`` for each ``(cols, X, col_of)``
    partition: one index per engine class that ``methods`` use, handed to
    ``keep(name, index)``, which returns the ``load()`` a timer calls."""
    engines = dict.fromkeys(_ENGINES[m][0] for m in methods)
    return [
        (cols, {
            e: keep(f"part{p}_{e.__name__}", e(X, col_of, len(cols))) for e in engines
        })
        for p, (cols, X, col_of) in enumerate(parts)
    ]


def _search_grid(
    dataset: str, Q: np.ndarray, parts: list[tuple], methods, t_grid, tau_grid
) -> list[EffRow]:
    """Time every method over the T × τ grid on ``parts`` (see :func:`_indexed`).

    Raises ``AssertionError`` if the methods' merged joinable sets differ.
    """
    rows: list[EffRow] = []
    for T in t_grid:
        for pct in tau_grid:
            tau = pct * MAX_DISTANCE
            answers = {}
            for method in methods:
                engine, kw = _ENGINES[method]
                t0 = time.perf_counter()
                joinable, n_dist = set(), 0
                for cols, loads in parts:  # one index in memory at a time
                    res = loads[engine]().search(Q, tau, T, **kw)
                    joinable |= {cols[i] for i in res.joinable}
                    n_dist += res.n_distance
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
        parts = _indexed([(range(len(uniq)), X, col)], methods,
                         lambda name, index: lambda: index)
        rows += _search_grid(kind.upper() + "-lite", Q, parts, methods, t_grid, tau_grid)
    return rows


# ---------------- out-of-core (LWDC-lite) ----------------
def _load(path: str):
    with open(path, "rb") as f:
        return pickle.load(f)


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
    lake = lite_lake("lwdc", seed)
    col_vecs = lake.column_matrices()
    assign = jsd_kmeans(dict(zip(*histograms(col_vecs))), N_PARTS, seed=seed)
    with tempfile.TemporaryDirectory() as tmpdir:

        def to_disk(name, index):
            path = os.path.join(tmpdir, name + ".pkl")
            with open(path, "wb") as f:
                pickle.dump(index, f)
            return partial(_load, path)

        parts = _indexed(split_columns(col_vecs, assign), methods, to_disk)
        return _search_grid(
            "LWDC-lite", lake.query_vectors, parts, methods, t_grid, tau_grid
        )


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
