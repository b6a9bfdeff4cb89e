"""Scan or index: the planner's calibration and its nine-cell check.

``core/cost.PLAN_COEF`` holds the seconds per unit of each planner term.
:func:`measure` times both plans, and the planned search, per query
column over the nine cells of ROADMAP item 3: SWDC-lite, OPEN-lite and
LWDC-lite, each one in-memory index (|P| = 5, m = 4), at raw τ ∈
{2, 6, 8} % of the maximum distance and T = 60 %. :func:`fit` refits
the coefficients from those times: a least-squares fit of each plan's
relative error.

The query columns follow the benchmark's stream: the lake's planted
query column, then copies of repository columns with a random share of
their strings perturbed before embedding.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core import cost
from repro.core.pexeso import PexesoIndex
from repro.core.pivots import pivot_map
from repro.embedding.hashing import MAX_DISTANCE, embed_many
from repro.embedding.perturb import perturb
from repro.experiments.common import lake_arrays, lite_lake
from repro.lake.generator import normalize

__all__ = ["CELLS", "Sample", "query_columns", "measure", "fit", "cell_table",
           "format_cells"]

#: (lake, raw τ as a share of the maximum distance) of ROADMAP item 3.
CELLS = [(kind, pct) for kind in ("swdc", "open", "lwdc") for pct in (0.02, 0.06, 0.08)]
T = 0.6
#: Upper end of the share of a copied column's strings that get perturbed.
MAX_PERTURB_RATE = 0.6


@dataclass
class Sample:
    """One query column in one cell: the planner's inputs and the best
    seconds of each plan and of the planned search."""

    lake: str
    tau_pct: float
    n_q: int
    n_x: int
    dim: int
    rows: float  # cost.region_rows
    index_s: float
    scan_s: float
    auto_s: float
    auto_plan: str


def query_columns(kind: str, n: int, seed: int = 1) -> list[np.ndarray]:
    """``n`` query columns for the ``kind`` lake (see the module notes)."""
    lake = lite_lake(kind)
    g = np.random.default_rng(seed)
    out = [lake.query_vectors]
    for c in g.choice(len(lake.columns), n - 1, replace=False):
        rate = g.random() * MAX_PERTURB_RATE
        strings = [perturb(s, g) if g.random() < rate else s
                   for s in lake.columns[c].strings]
        out.append(embed_many([normalize(s) for s in strings], model=lake.model,
                              dim=lake.dim))
    return out[:n]


def _best(fns: dict, repeats: int) -> dict[str, float]:
    """Best seconds of each call. The calls take turns, so a slow spell
    of the host falls on all of them alike, and the turn order rotates on
    each repeat, so no call always runs after the same one (a search
    right after a scan finds the caches as the scan left them)."""
    names = list(fns)
    best = dict.fromkeys(names, float("inf"))
    for r in range(repeats):
        k = r % len(names)
        for name in names[k:] + names[:k]:
            t0 = time.perf_counter()
            fns[name]()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def measure(*, cells=CELLS, n_queries: int = 24, repeats: int = 3,
            seed: int = 1) -> list[Sample]:
    """Time both plans and the planned search on every query column of
    every cell, best of ``repeats``; raise ``AssertionError`` if the plans
    disagree on a joinable set."""
    samples: list[Sample] = []
    for kind in dict.fromkeys(k for k, _ in cells):
        _, X, col, uniq = lake_arrays(kind)
        index = PexesoIndex(X, col, len(uniq), n_pivots=5, m=4)
        queries = query_columns(kind, n_queries, seed)
        for pct in (p for k, p in cells if k == kind):
            tau = pct * MAX_DISTANCE
            for Q in queries:
                res = {p: index.search(Q, tau, T, plan=p) for p in ("index", "scan", "auto")}
                if len({frozenset(r.joinable) for r in res.values()}) != 1:
                    raise AssertionError(f"plans disagree on {kind} at τ = {pct}")
                rows = cost.region_rows(index.marginals, pivot_map(Q, index.pivots), tau)
                t = _best({p: partial(index.search, Q, tau, T, plan=p) for p in res},
                          repeats)
                samples.append(Sample(kind.upper() + "-lite", pct, len(Q), len(X),
                                      X.shape[1], rows, t["index"], t["scan"],
                                      t["auto"], res["auto"].plan))
    return samples


def fit(samples: list[Sample]) -> dict[str, tuple[float, ...]]:
    """Per plan, the coefficients that minimise the squared relative error
    of the predicted seconds. Raises ``ValueError`` if one is negative:
    the model would then predict a cost that falls as its term grows."""
    out = {}
    for plan in cost.PLANS:
        t = np.array([s.index_s if plan == "index" else s.scan_s for s in samples])
        F = np.array([cost.plan_features(plan, s.n_q, s.n_x, s.dim, s.rows)
                      for s in samples]) / t[:, None]
        c = np.linalg.lstsq(F, np.ones(len(t)), rcond=None)[0]
        if c.min() < 0:
            raise ValueError(f"the {plan} plan fits a negative coefficient: {c.tolist()}")
        out[plan] = tuple(float(v) for v in c)
    return out


@dataclass
class Cell:
    lake: str
    tau_pct: float
    index_ms: float
    scan_ms: float
    auto_ms: float
    n_scan: int
    n: int

    @property
    def ratio(self) -> float:
        """The planned search over the better of the two plans."""
        return self.auto_ms / min(self.index_ms, self.scan_ms)


def cell_table(samples: list[Sample]) -> list[Cell]:
    """Median ms over each cell's query columns, per plan."""
    cells = []
    for key in dict.fromkeys((s.lake, s.tau_pct) for s in samples):
        ss = [s for s in samples if (s.lake, s.tau_pct) == key]
        med = lambda f: 1e3 * statistics.median(f(s) for s in ss)
        cells.append(Cell(*key, med(lambda s: s.index_s), med(lambda s: s.scan_s),
                          med(lambda s: s.auto_s),
                          sum(s.auto_plan == "scan" for s in ss), len(ss)))
    return cells


def format_cells(cells: list[Cell]) -> str:
    lines = [f"{'lake':10s} {'τ':>3s} {'PEXESO':>8s} {'scan':>8s} {'planned':>8s} "
             f"{'scan plans':>10s} {'planned/best':>12s}"]
    for c in cells:
        lines.append(
            f"{c.lake:10s} {int(round(c.tau_pct * 100)):>2d}% {c.index_ms:8.2f} "
            f"{c.scan_ms:8.2f} {c.auto_ms:8.2f} {c.n_scan:>5d} / {c.n:<2d} "
            f"{c.ratio:12.2f}"
        )
    return "\n".join(lines)
