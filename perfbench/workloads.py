"""The benchmark's workloads: lakes, seeded query streams, exact answers.

A workload is one synthetic lake (a repo preset, built at its own fixed
seed), one raw τ from the paper's grid and T = 60%. The benchmark seed
only chooses the query stream, so every seed searches the same lake.
The program sees vectors only: the strings are perturbed and embedded
here, with the lake's own embedder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import exact_scan
from repro.core.pexeso import t_abs
from repro.embedding.hashing import MAX_DISTANCE, embed_many
from repro.embedding.perturb import perturb
from repro.lake.generator import (
    LWDC_LITE,
    OPEN_LITE,
    SWDC_LITE,
    DataLake,
    make_lake,
    normalize,
)

__all__ = ["Workload", "WORKLOADS", "LakeArrays", "query_stream", "exact_answer"]

#: Queries per stream: one pass over the stream is longer than a run, so
#: a run's latency median is taken over distinct query columns.
N_QUERIES = 96
#: Upper end of the per-query share of strings that get perturbed.
MAX_PERTURB_RATE = 0.6
_GOLDEN = (5**0.5 - 1) / 2
_SQRT2 = 2**0.5 - 1


@dataclass(frozen=True)
class Workload:
    name: str
    preset: dict
    tau_pct: float  # raw τ as a share of the maximum distance 2.0
    spark: bool
    T: float = 0.6
    n_pivots: int = 5
    m: int = 4
    n_parts: int = 10  # lwdc-spark only: JSD partitions (§IV)

    @property
    def tau(self) -> float:
        return self.tau_pct * MAX_DISTANCE


# Why each workload is here: see perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("swdc-search", SWDC_LITE, 0.06, spark=False),
        Workload("open-search", OPEN_LITE, 0.08, spark=False),
        Workload("lwdc-spark", LWDC_LITE, 0.06, spark=True),
    )
}


class LakeArrays:
    """A lake and its repository as the arrays the engines take."""

    def __init__(self, wl: Workload) -> None:
        self.lake: DataLake = make_lake(**wl.preset)
        sizes = [len(c) for c in self.lake.columns]
        self.X = np.vstack([c.vectors for c in self.lake.columns])
        self.col = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        self.n_cols = len(sizes)
        self.col_ids = [c.col_id for c in self.lake.columns]


def query_stream(data: LakeArrays, seed: int, n: int = N_QUERIES) -> list[np.ndarray]:
    """``n`` query columns from ``seed``, in the order they are sent.

    The first is the lake's planted query column; the rest are copies of
    repository columns with a share of their strings perturbed (typos,
    abbreviations, reformatting) before embedding. The source column and
    the share follow Kronecker sequences from a seeded start, so every
    prefix of the stream covers the lake's columns (joinable ones come
    first in a lake) and the perturbation range evenly, and a run's mix
    of cheap and costly queries does not hinge on the seed.
    """
    lake = data.lake
    g = np.random.default_rng(seed)
    u, v = g.random(2)
    out = [lake.query_vectors]
    for k in range(1, n):
        col = lake.columns[int((u + k * _GOLDEN) % 1.0 * len(lake.columns))]
        rate = (v + k * _SQRT2) % 1.0 * MAX_PERTURB_RATE
        strings = [perturb(s, g) if g.random() < rate else s for s in col.strings]
        out.append(
            embed_many([normalize(s) for s in strings], model=lake.model, dim=lake.dim)
        )
    return out


def exact_answer(data: LakeArrays, wl: Workload, Q: np.ndarray) -> set[int]:
    """The joinable set by ``baselines.exact_scan``: what every path must return."""
    return exact_scan.joinable_columns(
        Q, data.X, data.col, data.n_cols, wl.tau, t_abs(wl.T, len(Q))
    )
