"""Shared experiment infrastructure: lakes, τ calibration, timing.

τ calibration: the paper expresses τ as a percentage of the maximum
distance (2 for unit vectors) and sweeps 2–8% with fastText/GloVe
embeddings, where misspelled strings sit within a few percent of each
other. Our hashing embedders (DESIGN.md §3) are honest bags of char
n-grams, whose perturbed-pair distances sit ~4× farther out
(typos ≈ 0.3–0.7 of max-2.0, distractors ≥ 0.8). We therefore map each
paper grid point p% to an operating point 4·p% of the maximum distance
(TAU_FACTOR = 4), so the paper's {2,4,6,8}% rows correspond to
{8,16,24,32}% here — the same sweep of the same knob, calibrated to
the embedder's distance scale. EXPERIMENTS.md reports both labels.
"""
from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from repro.embedding.hashing import MAX_DISTANCE
from repro.lake.generator import DataLake, LWDC_LITE, OPEN_LITE, SWDC_LITE, make_lake

__all__ = [
    "TAU_FACTOR",
    "tau_abs",
    "PAPER_TAU_GRID",
    "PAPER_T_GRID",
    "lite_lake",
    "lake_arrays",
    "timed",
]

TAU_FACTOR = 4.0
PAPER_TAU_GRID = [0.02, 0.04, 0.06, 0.08]  # paper row labels (2–8%)
PAPER_T_GRID = [0.2, 0.4, 0.6, 0.8]


def tau_abs(paper_pct: float) -> float:
    """Absolute τ for a paper-grid percentage, after calibration."""
    return paper_pct * TAU_FACTOR * MAX_DISTANCE


_PRESETS = {"open": OPEN_LITE, "swdc": SWDC_LITE, "lwdc": LWDC_LITE}


@lru_cache(maxsize=None)
def lite_lake(kind: str, seed: int = 0) -> DataLake:
    """The ``kind`` ("open", "swdc" or "lwdc") lite lake at experiment
    scale; seed offsets give more query tables."""
    cfg = dict(_PRESETS[kind])
    cfg["seed"] = cfg["seed"] + seed
    cfg["name"] = f"{cfg['name']}#{seed}"
    return make_lake(**cfg)


@lru_cache(maxsize=None)
def lake_arrays(kind: str, seed: int = 0):
    """(Q, X, col_of_vector ints, col_ids list) for a cached lake."""
    lake = lite_lake(kind, seed)
    X, ids = lake.all_vectors()
    uniq = sorted(set(ids))
    idx_of = {c: i for i, c in enumerate(uniq)}
    col = np.array([idx_of[c] for c in ids], dtype=np.int64)
    return lake.query_vectors, X, col, uniq


def timed(fn, *args, **kw):
    """(result, seconds) of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0
