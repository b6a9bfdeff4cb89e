"""Synthetic data lakes with planted joinability ground truth.

Substitutes for the paper's corpora (OPEN: Canadian Open Data; SWDC /
LWDC: WDC Web Table Corpus), which cannot be downloaded offline, and for
the human relevance labels of §VI-B. A lake is built around a *query
column* of entity strings; target columns are either

- **joinable**: they contain a fraction ``overlap`` of the query
  entities, a fraction ``perturb_rate`` of which are perturbed (typos,
  abbreviations, reformatting — see :mod:`repro.embedding.perturb`), the
  rest of the column being filler entities from a disjoint universe; or
- **distractors**: entirely disjoint entities.

``truth_overlap`` (the fraction of query entities semantically present,
perturbed or not) is the planted ground truth: a column is *truly
joinable* at threshold ``T`` iff ``truth_overlap >= T``. Equi-join can
only see the unperturbed part, which is exactly the recall gap the
paper measures (Table IV).

Strings are embedded with the hashing embedders
(:mod:`repro.embedding.hashing`) after the paper's preprocessing step
(§II-A: lowercase, abbreviation expansion) implemented in
:func:`normalize`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.embedding.hashing import embed_many
from repro.embedding.perturb import perturb
from repro.lake import corpus

__all__ = ["normalize", "Column", "DataLake", "make_lake", "lake_to_spark", "OPEN_LITE", "SWDC_LITE", "LWDC_LITE"]

_EXPAND = {
    "st.": "street", "st": "street", "ave.": "avenue", "ave": "avenue",
    "blvd.": "boulevard", "rd.": "road", "e.": "east", "w.": "west",
    "n.": "north", "s.": "south", "mar": "march", "jan": "january",
    "inc.": "incorporated", "corp.": "corporation", "co.": "company",
    "ltd.": "limited", "svcs": "services", "intl": "international",
}


def normalize(s: str) -> str:
    """§II-A preprocessing: lowercase, strip punctuation, expand abbrevs."""
    words = s.lower().replace(",", " ").split()
    return " ".join(_EXPAND.get(w, w) for w in words)


@dataclass
class Column:
    """One target column of the lake, with its planted ground truth."""

    col_id: str
    strings: list[str]
    truth_overlap: float  # fraction of query entities present (any form)
    equi_overlap: float   # fraction present verbatim (what equi-join sees)
    vectors: np.ndarray = field(repr=False, default=None)  # (n, dim), unit rows

    def __len__(self) -> int:
        return len(self.strings)


@dataclass
class DataLake:
    """A query column plus a repository of target columns."""

    name: str
    model: str          # 'fasttext' (300-d) or 'glove' (50-d)
    dim: int
    query: list[str]
    query_vectors: np.ndarray = field(repr=False)
    columns: list[Column] = field(repr=False)

    # -- ground truth ---------------------------------------------------
    def truly_joinable(self, T: float) -> set[str]:
        """Planted-truth joinable column ids at joinability threshold T."""
        return {c.col_id for c in self.columns if c.truth_overlap >= T}

    # -- convenience views ----------------------------------------------
    def column_matrices(self) -> dict[str, np.ndarray]:
        return {c.col_id: c.vectors for c in self.columns}

    def all_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(stacked target vectors, parallel array of column ids)."""
        mats = [c.vectors for c in self.columns]
        ids = np.concatenate(
            [np.full(len(c), c.col_id, dtype=object) for c in self.columns]
        )
        return np.vstack(mats), ids

    def stats(self) -> dict:
        """Table III row: #vectors, #columns, avg #vectors, model, dim."""
        n_vec = sum(len(c) for c in self.columns)
        n_col = len(self.columns)
        return {
            "dataset": self.name,
            "n_vectors": n_vec,
            "n_columns": n_col,
            "avg_vectors_per_col": round(n_vec / max(n_col, 1), 1),
            "model": self.model,
            "dim": self.dim,
        }


def _embed(strings: list[str], model: str, dim: int) -> np.ndarray:
    return embed_many([normalize(s) for s in strings], model=model, dim=dim)


def make_lake(
    *,
    name: str,
    universe: str = "person",
    model: str = "fasttext",
    dim: int = 300,
    n_query: int = 50,
    n_columns: int = 200,
    joinable_frac: float = 0.35,
    col_size: int = 50,
    overlap_range: tuple[float, float] = (0.25, 0.95),
    perturb_rate: float = 0.45,
    perturb_rate_range: tuple[float, float] | None = None,
    seed: int = 7,
) -> DataLake:
    """Build a lake with ``n_columns`` targets around one query column.

    ``joinable_frac`` of the columns carry query-entity overlap drawn
    uniformly from ``overlap_range``; the rest are pure distractors.
    Entity universes are sized so filler/distractor entities never
    collide with query entities.

    ``perturb_rate_range`` (when given) draws a *per-column* rate
    uniformly from the range, overriding the global ``perturb_rate``:
    real lakes mix verbatim tables with heavily-reformatted ones, and a
    column perturbed at ~0.9 is invisible to equi-join at any
    joinability threshold — the structural recall gap of Table IV.
    """
    g = np.random.default_rng(seed)
    gen = corpus.UNIVERSES[universe]
    # One big disjoint universe: first n_query strings are the query
    # entities, the rest feed fillers and distractors.
    n_universe = n_query + n_columns * col_size
    universe_strings = gen(n_universe, seed=seed)
    query = universe_strings[:n_query]
    filler_pool = universe_strings[n_query:]
    filler_pos = 0

    def take_filler(k: int) -> list[str]:
        nonlocal filler_pos
        out = filler_pool[filler_pos : filler_pos + k]
        filler_pos += k
        if len(out) < k:  # wrap (collisions with other fillers are fine)
            out = out + filler_pool[: k - len(out)]
        return out

    columns: list[Column] = []
    n_joinable = int(round(n_columns * joinable_frac))
    for i in range(n_columns):
        cid = f"{name}.col{i:05d}"
        if i < n_joinable:
            lo, hi = overlap_range
            overlap = float(g.uniform(lo, hi))
            n_overlap = min(col_size, max(1, int(round(overlap * n_query))))
            picked = list(g.choice(n_query, size=n_overlap, replace=False))
            col_rate = (
                float(g.uniform(*perturb_rate_range))
                if perturb_rate_range is not None
                else perturb_rate
            )
            strings, n_equi = [], 0
            for qi in picked:
                s = query[qi]
                if g.random() < col_rate:
                    p = perturb(s, g, n_edits=1)
                    strings.append(p)
                    if p == s:  # perturbation was a no-op on this string
                        n_equi += 1
                else:
                    strings.append(s)
                    n_equi += 1
            strings += take_filler(col_size - len(strings))
            truth = n_overlap / n_query
            equi = n_equi / n_query
        else:
            strings = take_filler(col_size)
            truth = equi = 0.0
        order = g.permutation(len(strings))
        strings = [strings[j] for j in order]
        columns.append(Column(cid, strings, truth, equi))

    # Embed everything (vectors for target columns + query).
    for c in columns:
        c.vectors = _embed(c.strings, model, dim)
    qv = _embed(query, model, dim)
    return DataLake(name, model, dim, query, qv, columns)


#: Below this many bytes, Arrow's ``createDataFrame`` keeps the frame
#: inside the plan as a ``LocalRelation``.
_LOCAL_RELATION_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"


def lake_to_spark(spark: SparkSession, lake: DataLake) -> DataFrame:
    """Repository as a DataFrame: (col_id, vec_id, value, vec).

    The rows are built on the executors (a ``LogicalRDD``), never kept in
    the plan: a lake-sized ``LocalRelation`` is re-planned by every query
    over the repository (with LWDC-lite's 56K rows, planning a search took
    48–50 ms, against 8–9 ms RDD-backed). The session's setting is restored.
    """
    rows = []
    for c in lake.columns:
        for i, (s, v) in enumerate(zip(c.strings, c.vectors)):
            rows.append((c.col_id, i, s, v.tolist()))
    pdf = pd.DataFrame(rows, columns=["col_id", "vec_id", "value", "vec"])
    threshold = spark.conf.get(_LOCAL_RELATION_THRESHOLD)
    spark.conf.set(_LOCAL_RELATION_THRESHOLD, "0")
    try:
        return spark.createDataFrame(pdf)
    finally:
        spark.conf.set(_LOCAL_RELATION_THRESHOLD, threshold)


# Experiment-scale presets (≈1000× below the paper; see DESIGN.md §7).
OPEN_LITE = dict(
    name="OPEN-lite", universe="address", model="fasttext", dim=300,
    n_query=50, n_columns=200, col_size=80, joinable_frac=0.3, seed=11,
    perturb_rate_range=(0.1, 0.9),
)
# WDC columns are short (paper avg 16.7 / 12.3 vectors), so query columns
# are short too — otherwise no column could reach a high joinability T.
SWDC_LITE = dict(
    name="SWDC-lite", universe="person", model="glove", dim=50,
    n_query=12, n_columns=1500, col_size=16, joinable_frac=0.1, seed=13,
    perturb_rate_range=(0.1, 0.9),
)
LWDC_LITE = dict(
    name="LWDC-lite", universe="company", model="glove", dim=50,
    n_query=12, n_columns=4000, col_size=14, joinable_frac=0.05, seed=17,
    perturb_rate_range=(0.1, 0.9),
)
