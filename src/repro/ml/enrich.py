"""Data enrichment through discovered joinable tables (§VI-C).

For each discovery method the pipeline is the paper's: find joinable
tables for the query column, left-join the query table with them using
the method's record-level matches, aggregate the joined numeric
attributes per query record (mean), and hand the widened table to the
ML task. ``no-join`` returns the query table untouched.

Record-level matching per method:

- ``equi``    — raw string equality (Catalyst equi-join);
- ``jaccard`` — token-set Jaccard ≥ θ (explode/join/groupBy dataflow);
- ``fuzzy``   — char-3-gram Jaccard ≥ θ (same dataflow);
- ``pexeso``  — embedding distance ≤ τ: the record mapping of one
  in-memory PEXESO index over the lake (``PexesoIndex.pairs``), with no
  Spark job.

Every method's pairs reach ``enrich`` as one pandas frame: the Spark
methods' joins are collected once.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.baselines.fuzzy import char_ngrams
from repro.baselines.jaccard import set_similarity, tokens
from repro.core.pexeso import PexesoIndex
from repro.embedding.hashing import embed_many
from repro.lake.generator import normalize
from repro.ml.datasets import MLTask

__all__ = ["record_pairs", "enrich", "METHODS"]

METHODS = ["no-join", "equi", "jaccard", "fuzzy", "pexeso"]
_COLUMNS = ["col_id", "vec_id", "q_id"]


def _embed(values: pd.Series) -> np.ndarray:
    """The 50-d GloVe-like embedding of each normalized record value."""
    return embed_many([normalize(v) for v in values], model="glove", dim=50)


def _lake_pdf(task: MLTask) -> pd.DataFrame:
    """One ``(col_id, vec_id, value)`` row per lake record."""
    rows = []
    for name, pdf in task.lake_tables.items():
        for i, v in enumerate(pdf["key"]):
            rows.append((name, i, v))
    return pd.DataFrame(rows, columns=["col_id", "vec_id", "value"])


def record_pairs(
    spark: SparkSession,
    task: MLTask,
    method: str,
    *,
    theta: float = 0.5,
    tau: float = 0.5,
) -> pd.DataFrame:
    """(col_id, vec_id, q_id) matches between query records and lake rows."""
    q_values = task.query[task.key_col].astype(str)
    q_pdf = pd.DataFrame({"q_id": np.arange(len(q_values)), "q_value": q_values})
    lake_pdf = _lake_pdf(task)

    if method == "no-join":
        return pd.DataFrame(
            {"col_id": pd.Series(dtype=object), "vec_id": pd.Series(dtype=np.int64),
             "q_id": pd.Series(dtype=np.int64)}
        )
    if method == "pexeso":
        col_of, names = pd.factorize(lake_pdf["col_id"])
        index = PexesoIndex(_embed(lake_pdf["value"]), col_of, len(names))
        q_idx, x_idx = index.pairs(_embed(q_pdf["q_value"]), tau)
        pdf = lake_pdf.iloc[x_idx][["col_id", "vec_id"]].assign(q_id=q_idx)
        return pdf.reset_index(drop=True)
    qdf = spark.createDataFrame(q_pdf)
    lake = spark.createDataFrame(lake_pdf)
    if method == "equi":
        pairs = lake.join(qdf, lake["value"] == qdf["q_value"])
    elif method in ("jaccard", "fuzzy"):
        grams = tokens if method == "jaccard" else char_ngrams
        sim = set_similarity(qdf, lake, grams)
        pairs = sim.where(F.col("sim") >= F.lit(theta))
    else:
        raise ValueError(f"unknown method {method!r}")
    return pairs.select(*_COLUMNS).toPandas()


def enrich(task: MLTask, pairs_pdf: pd.DataFrame) -> tuple[pd.DataFrame, list[str], float]:
    """Left-join enrichment of ``record_pairs``' frame; returns (widened
    table, new cols, match rate).

    Match rate is the paper's "# Match": matched lake records over all
    lake records. Numeric attributes of matched rows are averaged per
    query record and per lake table; unmatched records get 0 (the
    sparsity that hurts equi-join in Table V).
    """
    n_lake_rows = sum(len(t) for t in task.lake_tables.values())
    match_rate = (
        len(pairs_pdf[["col_id", "vec_id"]].drop_duplicates()) / n_lake_rows
        if n_lake_rows
        else 0.0
    )

    out = task.query.copy()
    new_cols: list[str] = []
    for name, table in task.lake_tables.items():
        sub = pairs_pdf[pairs_pdf["col_id"] == name]
        feat_cols = task.lake_feature_cols
        agg = (
            sub.merge(
                table[feat_cols].reset_index(names="vec_id"), on="vec_id"
            )
            .groupby("q_id")[feat_cols]
            .mean()
            if len(sub)
            else pd.DataFrame(columns=feat_cols)
        )
        for fc in feat_cols:
            col = f"{name}__{fc}"
            out[col] = out.index.map(agg[fc]) if len(agg) else np.nan
            out[col] = out[col].fillna(0.0)
            new_cols.append(col)
    return out, new_cols, match_rate
