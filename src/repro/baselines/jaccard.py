"""Jaccard-join joinability baseline (§VI-A).

A query record matches a target record iff the Jaccard similarity of
their lower-cased word-token sets is at least ``theta``. The whole
computation is a Catalyst dataflow: tokenize → explode → equi-join on
token → group to intersection sizes → similarity predicate → group to
per-column joinability. Oracle-checked against an equivalent DuckDB
SQL over the exploded token tables.

``set_similarity`` is the record-level part of that dataflow for any
gram maker (word tokens here, character n-grams in
:mod:`repro.baselines.fuzzy`); Table IV and the ML enrichment use it
too.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines.equi import joinability, query_df

__all__ = ["tokens", "set_similarity", "jaccard_joinability"]


def tokens(df: DataFrame, value_col: str, out: str) -> DataFrame:
    """Add ``out`` = array of distinct lower-cased word tokens."""
    return df.withColumn(
        out, F.array_distinct(F.split(F.lower(F.trim(F.col(value_col))), r"[\s,]+"))
    )


def set_similarity(
    q_df: DataFrame,
    s_df: DataFrame,
    grams: Callable[[DataFrame, str, str], DataFrame],
) -> DataFrame:
    """(col_id, vec_id, q_id, sim): Jaccard similarity of gram sets.

    ``q_df`` has (q_id, q_value), ``s_df`` has (col_id, vec_id, value),
    and ``grams(df, value_col, out)`` adds the distinct grams of a value
    (:func:`tokens` or :func:`repro.baselines.fuzzy.char_ngrams`). Only
    pairs sharing at least one gram appear, so every ``sim`` is > 0.
    """
    q = grams(q_df, "q_value", "grams").select(
        "q_id", F.size("grams").alias("q_size"), F.explode("grams").alias("gram")
    )
    s = grams(s_df, "value", "grams").select(
        "col_id", "vec_id", F.size("grams").alias("s_size"),
        F.explode("grams").alias("gram"),
    )
    inter = (
        q.join(s, "gram")
        .groupBy("col_id", "vec_id", "q_id", "q_size", "s_size")
        .agg(F.count("*").alias("i"))
    )
    return inter.select(
        "col_id", "vec_id", "q_id",
        (F.col("i") / (F.col("q_size") + F.col("s_size") - F.col("i"))).alias("sim"),
    )


def jaccard_joinability(
    spark: SparkSession, query: list[str], lake_df: DataFrame, *, theta: float = 0.5
) -> DataFrame:
    """(col_id, n_matched, joinability) under token-Jaccard matching."""
    sim = set_similarity(query_df(spark, query), lake_df, tokens)
    return joinability(sim.where(F.col("sim") >= F.lit(theta)), len(query))
