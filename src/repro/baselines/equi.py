"""Equi-join joinability baseline (§VI-A, Zhu et al. [34] semantics).

A query record matches a target record iff the raw string values are
exactly equal; column joinability is the fraction of query records with
at least one equal value in the target column — a pure Catalyst
pipeline (join + groupBy), oracle-checked against DuckDB in tests.

``joinability`` is that last step for every Spark matcher: equi,
Jaccard and fuzzy join here, and the pivot-blocked vector join of
:mod:`repro.spark.blocking`.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

__all__ = ["query_df", "joinability", "equi_joinability"]


def query_df(spark: SparkSession, query: list[str]) -> DataFrame:
    """Query column as a DataFrame (q_id, q_value)."""
    return spark.createDataFrame(
        pd.DataFrame({"q_id": range(len(query)), "q_value": query})
    )


def joinability(pairs: DataFrame, n_q: int) -> DataFrame:
    """(col_id, n_matched, joinability) from record matches (col_id, q_id, …).

    jn(Q, S) (§II-A) is the fraction of the ``n_q`` query records with
    at least one match in column S. Columns with zero matches are
    absent from the output (their joinability is 0). The distinct
    query records are counted as the size of their set per column: at
    most one shuffle, where ``countDistinct`` plans two, and none when
    ``pairs`` is already partitioned by ``col_id``, as the blocked
    join's are.
    """
    return (
        pairs.groupBy("col_id")
        .agg(F.size(F.collect_set("q_id")).cast("long").alias("n_matched"))
        .withColumn("joinability", F.col("n_matched") / F.lit(n_q))
    )


def equi_joinability(
    spark: SparkSession, query: list[str], lake_df: DataFrame
) -> DataFrame:
    """(col_id, n_matched, joinability) per lake column under equi-join.

    ``lake_df`` columns: col_id, vec_id, value.
    """
    q = query_df(spark, query)
    return joinability(lake_df.join(q, lake_df["value"] == q["q_value"]), len(query))
