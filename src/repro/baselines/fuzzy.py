"""Fuzzy-join joinability baseline (§VI-A, Wang et al. [29] style).

[29] matches records by combining token-level and character-level
similarity so that typos inside tokens still count. We realize the
same capability as Jaccard similarity over *character 3-gram* multisets
of the lower-cased string — character grams make single-character edits
cost only a few grams (token Jaccard loses the whole token), which is
the behavioural difference Table IV measures (fuzzy recall > Jaccard
recall, precision slightly lower). The n-grams are produced natively in
Catalyst (``sequence`` + ``transform`` + ``explode``), no Python UDF.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines.equi import joinability, query_df
from repro.baselines.jaccard import set_similarity

__all__ = ["char_ngrams", "fuzzy_joinability"]


def char_ngrams(df: DataFrame, value_col: str, out: str, *, n: int = 3) -> DataFrame:
    """Add ``out`` = array of distinct char n-grams of the value.

    Strings shorter than ``n`` contribute themselves as a single gram.
    """
    s = F.lower(F.trim(F.col(value_col)))
    grams = F.transform(
        F.sequence(F.lit(1), F.greatest(F.length(s) - (n - 1), F.lit(1))),
        lambda i: s.substr(i, F.lit(n)),
    )
    return df.withColumn(out, F.array_distinct(grams))


def fuzzy_joinability(
    spark: SparkSession, query: list[str], lake_df: DataFrame, *, theta: float = 0.5
) -> DataFrame:
    """(col_id, n_matched, joinability) under char-3-gram Jaccard."""
    sim = set_similarity(query_df(spark, query), lake_df, char_ngrams)
    return joinability(sim.where(F.col("sim") >= F.lit(theta)), len(query))
