"""Distributed joinable-table search (§IV mapped to Spark).

The paper's out-of-core design — partition the columns, build one PEXESO
per partition offline, then per query search each partition's index and
merge the results — maps onto two Spark steps:

* **Build, once per repository.** One ``groupBy(part_id).applyInPandas``
  builds every partition's ``PexesoIndex`` and emits one row per
  partition: its column ids and the pickled index. The rows are
  coalesced to ``defaultParallelism`` partitions and cached; the first
  search materializes them inside its own job.
* **Search, per query.** One ``mapInPandas`` over the cached rows
  unpickles and searches each index. It shuffles nothing and rebuilds
  nothing, and it runs as one wave of Python tasks: a wave costs about
  250 ms on a local 4-core host even with no work in it, more than the
  searches themselves, so the index is never left at the shuffle's
  partition count.

A column lives in exactly one partition, so merging is a plain union of
per-partition joinable sets (no cross-partition aggregation needed).

Input repository DataFrame schema: ``col_id string, vec_id long,
value string, vec array<double>`` (see ``lake_to_spark``).
"""
from __future__ import annotations

import pickle
import threading
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.pexeso import PexesoIndex, check_unit_rows
from repro.partition.cluster import jsd_kmeans

__all__ = ["assign_partitions", "distributed_search", "partition_indexes"]

_INDEX_SCHEMA = "cols array<string>, index binary"
_RESULT_SCHEMA = "col_id string, n_matched long, joinability double"

#: The latest built index: ``(repo_parts, n_pivots, m, index rows)``.
#: Holding ``repo_parts`` keeps its identity from being reused by another
#: DataFrame, so an ``is`` test can never serve a stale index.
_latest: tuple | None = None
_latest_lock = threading.Lock()


def assign_partitions(
    repo: DataFrame,
    k: int,
    *,
    partitioner: Callable[[dict[str, np.ndarray], int], dict[str, int]] | None = None,
    sample_per_column: int = 64,
) -> DataFrame:
    """Add a ``part_id`` column via §IV clustering on column histograms.

    Per-column vector samples (small) are collected to the driver, the
    JSD k-means of §IV runs there (its input is one histogram per
    column, not the vectors), and the assignment is broadcast back as a
    tiny mapping table (one row per column), so the vectors stay where
    they are.
    """
    partitioner = partitioner or jsd_kmeans
    sampled = (
        repo.withColumn(
            "_rn",
            F.row_number().over(Window.partitionBy("col_id").orderBy("vec_id")),
        )
        .where(F.col("_rn") <= sample_per_column)
        .select("col_id", "vec")
        .toPandas()
    )
    col_vecs = {
        cid: np.vstack(g["vec"].to_numpy())
        for cid, g in sampled.groupby("col_id")
    }
    assign = partitioner(col_vecs, k)
    spark = repo.sparkSession
    mapping = spark.createDataFrame(
        pd.DataFrame(
            {"col_id": list(assign), "part_id": [assign[c] for c in assign]}
        )
    )
    return repo.join(F.broadcast(mapping), "col_id")


def _build_indexes(repo_parts: DataFrame, n_pivots: int, m: int) -> DataFrame:
    """One lazily cached ``(cols, index)`` row per ``part_id``."""

    def build_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        cols = pdf["col_id"].unique()
        col_index = {c: i for i, c in enumerate(cols)}
        X = np.vstack(pdf["vec"].to_numpy())
        col_of_vector = pdf["col_id"].map(col_index).to_numpy()
        engine = PexesoIndex(
            X, col_of_vector, len(cols), n_pivots=n_pivots, m=m
        )
        return pd.DataFrame(
            {"cols": [list(cols)], "index": [pickle.dumps(engine)]}
        )

    return (
        repo_parts.select("part_id", "col_id", "vec")
        .groupBy("part_id")
        .applyInPandas(build_partition, schema=_INDEX_SCHEMA)
        .coalesce(repo_parts.sparkSession.sparkContext.defaultParallelism)
        .cache()
    )


def partition_indexes(repo_parts: DataFrame, *, n_pivots: int = 5, m: int = 4) -> DataFrame:
    """Each partition's pickled ``PexesoIndex``, built on first use.

    Returns the cached ``(cols array<string>, index binary)`` rows of
    ``repo_parts`` built with ``(n_pivots, m)``. The same DataFrame
    object with the same parameters gets the same rows back; anything
    else builds new rows and unpersists the previous ones.
    """
    global _latest
    with _latest_lock:
        if (
            _latest is not None
            and _latest[0] is repo_parts
            and _latest[1:3] == (n_pivots, m)
        ):
            return _latest[3]
        # A stopped SparkContext dropped its cache with it, and unpersisting
        # through it raises.
        if _latest is not None and (
            _latest[3].sparkSession.sparkContext
            is repo_parts.sparkSession.sparkContext
        ):
            _latest[3].unpersist()
        _latest = (repo_parts, n_pivots, m, _build_indexes(repo_parts, n_pivots, m))
        return _latest[3]


def distributed_search(
    repo_parts: DataFrame,
    Q: np.ndarray,
    tau: float,
    T: float,
    *,
    n_pivots: int = 5,
    m: int = 4,
    use_inverted: bool = True,
) -> DataFrame:
    """Search every partition with its own PEXESO; return joinable columns.

    ``repo_parts`` must carry ``part_id`` (see :func:`assign_partitions`).
    Its indexes are built by the first search and reused by later ones
    (see :func:`partition_indexes`). Output: ``(col_id, n_matched,
    joinability)`` with joinability >= T. ``Q`` must be finite and
    unit-norm (``ValueError`` before any job starts otherwise); it rides
    to executors inside the UDF closure (it is the small side, per §II-A).
    """
    check_unit_rows("Q", Q)
    n_q = len(Q)

    def search_partitions(batches):
        for pdf in batches:
            for cols, blob in zip(pdf["cols"], pdf["index"]):
                res = pickle.loads(blob).search(Q, tau, T, use_inverted=use_inverted)
                hit = sorted(res.joinable)
                yield pd.DataFrame(
                    {
                        "col_id": [cols[i] for i in hit],
                        "n_matched": [int(res.match_counts[i]) for i in hit],
                        "joinability": [res.match_counts[i] / n_q for i in hit],
                    }
                )

    return (
        partition_indexes(repo_parts, n_pivots=n_pivots, m=m)
        .mapInPandas(search_partitions, schema=_RESULT_SCHEMA)
        .where(F.col("joinability") >= F.lit(float(T)) - F.lit(1e-12))
    )
