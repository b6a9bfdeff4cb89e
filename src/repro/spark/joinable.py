"""Distributed joinable-table search (§IV mapped to Spark).

The paper's out-of-core design — partition the columns, build one PEXESO
per partition offline, then per query search each partition's index and
merge the results — maps onto two Spark steps:

* **Build, once per repository.** One ``groupBy(part_id).applyInPandas``
  builds every partition's ``PexesoIndex`` and emits one row per
  partition: its column ids and the pickled index. The rows are
  repartitioned round-robin to ``defaultParallelism`` partitions and
  cached; the first search materializes them inside its own job.
* **Search, per query.** One ``mapInPandas`` over the cached rows
  unpickles and searches each index. It shuffles nothing and rebuilds
  nothing, and it runs as one wave of Python tasks, one per core. The
  wave's time is the slowest task's, so the rows are dealt round-robin:
  ``coalesce`` merged neighbouring shuffle partitions and put 4 of
  LWDC-lite's 10 indexes (3,318 of its 4,000 columns) in one task, whose
  search took 143–180 ms against 90–120 ms for the slowest round-robin
  task.

Every UDF body first calls
:func:`repro.spark.worker.install_stat_checked_zip_invalidation`, which
saves each task a re-read of ``pyspark.zip``'s directory.

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
from repro.spark.worker import install_stat_checked_zip_invalidation

__all__ = ["assign_partitions", "distributed_search", "partition_indexes"]

_INDEX_SCHEMA = "cols array<string>, index binary"
_RESULT_SCHEMA = "col_id string, n_matched long, joinability double"
#: Vectors per column sent to the driver for clustering. The sample
#: bounds driver memory for long columns; every LWDC-lite column (14
#: vectors) is sent whole.
_SAMPLE_PER_COLUMN = 64

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
) -> DataFrame:
    """Add a ``part_id`` column via §IV clustering on column histograms.

    Per-column vector samples (small) are collected to the driver, the
    JSD k-means of §IV runs there (its input is one histogram per
    column, not the vectors), and the assignment is broadcast back as a
    tiny mapping table (one row per column), so the vectors stay where
    they are.
    """
    partitioner = partitioner or jsd_kmeans
    assign = partitioner(_column_samples(repo), k)
    spark = repo.sparkSession
    mapping = spark.createDataFrame(
        pd.DataFrame(
            {"col_id": list(assign), "part_id": [assign[c] for c in assign]}
        )
    )
    return repo.join(F.broadcast(mapping), "col_id")


def _column_samples(repo: DataFrame) -> dict[str, np.ndarray]:
    """Up to ``_SAMPLE_PER_COLUMN`` vectors of each column, by ``vec_id``,
    keyed by column id in sorted order."""
    sampled = (
        repo.withColumn(
            "_rn",
            F.row_number().over(Window.partitionBy("col_id").orderBy("vec_id")),
        )
        .where(F.col("_rn") <= _SAMPLE_PER_COLUMN)
        .select("col_id", "vec")
        .toArrow()
    )
    # A stable sort keeps each column's vectors in the order they arrived.
    col_id = sampled.column("col_id").to_numpy(zero_copy_only=False)
    order = np.argsort(col_id, kind="stable")
    col_id = col_id[order]
    vecs = sampled.column("vec").combine_chunks().flatten().to_numpy()
    vecs = vecs.reshape(len(col_id), -1)[order]
    cut = np.flatnonzero(col_id[1:] != col_id[:-1]) + 1
    return dict(zip(col_id[np.r_[0, cut]].tolist(), np.split(vecs, cut)))


def _build_indexes(repo_parts: DataFrame, n_pivots: int, m: int) -> DataFrame:
    """One lazily cached ``(cols, index)`` row per ``part_id``."""

    def build_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        install_stat_checked_zip_invalidation()
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
        .repartition(repo_parts.sparkSession.sparkContext.defaultParallelism)
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
        install_stat_checked_zip_invalidation()
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

    return partition_indexes(repo_parts, n_pivots=n_pivots, m=m).mapInPandas(
        search_partitions, schema=_RESULT_SCHEMA
    )
