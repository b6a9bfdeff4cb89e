"""Distributed joinable-table search (§IV mapped to Spark).

The paper's out-of-core design — partition the columns, build one PEXESO
per partition offline, then per query search each partition's index and
merge the results — maps onto three Spark steps:

* **Partition, once per repository.** One ``mapInArrow`` bins each
  batch's vectors into per-column histogram counts on the executors.
  Only those counts reach the driver, one row per column and batch;
  summed per column they are the column's histogram, and the JSD
  k-means of §IV runs on them there.
* **Build, once per repository.** One ``groupBy(part_id).applyInArrow``
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

The set-up UDFs read the vectors straight from the Arrow batches
(:func:`repro.spark.worker.vector_rows`), with no pandas rows, and
reject a null or wrong-length ``vec``. Every UDF body first calls
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
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pexeso import PexesoIndex, check_query, t_abs
from repro.partition.cluster import jsd_kmeans
from repro.partition.histogram import bin_counts, normalize
from repro.spark.worker import install_stat_checked_zip_invalidation, vector_rows

__all__ = ["assign_partitions", "distributed_search", "partition_indexes"]

_INDEX_SCHEMA = "cols array<string>, index binary"
_RESULT_SCHEMA = "col_id string, n_matched long, joinability double"
_COUNTS_SCHEMA = "col_id string, counts array<long>"

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

    The executors bin the vectors into histogram counts (see
    :func:`_column_histograms`); ``partitioner`` (JSD k-means by
    default) gets ``{col_id: histogram}`` on the driver, and its
    assignment is broadcast back as a tiny mapping table (one row per
    column), so the vectors stay where they are.
    """
    partitioner = partitioner or jsd_kmeans
    assign = partitioner(_column_histograms(repo), k)
    spark = repo.sparkSession
    mapping = spark.createDataFrame(
        pd.DataFrame(
            {"col_id": list(assign), "part_id": [assign[c] for c in assign]}
        )
    )
    return repo.join(F.broadcast(mapping), "col_id")


def _column_histograms(repo: DataFrame) -> dict[str, np.ndarray]:
    """``{col_id: histogram}``, equal to ``partition.histogram.histograms``
    of the columns' vectors.

    Each Arrow batch emits the bin counts of the columns it holds, so no
    vector is shuffled or collected; the driver sums the counts of
    columns split over batches, which is exact because counts add.
    """

    def count_bins(batches):
        install_stat_checked_zip_invalidation()
        for batch in batches:
            if batch.num_rows == 0:
                continue
            col = batch.column("col_id").dictionary_encode()
            counts = bin_counts(
                vector_rows(batch.column("vec")),
                col.indices.to_numpy(),
                len(col.dictionary),
            )
            offsets = np.arange(0, counts.size + 1, counts.shape[1], dtype=np.int32)
            yield pa.RecordBatch.from_arrays(
                [col.dictionary, pa.ListArray.from_arrays(offsets, counts.ravel())],
                names=["col_id", "counts"],
            )

    rows = repo.select("col_id", "vec").mapInArrow(count_bins, _COUNTS_SCHEMA).toArrow()
    ids, owner = np.unique(
        rows.column("col_id").to_numpy(zero_copy_only=False), return_inverse=True
    )
    batch_counts = vector_rows(rows.column("counts"))
    counts = np.zeros((len(ids), batch_counts.shape[1]), dtype=np.int64)
    np.add.at(counts, owner, batch_counts)
    return dict(zip(ids.tolist(), normalize(counts)))


def _build_indexes(repo_parts: DataFrame, n_pivots: int, m: int) -> DataFrame:
    """One lazily cached ``(cols, index)`` row per ``part_id``."""

    def build_partition(table: pa.Table) -> pa.Table:
        install_stat_checked_zip_invalidation()
        # Columns are numbered by first appearance.
        col = table.column("col_id").combine_chunks().dictionary_encode()
        cols = col.dictionary.to_pylist()
        engine = PexesoIndex(
            vector_rows(table.column("vec")), col.indices.to_numpy(), len(cols),
            n_pivots=n_pivots, m=m,
        )
        return pa.table({"cols": [cols], "index": [pickle.dumps(engine)]})

    return (
        repo_parts.select("part_id", "col_id", "vec")
        .groupBy("part_id")
        .applyInArrow(build_partition, schema=_INDEX_SCHEMA)
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
) -> DataFrame:
    """Search every partition with its own PEXESO; return joinable columns.

    ``repo_parts`` must carry ``part_id`` (see :func:`assign_partitions`).
    Its indexes are built by the first search and reused by later ones
    (see :func:`partition_indexes`). Output: ``(col_id, n_matched,
    joinability)`` with joinability >= T. ``Q`` must be finite and
    unit-norm, ``tau`` a number ≥ 0 and ``T`` a number in [0, 1]
    (``ValueError`` before any job starts otherwise); ``Q`` rides to
    executors inside the UDF closure (it is the small side, per §II-A).
    Each partition's index plans its own search (``PexesoIndex.search``).
    """
    check_query(Q, tau)
    t_abs(T, len(Q))
    n_q = len(Q)

    def search_partitions(batches):
        install_stat_checked_zip_invalidation()
        for pdf in batches:
            for cols, blob in zip(pdf["cols"], pdf["index"]):
                res = pickle.loads(blob).search(Q, tau, T)
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
