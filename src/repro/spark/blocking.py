"""Pivot-based blocking as a native Catalyst dataflow.

A second, DataFrame-level realization of PEXESO's block-and-verify,
exercising the distributed-join shape the repro band asks for:

1. **Map** — every target vector gets its pivot-space coordinates and a
   grid-cell *blocking key*: one ``long`` packing the ``leaf_coords`` of
   the first ``min(KEY_DIMS, |P|)`` pivot coordinates at level
   ``KEY_LEVEL`` (a bounded key space, so the join stays an equi-join;
   the remaining pivot dimensions still filter in step 3).
2. **Block** — every query vector explodes to the keys of the cells its
   square query region SQR(q', τ) touches, the ``leaf_coords`` ranges of
   ``q' ± τ``; candidates are the equi-join on the key (this is Lemma 3
   at cell granularity: cells outside the region never meet the query).
   The query frame is the small side (§II-A) and is broadcast, so the
   repository is never shuffled and no query vector crosses a shuffle.
3. **Filter** — Lemma 1 over *all* pivot dimensions as one conjunction
   of element comparisons, ``|xp[j] − qp[j]| ≤ τ`` for every pivot j,
   which Spark compiles into the join's generated code; no Python UDF
   and no lambda.
4. **Verify** — exact Euclidean distance via ``zip_with``/``aggregate``
   on the original vectors, then :func:`repro.baselines.equi.joinability`
   counts matched query vectors per column.

Steps 2 and 3 use ``regions.widened(τ)``, as the numpy engine's filters
do: a vector's pivot coordinates are mapped in its own Arrow batch and
the query's on the driver, and a product over another batch can round
them apart in the last bits.

Plan shape: :func:`build_blocked_repo` hash-partitions the repository by
``col_id``. Cached, that partitioning is known to every query over it,
and the broadcast hash join keeps it, so the per-column count runs as a
partial and a final aggregate in the join's stage. A query is one
``BroadcastHashJoin``, no shuffle ``Exchange`` and one stage over the
repository; the broadcast collects the query frame in a small job of its
own (tested).

Exactness: steps 2 and 3 never drop a pair within τ (tested against the
numpy engine and the DuckDB ``list_distance`` oracle). Step 4 sums
``(a − c)²``, which rounds otherwise than the oracle's ``|x|² + |q|² −
2x·q`` of ``baselines.exact_scan``, so a pair within ~1e-15 of τ², as
near-duplicates are at τ = 0, can be decided the other way.
"""
from __future__ import annotations

import operator
from functools import reduce

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, DoubleType, LongType, StructField, StructType

from repro.baselines.equi import joinability
from repro.core.grid import expand_ranges, leaf_coords
from repro.core.pexeso import check_query
from repro.core.pivots import pivot_map
from repro.core.regions import widened
from repro.spark.worker import install_stat_checked_zip_invalidation, vector_rows

__all__ = ["build_blocked_repo", "matching_pairs", "blocked_joinability"]

#: Pivot coordinates that make up the blocking key, and the grid level of
#: its cells: 8 × 8 = 64 keys, few enough that a query region touches a
#: handful of them and many enough to split the repository.
KEY_DIMS = 2
KEY_LEVEL = 3

#: Weight of each key coordinate: the key is ``sum(c_j << KEY_LEVEL * j)``.
_KEY_WEIGHT = np.int64(1) << (KEY_LEVEL * np.arange(KEY_DIMS, dtype=np.int64))

_QUERY_SCHEMA = "q_id long, qvec array<double>, qp array<double>, cell long"


def _list_rows(M: np.ndarray) -> pa.ListArray:
    """The rows of a 2-D float64 matrix as one Arrow list array over its
    buffer, with no per-value copy."""
    offsets = np.arange(0, M.size + 1, M.shape[1], dtype=np.int32)
    return pa.ListArray.from_arrays(offsets, np.ascontiguousarray(M).ravel())


def build_blocked_repo(repo: DataFrame, pivots: np.ndarray) -> DataFrame:
    """Add pivot coordinates ``xp`` and blocking key ``cell`` to the repo.

    The per-row computation runs on whole Arrow batches (``mapInArrow``):
    pivot mapping is a dense matrix product, unnatural as a scalar SQL
    expression but one product over a batch's ``vec`` buffer, read
    without pandas rows. A null ``vec``, or one whose length is not the
    pivots' dimension, raises ``ValueError``.

    The output is hash-partitioned by ``col_id`` into the context's
    default parallelism, so each column lies in one partition; cache it
    (see the plan shape in the module notes).
    """
    b = min(KEY_DIMS, len(pivots))
    piv = pivots.copy()

    def add_cols(batches):
        install_stat_checked_zip_invalidation()
        for batch in batches:
            Xp = pivot_map(vector_rows(batch.column("vec"), piv.shape[1]), piv)
            yield pa.RecordBatch.from_arrays(
                batch.columns + [
                    _list_rows(Xp),
                    pa.array(leaf_coords(Xp[:, :b], KEY_LEVEL) @ _KEY_WEIGHT[:b]),
                ],
                names=batch.schema.names + ["xp", "cell"],
            )

    schema = StructType(
        repo.schema.fields
        + [
            StructField("xp", ArrayType(DoubleType())),
            StructField("cell", LongType()),
        ]
    )
    n_parts = repo.sparkSession.sparkContext.defaultParallelism
    return repo.mapInArrow(add_cols, schema=schema).repartition(n_parts, "col_id")


def matching_pairs(
    spark: SparkSession,
    blocked_repo: DataFrame,
    Q: np.ndarray,
    pivots: np.ndarray,
    tau: float,
) -> DataFrame:
    """All record-level matches (col_id, vec_id, q_id, d2) under τ.

    This is the mapping PEXESO presents to the user (§II-A), as
    ``PexesoIndex.pairs`` gives it in memory; ``blocked_joinability``
    aggregates it.
    ``Q`` must be finite and unit-norm, as the blocking keys' fixed grid
    extent assumes, and ``tau`` a number ≥ 0; otherwise ``ValueError`` is
    raised before any job.
    """
    check_query(Q, tau)
    b = min(KEY_DIMS, len(pivots))
    Qp = pivot_map(Q, pivots)
    # The filters' τ: it allows for coordinates mapped in another batch.
    reach = widened(tau)
    lo = leaf_coords(Qp[:, :b] - reach, KEY_LEVEL)
    hi = leaf_coords(Qp[:, :b] + reach, KEY_LEVEL) + 1
    # One row per (query vector, touched cell): the product of the
    # per-coordinate cell ranges, one coordinate at a time.
    q_id = np.arange(len(Q))
    cell = np.zeros(len(Q), dtype=np.int64)
    for j in range(b):
        owner, c = expand_ranges(lo[q_id, j], hi[q_id, j])
        q_id, cell = q_id[owner], cell[owner] + c * _KEY_WEIGHT[j]
    qdf = spark.createDataFrame(
        pa.table([pa.array(q_id), _list_rows(Q[q_id]), _list_rows(Qp[q_id]), pa.array(cell)],
                 names=["q_id", "qvec", "qp", "cell"]),
        schema=_QUERY_SCHEMA,
    )

    joined = blocked_repo.join(F.broadcast(qdf), "cell")
    # Lemma 1 over all pivot dimensions: one comparison per pivot.
    survives = reduce(operator.and_, (
        F.abs(F.col("xp")[j] - F.col("qp")[j]) <= F.lit(reach)
        for j in range(len(pivots))
    ))
    # Exact squared Euclidean distance, as a native expression.
    d2 = F.aggregate(
        F.zip_with("vec", "qvec", lambda a, c: (a - c) * (a - c)),
        F.lit(0.0),
        lambda acc, x: acc + x,
    )
    return (
        joined.where(survives)
        .withColumn("d2", d2)
        .where(F.col("d2") <= F.lit(tau * tau))
        .select("col_id", "vec_id", "q_id", "d2")
    )


def blocked_joinability(
    spark: SparkSession,
    blocked_repo: DataFrame,
    Q: np.ndarray,
    pivots: np.ndarray,
    tau: float,
) -> DataFrame:
    """(col_id, n_matched, joinability) via the Catalyst dataflow."""
    return joinability(matching_pairs(spark, blocked_repo, Q, pivots, tau), len(Q))
