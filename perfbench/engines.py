"""The two engines a workload drives: single-node PEXESO and the Spark paths.

Each engine builds its index in ``setup`` and answers one query column
per call of ``query`` (the PEXESO path) and ``blocked`` (the
block-and-scan path without an inverted index). Both return joinable
column indices, which the benchmark checks against the exact scan.
"""
from __future__ import annotations

import gc
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.pexeso import PexesoIndex, t_abs
from tracing import BUILD, SEARCH, Tracer
from workloads import LakeArrays, Workload

__all__ = ["SingleNode", "SparkEngine", "start_spark", "retained_mb"]


def retained_mb(build) -> float:
    """Memory held by what ``build()`` returns, in MiB, via tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / 2**20


class SingleNode:
    """One in-memory ``PexesoIndex`` over the whole repository."""

    master = "none (single process)"

    def __init__(self, wl: Workload, data: LakeArrays, tracer: Tracer) -> None:
        self.wl, self.data, self.tracer = wl, data, tracer
        self.index: PexesoIndex | None = None

    def _build(self) -> PexesoIndex:
        d = self.data
        return PexesoIndex(d.X, d.col, d.n_cols, n_pivots=self.wl.n_pivots, m=self.wl.m)

    def setup(self) -> float:
        """Build the index; return the build seconds."""
        self.index = None
        gc.collect()
        t0 = time.perf_counter()
        with self.tracer.span(BUILD):
            self.index = self._build()
        return time.perf_counter() - t0

    def query(self, Q: np.ndarray) -> set[int]:
        with self.tracer.span(SEARCH):
            res = self.index.search(Q, self.wl.tau, self.wl.T)
        self.tracer.count("verify.n_distance", res.n_distance)
        self.tracer.count("block.n_candidates", res.n_candidates)
        self.tracer.count("block.n_match_pairs", res.n_match_pairs)
        return res.joinable

    def blocked(self, Q: np.ndarray) -> set[int]:
        """PEXESO-H: the same blocking, then a scan of every candidate cell."""
        return self.index.search(Q, self.wl.tau, self.wl.T, use_inverted=False).joinable

    def trace_extra(self, Q: np.ndarray) -> None:
        pass

    def index_mb(self) -> float:
        return retained_mb(self._build)

    def close(self) -> None:
        pass


def start_spark(work: Path):
    """A local SparkSession with the repo jobs' settings, files kept in ``work``."""
    from pyspark.sql import SparkSession

    local = work / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    # The JVM runs with its quick (C1) JIT only. With the default tiered JIT
    # the block-and-scan path kept getting faster for minutes (0.85 s ->
    # 0.56 s per query over 7 minutes on the tuning host), so a run's median
    # depended on how far the optimizing compiler had got, and a slow host
    # also slowed that compiler. With C1 alone the times are flat after the
    # first query.
    java_opts = f"-Djava.io.tmpdir={local} -XX:TieredStopAtLevel=1"
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{min(4, os.cpu_count() or 1)}]")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", str(local))
        .config("spark.driver.extraJavaOptions", java_opts)
        .config("spark.sql.warehouse.dir", str(work / "spark-warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # As jobs/_session.py: the settings the repo's Spark jobs run with.
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class SparkEngine:
    """``distributed_search`` and ``blocked_joinability`` on local Spark.

    The repository is loaded as a cached DataFrame once. Set-up assigns
    JSD partitions and materializes the blocked repository. Every query
    rebuilds each partition's index inside ``applyInPandas``; the traced
    run replays those builds and searches on the driver to time them per
    partition.
    """

    def __init__(self, wl: Workload, data: LakeArrays, tracer: Tracer, spark) -> None:
        from repro.lake.generator import lake_to_spark

        self.wl, self.data, self.tracer, self.spark = wl, data, tracer, spark
        self.master = spark.sparkContext.master
        self.index_of = {c: i for i, c in enumerate(data.col_ids)}
        self.repo = lake_to_spark(spark, data.lake).cache()
        self.repo.count()
        self._built: list = []
        self._replay: list[PexesoIndex] = []

    def _partitioner(self, col_vecs, k):
        from repro.partition.cluster import jsd_kmeans

        with self.tracer.span("partition.jsd_kmeans_ms"):
            return jsd_kmeans(col_vecs, k)

    def setup(self) -> float:
        """Partition and block the repository, both materialized; return seconds."""
        from repro.core.pivots import select_pivots
        from repro.spark.blocking import build_blocked_repo
        from repro.spark.joinable import assign_partitions

        for df in self._built:
            df.unpersist(blocking=True)
        self._built, self._replay = [], []
        gc.collect()
        t0 = time.perf_counter()
        with self.tracer.span("spark_joinable.assign_ms"):
            self.parts = assign_partitions(
                self.repo, self.wl.n_parts, partitioner=self._partitioner
            ).cache()
            self.parts.count()
        with self.tracer.span("spark_blocking.build_ms"):
            self.pivots = select_pivots(self.data.X, self.wl.n_pivots)
            self.blocked_repo = build_blocked_repo(self.repo, self.pivots).cache()
            self.blocked_repo.count()
        build_s = time.perf_counter() - t0
        self._built = [self.parts, self.blocked_repo]
        if self.tracer.active:
            self._replay = [self._partition_index(rows) for rows in self._partition_rows()]
            self.tracer.count(
                "partition.max_part_vectors", max(len(ix.X) for ix in self._replay)
            )
        return build_s

    def _partition_rows(self) -> list[np.ndarray]:
        """Repository row indices of each partition, as ``parts`` assigns them."""
        part_of = {
            r["col_id"]: r["part_id"]
            for r in self.parts.select("col_id", "part_id").distinct().collect()
        }
        col_part = np.array([part_of[c] for c in self.data.col_ids])[self.data.col]
        return [np.flatnonzero(col_part == p) for p in np.unique(col_part)]

    def _partition_index(self, rows: np.ndarray) -> PexesoIndex:
        """The index ``distributed_search`` builds for one partition."""
        d, wl = self.data, self.wl
        cols, col_of_vector = np.unique(d.col[rows], return_inverse=True)
        with self.tracer.span("spark_joinable.partition_build_ms"), self.tracer.span(BUILD):
            return PexesoIndex(d.X[rows], col_of_vector, len(cols),
                               n_pivots=wl.n_pivots, m=wl.m)

    def query(self, Q: np.ndarray) -> set[int]:
        from repro.spark.joinable import distributed_search

        with self.tracer.span("spark_joinable.search_ms"):
            rows = distributed_search(
                self.parts, Q, self.wl.tau, self.wl.T,
                n_pivots=self.wl.n_pivots, m=self.wl.m,
            ).collect()
        return {self.index_of[r["col_id"]] for r in rows}

    def blocked(self, Q: np.ndarray) -> set[int]:
        from repro.spark.blocking import blocked_joinability

        with self.tracer.span("spark_blocking.query_ms"):
            rows = blocked_joinability(
                self.spark, self.blocked_repo, Q, self.pivots, self.wl.tau
            ).collect()
        need = t_abs(self.wl.T, len(Q))
        return {self.index_of[r["col_id"]] for r in rows if r["n_matched"] >= need}

    def trace_extra(self, Q: np.ndarray) -> None:
        """Replay each partition's search on the driver; count blocked matches."""
        from repro.spark.blocking import matching_pairs

        for ix in self._replay:
            with self.tracer.span("spark_joinable.partition_search_ms"):
                with self.tracer.span(SEARCH):
                    res = ix.search(Q, self.wl.tau, self.wl.T)
            self.tracer.count("verify.n_distance", res.n_distance)
            self.tracer.count("block.n_candidates", res.n_candidates)
            self.tracer.count("block.n_match_pairs", res.n_match_pairs)
        n = matching_pairs(
            self.spark, self.blocked_repo, Q, self.pivots, self.wl.tau
        ).count()
        self.tracer.count("spark_blocking.n_matching_pairs", n)

    def index_mb(self) -> float:
        """Memory of the largest partition's index, vectors included: the
        out-of-core search of §IV holds one partition's index at a time."""
        rows = max(self._partition_rows(), key=len)
        return retained_mb(lambda: self._partition_index(rows))

    def close(self) -> None:
        """Stop Spark and wait until its JVM (and Python workers) have exited."""
        gateway = self.spark.sparkContext._gateway
        self.spark.stop()
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
