"""The host references and the environment record.

The host this benchmark was tuned on changes speed by up to 60% in
phases of seconds to tens of seconds, with CPU time equal to wall time,
so raw timings of the same code drift between runs. Every timed
operation is therefore bracketed by a fixed reference, and its time is
scaled to a host on which that reference takes ``REF_MS``:

- ``HostRef``, single-node: a kernel that does what PEXESO's verification
  loop does per (query vector, column): gather a few rows, one small
  ``einsum``, a comparison and a small set, so that it slows down with
  the host the way the program does.
- ``SparkRef``, on Spark: a fixed job of the block-and-scan shape (a
  small query frame joined on a string key with a cached frame, a
  higher-order-function filter and distance, a grouped distinct count)
  on the same session, so that it slows down with the JVM and the
  host's cores the way the Spark paths do.

Neither calls the program, so a program change moves scaled times as it
moves raw ones.
"""
from __future__ import annotations

import ctypes
import os
import statistics
import sys
import time

import numpy as np

__all__ = ["HostRef", "SparkRef", "environment"]


class HostRef:
    """A fixed kernel whose time tracks the host's current speed."""

    #: Kernel time the reported timings are scaled to. The tuning host
    #: (4 cores, AVX-512, OpenBLAS) took ~1.7 ms in fast phases and ~3.2 ms
    #: in slow ones.
    REF_MS = 2.5
    #: Measured before and after every timed call.
    once_per_op = False

    def __init__(self) -> None:
        g = np.random.default_rng(0)
        self.M = g.standard_normal((2000, 50))
        self.rows = [g.integers(0, 2000, 8) for _ in range(128)]
        self.ms: list[float] = []
        self.busy_s = 0.0  # wall time spent measuring

    def _kernel_ms(self) -> float:
        t0 = time.perf_counter()
        qv = self.M[0]
        hits = 0
        for r in self.rows:
            diff = self.M[r] - qv
            d2 = np.einsum("ij,ij->i", diff, diff)
            hits += bool(np.any(d2 <= 0.5))
            _ = {int(x) for x in r}
        return (time.perf_counter() - t0) * 1e3

    def measure(self) -> float:
        """Median of three kernel runs in ms, so one preemption does not count."""
        t0 = time.perf_counter()
        ms = statistics.median(self._kernel_ms() for _ in range(3))
        self.ms.append(ms)
        self.busy_s += time.perf_counter() - t0
        return ms


class SparkRef:
    """A fixed Spark job whose time tracks the JVM's and the host's speed.

    The driver-side kernel of ``HostRef`` tracked the Spark paths poorly:
    it runs on one core while they run on all, and it was slowed by the
    JVM's own background threads. Over 7-operation windows of one long
    process, the median ratio of operation time to this job's time varied
    by 3-9% (coefficient of variation), and to the kernel's by 10-14%.
    """

    #: Job time the reported Spark timings are scaled to. Its run medians on
    #: the tuning host were 420-770 ms.
    REF_MS = 400.0
    #: The job takes ~0.4 s, so it runs once per operation, before its
    #: first timed call, and that call's factor serves the whole operation.
    once_per_op = True
    N_ROWS, N_QUERY, N_KEYS, DIM = 5000, 100, 64, 8
    WARMUP = 3

    def __init__(self, spark) -> None:
        import pandas as pd

        g = np.random.default_rng(0)
        keys = [str(i % self.N_KEYS) for i in range(max(self.N_ROWS, self.N_QUERY))]
        self.spark = spark
        self.repo = spark.createDataFrame(pd.DataFrame({
            "grp": np.arange(self.N_ROWS) % 100,
            "cell": keys[:self.N_ROWS],
            "v": list(g.standard_normal((self.N_ROWS, self.DIM))),
        })).cache()
        self.repo.count()
        self.queries = pd.DataFrame({
            "q": np.arange(self.N_QUERY),
            "cell": keys[:self.N_QUERY],
            "qv": list(g.standard_normal((self.N_QUERY, self.DIM))),
        })
        self.ms: list[float] = []
        self.busy_s = 0.0
        for _ in range(self.WARMUP):
            self._job_ms()

    def _job_ms(self) -> float:
        from pyspark.sql import functions as F

        t0 = time.perf_counter()
        q = self.spark.createDataFrame(self.queries)
        close = F.forall(
            F.zip_with("v", "qv", lambda a, c: F.abs(a - c) <= F.lit(2.0)), lambda ok: ok
        )
        d2 = F.aggregate(
            F.zip_with("v", "qv", lambda a, c: (a - c) * (a - c)),
            F.lit(0.0), lambda acc, x: acc + x,
        )
        (self.repo.join(q, "cell").where(close).withColumn("d2", d2)
         .where(F.col("d2") <= F.lit(9.0))
         .groupBy("grp").agg(F.countDistinct("q")).collect())
        return (time.perf_counter() - t0) * 1e3

    def measure(self) -> float:
        ms = self._job_ms()
        self.ms.append(ms)
        self.busy_s += ms / 1e3
        return ms


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "blas" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads = getattr(handle, sym)()
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(master: str) -> dict:
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "blas": _blas(),
        "spark_master": master,
    }
