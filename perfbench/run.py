#!/usr/bin/env python3
"""PEXESO benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload swdc-search --seed 1 --seconds 30 --trace 0

Run from the repository root. The client sends the next query column
only when the previous search has returned, and checks every answer
against ``baselines.exact_scan``. Timings are medians over samples
spread across the run, each scaled to a reference host speed (see
host.py); ``gc.collect()`` and the host reference run between
operations, outside the timers. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones. The last line of standard
output is the result as JSON. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

#: Set-ups per run, keyed by "runs on Spark", spread evenly over the
#: measured time. A Spark set-up costs ~10 s; the first is the cold start.
N_SETUPS = {False: 9, True: 2}
#: Operations after the first set-up that are run and checked, not reported.
#: Spark's first queries after a cold start run up to 2x slow while the JVM
#: compiles and the Python workers start; with the C1-only JIT (engines.py)
#: the times are flat after that.
WARMUP_OPS = 1

END_TO_END = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "build_s": "s",
    "index_mb": "MiB",
    "setup_s": "s",
    "blocked_query_p50_ms": "ms",
}
LAYER_MS = [
    "verify.ms", "block.ms", "pivots.map_query_ms", "grid.query_build_ms",
    "search.self_ms", "pivots.select_ms", "pivots.map_ms", "grid.build_ms",
    "inverted.build_ms", "partition.jsd_kmeans_ms", "spark_joinable.assign_ms",
    "spark_blocking.build_ms", "spark_joinable.search_ms",
    "spark_joinable.partition_build_ms", "spark_joinable.partition_search_ms",
    "spark_blocking.query_ms",
]
#: Layers whose slowest single span per operation is reported as ``*_max_ms``.
LAYER_MAX = ["spark_joinable.partition_build_ms", "spark_joinable.partition_search_ms"]
#: Per-layer counters, summed within an operation.
LAYER_COUNTS = [
    "verify.n_distance", "block.n_candidates", "block.n_match_pairs",
    "partition.max_part_vectors", "spark_blocking.n_matching_pairs",
]


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def prepare_environment() -> None:
    """Point imports, Spark and temporary files at this checkout.

    BLAS is pinned to one thread: on a small shared host, threaded BLAS
    adds run-to-run noise and oversubscribes the Spark slots.
    """
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: the program (src/repro) is missing under {ROOT}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True


def p90(xs: list[float]) -> float:
    # Inclusive: with a Spark run's 6-10 samples the default method
    # extrapolates past the largest one.
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def qps(latencies: list[float]) -> float:
    """Queries per second of search time, over the whole run."""
    return len(latencies) / sum(latencies)


class Run:
    """One workload's closed loop and everything it records.

    A sample is ``(seconds, factor)``: the raw time of one operation and
    the host reference's ``REF_MS`` over its time around the operation:
    the mean of the kernel just before and after it single-node, the
    Spark job at the start of its operation on Spark. Reported times are
    raw times multiplied by their factor.
    """

    def __init__(self, wl, data, engine, queries, tracer, host, trace: bool) -> None:
        self.wl, self.data, self.engine, self.queries = wl, data, engine, queries
        self.tracer, self.host, self.trace = tracer, host, trace
        self.next_q = 0
        self.n_ops = self.failed = 0
        self.samples: dict[str, list[tuple[float, float]]] = {
            k: [] for k in ("query", "untraced", "blocked", "build", "setup", "scan")
        }
        self.op_factor: dict[int, float] = {}
        self.answers: dict[int, set[int]] = {}
        self.answer_sizes: dict[int, int] = {}

    # -- one operation -------------------------------------------------------
    def _take_query(self) -> int:
        qi = self.next_q % len(self.queries)
        self.next_q += 1
        return qi

    def _check(self, path: str, qi: int, got: set[int], factor: float) -> None:
        from workloads import exact_answer

        if qi not in self.answers:
            t0 = time.perf_counter()
            self.answers[qi] = exact_answer(self.data, self.wl, self.queries[qi])
            self.samples["scan"].append((time.perf_counter() - t0, factor))
        want = self.answers[qi]
        self.n_ops += 1
        if path == "query":
            self.answer_sizes[len(want)] = self.answer_sizes.get(len(want), 0) + 1
        if got != want:
            self.failed += 1
            print(
                f"FAIL op={self.n_ops} path={path} query={qi} got={len(got)} "
                f"expected={len(want)} missing={len(want - got)} extra={len(got - want)}",
                flush=True,
            )

    @contextlib.contextmanager
    def _bracketed(self, traced: bool, first: bool = True):
        """gc, then reference / body / reference; yields a dict that receives
        the body's host ``factor`` on exit. A once-per-operation reference
        runs only before the ``first`` timed call of an operation."""
        gc.collect()
        out: dict[str, float] = {}
        op = self.n_ops
        once = self.host.once_per_op
        before = self.host.measure() if first or not once else self.host.ms[-1]
        with self.tracer.activate(op) if traced else contextlib.nullcontext():
            yield out
        after = before if once else self.host.measure()
        out["factor"] = self.host.REF_MS / ((before + after) / 2)
        if traced:
            self.op_factor[op] = out["factor"]

    def _timed(self, path: str, qi: int, traced: bool,
               first: bool = True) -> tuple[float, float]:
        fn = self.engine.query if path == "query" else self.engine.blocked
        with self._bracketed(traced, first) as host:
            t0 = time.perf_counter()
            got = fn(self.queries[qi])
            dt = time.perf_counter() - t0
            if traced and path == "blocked":
                self.engine.trace_extra(self.queries[qi])
        self._check(path, qi, got, host["factor"])
        return dt, host["factor"]

    def setup(self) -> None:
        """Build, then answer one query: the time to the first answer."""
        qi = self._take_query()
        with self._bracketed(self.trace) as host:
            t0 = time.perf_counter()
            build_s = self.engine.setup()
            got = self.engine.query(self.queries[qi])
            setup_s = time.perf_counter() - t0
        self._check("query", qi, got, host["factor"])
        self.samples["build"].append((build_s, host["factor"]))
        self.samples["setup"].append((setup_s, host["factor"]))

    def op(self, keep: bool = True) -> None:
        qi = self._take_query()
        if not (self.trace and keep):
            timed = [("query", self._timed("query", qi, False)),
                     ("blocked", self._timed("blocked", qi, False, first=False))]
        else:
            # The same query untraced and traced, alternating which goes
            # first, so both rates see the same host and the same inputs.
            order = (False, True) if qi % 2 else (True, False)
            timed = [("query" if t else "untraced", self._timed("query", qi, t, first=i == 0))
                     for i, t in enumerate(order)]
            self._timed("blocked", qi, True, first=False)
        if keep:
            for key, sample in timed:
                self.samples[key].append(sample)

    def loop(self, seconds: float) -> None:
        n_setups = N_SETUPS[self.wl.spark]
        self.setup()
        for _ in range(WARMUP_OPS):
            self.op(keep=False)
        spent = 0.0  # seconds in operations; set-ups and references are not counted
        while spent < seconds:
            if len(self.samples["setup"]) < n_setups and (
                spent >= len(self.samples["setup"]) * seconds / n_setups
            ):
                self.setup()
                continue
            t0, busy = time.perf_counter(), self.host.busy_s
            self.op()
            spent += time.perf_counter() - t0 - (self.host.busy_s - busy)

    # -- results -------------------------------------------------------------
    def scaled(self, key: str) -> list[float]:
        return [s * f for s, f in self.samples[key]]

    def end_to_end(self, index_mb: float) -> dict[str, float]:
        q = self.scaled("query")
        return {
            "query_p50_ms": statistics.median(q) * 1e3,
            "query_p90_ms": p90(q) * 1e3,
            "queries_per_s": qps(q),
            "build_s": statistics.median(self.scaled("build")),
            "index_mb": index_mb,
            "setup_s": statistics.median(self.scaled("setup")),
            "blocked_query_p50_ms": statistics.median(self.scaled("blocked")) * 1e3,
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        total, worst = self.tracer.per_op()

        def med(by_op: dict[int, float], scale: bool = True) -> float:
            vals = [v * (self.op_factor[op] if scale else 1.0)
                    for op, v in by_op.items()]
            return statistics.median(vals) if vals else 0.0

        out = {name: (med(total.get(name, {})), "ms") for name in LAYER_MS}
        for name in LAYER_MAX:
            out[name.replace("_ms", "_max_ms")] = (med(worst.get(name, {})), "ms")
        for name in LAYER_COUNTS:
            out[name] = (med(total.get(name, {}), scale=False), "count")
        verify_ms, n_dist = total.get("verify.ms", {}), total.get("verify.n_distance", {})
        out["verify.us_per_distance"] = (
            med({op: verify_ms[op] * 1e3 / n for op, n in n_dist.items()
                 if n > 0 and op in verify_ms}),
            "us",
        )
        out["exact_scan.ms"] = (statistics.median(self.scaled("scan")) * 1e3, "ms")
        out["host.ref_ms"] = (statistics.median(self.host.ms), "ms")
        traced, untraced = qps(self.scaled("query")), qps(self.scaled("untraced"))
        out["trace.queries_per_s"] = (traced, "1/s")
        out["trace.untraced_queries_per_s"] = (untraced, "1/s")
        out["trace.overhead_qps"] = (untraced - traced, "1/s")
        return out

    def report(self) -> dict:
        """What the metrics rest on: sample counts, raw medians, answer sizes."""
        return {
            "samples": {k: len(v) for k, v in self.samples.items()},
            "raw_medians_s": {
                k: statistics.median(s for s, _ in v) for k, v in self.samples.items() if v
            },
            "host.ref_ms": statistics.median(self.host.ms),
            "answer_sizes": dict(sorted(self.answer_sizes.items())),
        }


def main() -> int:
    args = parse_args()
    prepare_environment()

    from engines import SingleNode, SparkEngine, start_spark
    from host import HostRef, SparkRef, environment
    from tracing import Tracer
    from workloads import WORKLOADS, LakeArrays, query_stream

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    t_start = time.perf_counter()
    tracer = Tracer()
    if wl.spark:
        # The JVM starts while the lake is generated.
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            lake = pool.submit(LakeArrays, wl)
            spark = start_spark(WORK)
            data = lake.result()
        engine = SparkEngine(wl, data, tracer, spark)
    else:
        data = LakeArrays(wl)
        engine = SingleNode(wl, data, tracer)
    queries = query_stream(data, args.seed)
    try:
        host = SparkRef(spark) if wl.spark else HostRef()
        run = Run(wl, data, engine, queries, tracer, host, bool(args.trace))
        run.loop(args.seconds)
        if args.trace:
            metrics = run.per_layer()
        else:
            index_mb = engine.index_mb()  # untimed pass
            metrics = {k: (v, END_TO_END[k]) for k, v in run.end_to_end(index_mb).items()}
        env = environment(engine.master)
    finally:
        engine.close()

    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              **run.report(), "wall_s": time.perf_counter() - t_start, "environment": env}
    print("perfbench report " + json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.n_ops,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
