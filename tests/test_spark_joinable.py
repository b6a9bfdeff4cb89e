"""Tests for the distributed (§IV-on-Spark) joinable search."""
import time
from types import SimpleNamespace

import numpy as np
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.baselines import exact_scan
from repro.core.pexeso import t_abs
from repro.lake.generator import lake_to_spark
from repro.partition.cluster import jsd_kmeans, random_partition
from repro.partition.histogram import histograms
from repro.spark import joinable
from repro.spark.joinable import (
    assign_partitions,
    distributed_search,
    partition_indexes,
)
from tests.conftest import bad_vec


@pytest.fixture(scope="module")
def repo_parts(spark, tiny_lake):
    df = assign_partitions(lake_to_spark(spark, tiny_lake), 4)
    df.cache().count()
    return df


def test_assign_partitions_covers_all_columns(repo_parts, tiny_lake):
    rows = repo_parts.select("col_id", "part_id").distinct().collect()
    assert len(rows) == len(tiny_lake.columns)  # one partition per column
    assert {r["part_id"] for r in rows} <= set(range(4))


@pytest.mark.parametrize("n_parts", [None, 7])
def test_column_histograms_match_histograms(spark, tiny_lake, n_parts):
    """The executors' bin counts, summed per column on the driver, give
    each column bit for bit the histogram ``histograms()`` computes from
    its vectors, also when round-robin rows split every column over
    batches, and so the same JSD assignment."""
    repo = lake_to_spark(spark, tiny_lake)
    if n_parts:
        repo = repo.repartition(n_parts)
    got = joinable._column_histograms(repo)
    ids, H = histograms(tiny_lake.column_matrices())
    assert list(got) == ids
    assert np.stack(list(got.values())).tobytes() == H.tobytes()
    assert jsd_kmeans(got, 4) == jsd_kmeans(dict(zip(ids, H)), 4)


def test_more_partitions_than_rows(spark, tiny_lake):
    """Spark partitions without rows add nothing and raise nothing in the
    histogram and index-build UDFs."""
    joinable_cols = sorted(_exact_cols(tiny_lake, 0.4, 0.4))
    keep = set(joinable_cols[:2]) | {tiny_lake.columns[0].col_id}
    n_rows = sum(len(c.vectors) for c in tiny_lake.columns if c.col_id in keep)
    few = lake_to_spark(spark, tiny_lake).where(F.col("col_id").isin(*keep))
    few = few.repartition(n_rows + 4)
    parts = assign_partitions(few, 2)
    assert {r["col_id"] for r in parts.select("col_id").distinct().collect()} == keep
    assert _search_cols(parts, tiny_lake, 0.4, 0.4) == _exact_cols(
        tiny_lake, 0.4, 0.4, keep=keep.__contains__
    )


@pytest.mark.parametrize("bad", ["short", "shifted", "null"])
def test_rejects_bad_vec(spark, repo_parts, tiny_lake, bad):
    """A null vec, or one of another length, fails the histogram and the
    index-build UDFs. "shifted" moves one value to the next row, so the
    rows' total length still divides by d and only a per-row length
    check sees it."""
    vec = bad_vec(tiny_lake, bad)
    want = "ValueError: a vec is null" if bad == "null" else "ValueError: every vec must hold"
    with pytest.raises(PythonException, match=want):
        assign_partitions(lake_to_spark(spark, tiny_lake).withColumn("vec", vec), 4)
    with pytest.raises(PythonException, match=want):
        _search_cols(repo_parts.withColumn("vec", vec), tiny_lake, 0.4, 0.4)


def test_assign_partitions_custom_partitioner(spark, tiny_lake):
    df = assign_partitions(
        lake_to_spark(spark, tiny_lake), 3, partitioner=random_partition
    )
    n_parts = df.select("part_id").distinct().count()
    assert 1 <= n_parts <= 3


@pytest.mark.parametrize("tau,T", [(0.3, 0.3), (0.5, 0.5)])
def test_distributed_equals_single_node(repo_parts, tiny_lake, tau, T):
    """The Spark path must return exactly the brute-force joinable set."""
    got = {
        r["col_id"]
        for r in distributed_search(
            repo_parts, tiny_lake.query_vectors, tau, T, n_pivots=3, m=3
        ).collect()
    }
    X, ids = tiny_lake.all_vectors()
    uniq = sorted(set(ids))
    idx_of = {c: i for i, c in enumerate(uniq)}
    col_idx = np.array([idx_of[c] for c in ids])
    Ta = t_abs(T, len(tiny_lake.query))
    truth_idx = exact_scan.joinable_columns(
        tiny_lake.query_vectors, X, col_idx, len(uniq), tau, Ta
    )
    assert got == {uniq[i] for i in truth_idx}


def test_joinability_threshold_enforced(repo_parts, tiny_lake):
    out = distributed_search(repo_parts, tiny_lake.query_vectors, 0.4, 0.5, m=3)
    assert out.where(F.col("joinability") < 0.5 - 1e-9).count() == 0


# ---------- the index built once per repository ----------
def _exact_cols(lake, tau, T, keep=lambda c: True):
    """Brute-force joinable column ids among the columns ``keep`` accepts."""
    X, ids = lake.all_vectors()
    rows = [i for i, c in enumerate(ids) if keep(c)]
    uniq = sorted({ids[i] for i in rows})
    idx_of = {c: i for i, c in enumerate(uniq)}
    col_idx = np.array([idx_of[ids[i]] for i in rows])
    truth = exact_scan.joinable_columns(
        lake.query_vectors, X[rows], col_idx, len(uniq), tau,
        t_abs(T, len(lake.query)),
    )
    return {uniq[i] for i in truth}


def _search_cols(df, lake, tau, T, **kw):
    return {
        r["col_id"]
        for r in distributed_search(df, lake.query_vectors, tau, T, m=3, **kw).collect()
    }


def _jobs_and_tasks(sc, group, action):
    """(jobs, tasks run) of the Spark jobs that ``action()`` starts."""
    sc.setJobGroup(group, group)
    try:
        action()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    # Task counts are final once the listener has seen each job end.
    deadline = time.monotonic() + 30
    while any(tracker.getJobInfo(j).status != "SUCCEEDED" for j in jobs):
        assert time.monotonic() < deadline, "jobs did not finish"
        time.sleep(0.05)
    stages = [tracker.getStageInfo(s) for j in jobs for s in tracker.getJobInfo(j).stageIds]
    return len(jobs), sum(s.numCompletedTasks for s in stages if s is not None)


def test_index_built_once_and_reused(spark, repo_parts, tiny_lake):
    first = partition_indexes(repo_parts, m=3)
    assert partition_indexes(repo_parts, m=3) is first
    assert first.rdd.getNumPartitions() <= spark.sparkContext.defaultParallelism
    assert _search_cols(repo_parts, tiny_lake, 0.4, 0.4) == _exact_cols(tiny_lake, 0.4, 0.4)
    assert partition_indexes(repo_parts, m=3) is first


def test_search_on_built_index_runs_one_narrow_stage(spark, repo_parts, tiny_lake):
    """After the first search, a search shuffles and rebuilds nothing: one
    job with one task per cached index partition."""
    _search_cols(repo_parts, tiny_lake, 0.4, 0.4)  # builds the index
    n_index_parts = partition_indexes(repo_parts, m=3).rdd.getNumPartitions()
    n_jobs, n_tasks = _jobs_and_tasks(
        spark.sparkContext, "second-search",
        lambda: _search_cols(repo_parts, tiny_lake, 0.3, 0.3),
    )
    assert (n_jobs, n_tasks) == (1, n_index_parts)


def test_other_repository_never_served_stale_index(repo_parts, tiny_lake):
    _search_cols(repo_parts, tiny_lake, 0.4, 0.4)  # builds the full index
    part_of = {r["col_id"]: r["part_id"]
               for r in repo_parts.select("col_id", "part_id").distinct().collect()}
    subset = repo_parts.where("part_id != 0")
    assert _search_cols(subset, tiny_lake, 0.4, 0.4) == _exact_cols(
        tiny_lake, 0.4, 0.4, keep=lambda c: part_of[c] != 0
    )
    # Back on the full repository, its index is rebuilt, not the subset's.
    assert _search_cols(repo_parts, tiny_lake, 0.4, 0.4) == _exact_cols(tiny_lake, 0.4, 0.4)


def test_one_partition_equals_scan(spark, tiny_lake):
    """A partitioner may put every column in one partition."""
    one = assign_partitions(lake_to_spark(spark, tiny_lake), 4,
                            partitioner=lambda samples, k: dict.fromkeys(samples, 0))
    assert [r["part_id"] for r in one.select("part_id").distinct().collect()] == [0]
    for tau, T in ((0.3, 0.3), (0.5, 0.5)):
        assert _search_cols(one, tiny_lake, tau, T) == _exact_cols(tiny_lake, tau, T)


def test_index_of_stopped_session_is_dropped(monkeypatch, repo_parts, tiny_lake):
    """Rows cached by a SparkContext since stopped went with it; unpersisting
    them through it would raise, so they are only dropped."""

    class StaleRows:
        sparkSession = SimpleNamespace(sparkContext=object())

        def unpersist(self):
            raise AssertionError("unpersisted through a stopped SparkContext")

    monkeypatch.setattr(joinable, "_latest", (object(), 5, 3, StaleRows()))
    assert _search_cols(repo_parts, tiny_lake, 0.4, 0.4) == _exact_cols(tiny_lake, 0.4, 0.4)


@pytest.mark.parametrize("bad", ["nan", "non_unit", "nan_tau", "negative_tau"])
def test_rejects_bad_query(repo_parts, tiny_lake, bad):
    Q, tau = tiny_lake.query_vectors.copy(), 0.4
    if bad == "nan":
        Q[0, 0] = np.nan
    elif bad == "non_unit":
        Q *= 2.0
    else:
        tau = np.nan if bad == "nan_tau" else -0.1
    match = "tau must be" if bad.endswith("tau") else "finite and unit-norm"
    with pytest.raises(ValueError, match=match):
        distributed_search(repo_parts, Q, tau, 0.4, m=3)


def test_rejects_empty_query(repo_parts, tiny_lake):
    """An empty query column has no joinability, so it is rejected."""
    with pytest.raises(ValueError, match="at least one row"):
        distributed_search(repo_parts, tiny_lake.query_vectors[:0], 0.4, 0.4, m=3)


@pytest.mark.parametrize("T", [np.nan, -0.1, 1.5])
def test_rejects_bad_threshold(spark, repo_parts, tiny_lake, T):
    """A NaN T or one outside [0, 1] is rejected before any job starts."""

    def search():
        with pytest.raises(ValueError, match="T must be"):
            distributed_search(repo_parts, tiny_lake.query_vectors, 0.4, T, m=3)

    assert _jobs_and_tasks(spark.sparkContext, f"bad-T-{T}", search) == (0, 0)
