"""Tests for the Catalyst-native pivot-blocking dataflow.

Exactness is checked two independent ways: against the numpy engine's
brute-force counts and record pairs, and against a DuckDB SQL oracle
that computes joinability with ``list_distance`` over the raw vectors.
"""
import re

import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.baselines import exact_scan
from repro.core.pivots import select_pivots
from repro.lake.generator import lake_to_spark
from repro.oracle import assert_equivalent
from repro.spark.blocking import (
    blocked_joinability,
    build_blocked_repo,
    matching_pairs,
)
from tests.conftest import bad_vec

TAU = 0.45


@pytest.fixture(scope="module")
def setup(spark, tiny_lake):
    X, _ = tiny_lake.all_vectors()
    pivots = select_pivots(X, 3, seed=0)
    repo = lake_to_spark(spark, tiny_lake)
    blocked = build_blocked_repo(repo, pivots)
    blocked.cache().count()
    return pivots, repo, blocked


def test_blocked_repo_schema(setup):
    _, repo, blocked = setup
    assert set(blocked.columns) == set(repo.columns) | {"xp", "cell"}
    assert dict(blocked.dtypes)["cell"] == "bigint"
    row = blocked.first()
    assert len(row["xp"]) == 3
    assert 0 <= row["cell"] < 8 * 8  # two level-3 coordinates, 8 cells each


def test_cell_key_matches_numpy(setup, tiny_lake):
    """Pivot coordinates and blocking keys computed in the executor match
    driver-side math, the coordinates bit for bit."""
    pivots, _, blocked = setup
    from repro.core.grid import DOMAIN
    from repro.core.pivots import pivot_map

    pdf = blocked.select("col_id", "vec_id", "vec", "xp", "cell").toPandas()
    X = np.vstack(pdf["vec"].to_numpy())
    Xp = pivot_map(X, pivots)
    assert np.vstack(pdf["xp"].to_numpy()).tobytes() == Xp.tobytes()
    side = DOMAIN / (1 << 3)
    coords = np.clip(np.floor(Xp[:, :2] / side).astype(int), 0, 7)
    want = coords[:, 0] + 8 * coords[:, 1]
    assert list(pdf["cell"]) == want.tolist()


def test_more_partitions_than_rows(spark, setup, tiny_lake):
    """Spark partitions without rows add nothing and raise nothing. The
    coordinates of a one-row batch may differ from a larger batch's in
    the last bit (a matrix-vector product rounds differently)."""
    pivots, repo, blocked = setup
    cols = tiny_lake.columns[:3]
    keep = F.col("col_id").isin(*[c.col_id for c in cols])
    n_rows = sum(len(c.vectors) for c in cols)
    spread = build_blocked_repo(repo.where(keep).repartition(n_rows + 4), pivots)
    key = ["col_id", "vec_id"]
    got = sorted(spread.select(*key, "xp", "cell").collect())
    want = sorted(blocked.where(keep).select(*key, "xp", "cell").collect())
    assert [r[:2] + r[3:] for r in got] == [r[:2] + r[3:] for r in want]
    np.testing.assert_allclose([r["xp"] for r in got], [r["xp"] for r in want], rtol=1e-15)


@pytest.mark.parametrize("bad", ["short", "shifted", "null"])
def test_rejects_bad_vec(setup, tiny_lake, bad):
    """A null vec, or one whose length is not the pivots' dimension, fails
    the pivot-mapping UDF; "shifted" keeps the rows' total length a
    multiple of d."""
    pivots, repo, _ = setup
    want = "ValueError: a vec is null" if bad == "null" else "ValueError: every vec must hold 32"
    with pytest.raises(PythonException, match=want):
        build_blocked_repo(repo.withColumn("vec", bad_vec(tiny_lake, bad)), pivots).count()


def test_blocked_joinability_equals_numpy(spark, setup, tiny_lake):
    pivots, _, blocked = setup
    got = blocked_joinability(
        spark, blocked, tiny_lake.query_vectors, pivots, TAU
    )
    rows = {r["col_id"]: r["n_matched"] for r in got.collect()}
    X, ids = tiny_lake.all_vectors()
    uniq = sorted(set(ids))
    col_idx = np.array([uniq.index(c) for c in ids])
    counts = exact_scan.match_counts(
        tiny_lake.query_vectors, X, col_idx, len(uniq), TAU
    )
    for i, cid in enumerate(uniq):
        assert rows.get(cid, 0) == counts[i], cid


def test_blocked_joinability_matches_duckdb_oracle(spark, setup, tiny_lake):
    """End-to-end vector-similarity joinability vs DuckDB list_distance."""
    pivots, repo, blocked = setup
    got = blocked_joinability(
        spark, blocked, tiny_lake.query_vectors, pivots, TAU
    )
    lake_pdf = repo.select("col_id", "vec_id", "vec").toPandas()
    q_pdf = pd.DataFrame(
        {
            "q_id": range(len(tiny_lake.query)),
            "qvec": [v.tolist() for v in tiny_lake.query_vectors],
        }
    )
    n_q = len(tiny_lake.query)
    assert_equivalent(
        got,
        f"""
        SELECT l.col_id,
               count(DISTINCT q.q_id) AS n_matched,
               count(DISTINCT q.q_id) / CAST({n_q} AS DOUBLE) AS joinability
        FROM lake l JOIN q ON list_distance(
            CAST(l.vec AS DOUBLE[]), CAST(q.qvec AS DOUBLE[])) <= {TAU}
        GROUP BY l.col_id
        """,
        lake=lake_pdf,
        q=q_pdf,
    )


@pytest.mark.parametrize("tau", [0.05, 0.45, 0.9])
def test_matching_pairs_equal_exact_scan(spark, setup, tiny_lake, tau):
    """The record pairs (q_id, col_id, vec_id) are exactly the brute-force
    scan's. No pair lies within 1e-9 of τ², so the two sides cannot
    agree only because both round a boundary pair the same way."""
    pivots, _, blocked = setup
    Q = tiny_lake.query_vectors
    X, ids = tiny_lake.all_vectors()
    d2 = ((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)
    assert np.abs(d2 - tau * tau).min() > 1e-9
    vec_id = np.concatenate([np.arange(len(c)) for c in tiny_lake.columns])
    q_idx, x_idx = exact_scan.pairs(Q, X, tau)
    want = set(zip(q_idx.tolist(), ids[x_idx].tolist(), vec_id[x_idx].tolist()))
    got = matching_pairs(spark, blocked, Q, pivots, tau).collect()
    assert len(got) == len(want)
    assert {(r["q_id"], r["col_id"], r["vec_id"]) for r in got} == want


def _query_plan(df) -> str:
    """The executed plan of ``df`` after an action, without the subtrees of
    the cached relations it reads (they print the plan that built them)."""
    # After an action the adaptive plan prints its final plan first.
    lines = df._jdf.queryExecution().executedPlan().toString().split("== Initial Plan ==")[0]
    kept, cached_at = [], None
    for line in lines.splitlines():
        at = len(line) - len(line.lstrip(" :|"))
        if cached_at is not None and at > cached_at:
            continue
        cached_at = at if "InMemoryRelation" in line else None
        kept.append(line)
    return "\n".join(kept)


def test_blocked_plan_shape(spark, setup, tiny_lake):
    """The query side is broadcast, and the blocked repository is cached
    partitioned by column, so the per-column count needs no shuffle: the
    query's own plan has one broadcast hash join and no shuffle
    ``Exchange``, and its job runs one stage. (The broadcast collects the
    query frame in a job of its own; the cached relation's set-up stage
    is listed in the query's job as skipped.)"""
    pivots, _, blocked = setup
    df = blocked_joinability(spark, blocked, tiny_lake.query_vectors, pivots, TAU)
    sc = spark.sparkContext
    sc.setJobGroup("blocked-plan-shape", "blocked query")
    try:
        df.collect()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    plan = _query_plan(df)
    assert plan.count("BroadcastHashJoin") == 1, plan
    assert "SortMergeJoin" not in plan
    assert len(re.findall(r"(?<!Broadcast)Exchange ", plan)) == 0, plan
    st = sc.statusTracker()
    ran = [
        [s for s in st.getJobInfo(j).stageIds if st.getStageInfo(s).numCompletedTasks]
        for j in st.getJobIdsForGroup("blocked-plan-shape")
    ]
    assert sorted(map(len, ran)) == [1, 1], ran  # the broadcast's, and the query's


def test_blocked_repo_column_in_one_partition(spark, setup):
    """Every column of the blocked repository lies in exactly one of the
    context's default number of Spark partitions."""
    _, _, blocked = setup
    assert blocked.rdd.getNumPartitions() == spark.sparkContext.defaultParallelism
    parts = blocked.select("col_id", F.spark_partition_id().alias("part")).distinct()
    per_col = parts.groupBy("col_id").count().collect()
    assert len(per_col) == blocked.select("col_id").distinct().count()
    assert {r["count"] for r in per_col} == {1}


def test_identical_vectors_across_batches(spark, setup, tiny_lake):
    """τ = 0 finds every copy of a query vector although each copy's pivot
    coordinates are mapped in a one-row batch and the query's in one batch
    of all its vectors, which can round them apart in the last bits."""
    pivots, repo, _ = setup
    Q = tiny_lake.query_vectors
    copies = spark.createDataFrame(
        [("copies", i, "", q.tolist()) for i, q in enumerate(Q)], schema=repo.schema
    ).repartition(len(Q))  # one row per partition, so one per Arrow batch
    lake = repo.unionByName(copies)
    blocked = build_blocked_repo(lake, pivots)
    got = blocked_joinability(spark, blocked, Q, pivots, 0.0)
    q_pdf = pd.DataFrame({"q_id": range(len(Q)), "qvec": [v.tolist() for v in Q]})
    assert_equivalent(
        got,
        f"""
        SELECT l.col_id,
               count(DISTINCT q.q_id) AS n_matched,
               count(DISTINCT q.q_id) / CAST({len(Q)} AS DOUBLE) AS joinability
        FROM lake l JOIN q ON list_distance(
            CAST(l.vec AS DOUBLE[]), CAST(q.qvec AS DOUBLE[])) <= 0
        GROUP BY l.col_id
        """,
        lake=lake.select("col_id", "vec_id", "vec").toPandas(),
        q=q_pdf,
    )
    assert {r["col_id"]: r["n_matched"] for r in got.collect()}["copies"] == len(Q)


@pytest.mark.parametrize("tau", [0.05, 0.9, 1e300, np.inf])
def test_query_region_size_does_not_change_answer(spark, setup, tiny_lake, tau):
    """On this lake, τ = 0.05 gives query regions of one to four key
    cells (five queries touch one); τ = 0.9 gives 36 to 56 cells, and
    τ = 1e300 or inf every cell."""
    pivots, _, blocked = setup
    got = blocked_joinability(spark, blocked, tiny_lake.query_vectors, pivots, tau)
    base = {r["col_id"]: r["n_matched"] for r in got.collect()}
    X, ids = tiny_lake.all_vectors()
    uniq = sorted(set(ids))
    col_idx = np.array([uniq.index(c) for c in ids])
    counts = exact_scan.match_counts(
        tiny_lake.query_vectors, X, col_idx, len(uniq), tau
    )
    for i, cid in enumerate(uniq):
        assert base.get(cid, 0) == counts[i]


@pytest.mark.parametrize("search", [matching_pairs, blocked_joinability])
@pytest.mark.parametrize("bad", ["nan", "non_unit", "nan_tau", "negative_tau"])
def test_rejects_bad_query(spark, setup, tiny_lake, search, bad):
    """A NaN row would fall into a clipped key cell and silently count as
    unmatched; a non-unit row can fall outside the key grid's extent. A
    NaN τ matches nothing, and a negative τ has no key range."""
    pivots, _, blocked = setup
    Q, tau = tiny_lake.query_vectors.copy(), TAU
    if bad == "nan":
        Q[0, 0] = np.nan
    elif bad == "non_unit":
        Q *= 2.0
    else:
        tau = np.nan if bad == "nan_tau" else -0.1
    match = "tau must be" if bad.endswith("tau") else "finite and unit-norm"
    with pytest.raises(ValueError, match=match):
        search(spark, blocked, Q, pivots, tau)


@pytest.mark.parametrize("search", [matching_pairs, blocked_joinability])
def test_rejects_empty_query(spark, setup, tiny_lake, search):
    """An empty query column has no joinability, so it is rejected."""
    pivots, _, blocked = setup
    with pytest.raises(ValueError, match="at least one row"):
        search(spark, blocked, tiny_lake.query_vectors[:0], pivots, TAU)
