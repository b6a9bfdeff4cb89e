"""Tests for the synthetic data-lake generator and its ground truth."""
import numpy as np
import pytest

from repro.lake.generator import (
    LWDC_LITE,
    OPEN_LITE,
    SWDC_LITE,
    lake_to_spark,
    make_lake,
    normalize,
)


@pytest.mark.parametrize(
    "raw,expanded",
    [
        ("616 East 9th St.", "616 east 9th street"),
        ("Acme Corp.", "acme corporation"),
        ("Main AVE, 4E", "main avenue 4e"),
        ("plain words", "plain words"),
    ],
)
def test_normalize(raw, expanded):
    assert normalize(raw) == expanded


def test_lake_shapes(tiny_lake):
    assert len(tiny_lake.query) == 12
    assert len(tiny_lake.columns) == 60
    assert tiny_lake.query_vectors.shape == (12, 32)
    for c in tiny_lake.columns:
        assert c.vectors.shape == (len(c.strings), 32)
        assert np.allclose(np.linalg.norm(c.vectors, axis=1), 1.0)


def test_lake_deterministic():
    a = make_lake(name="d", n_columns=10, n_query=5, col_size=8, dim=16,
                  model="glove", seed=3)
    b = make_lake(name="d", n_columns=10, n_query=5, col_size=8, dim=16,
                  model="glove", seed=3)
    assert a.query == b.query
    assert all(x.strings == y.strings for x, y in zip(a.columns, b.columns))


def test_joinable_columns_have_overlap(tiny_lake):
    joinables = [c for c in tiny_lake.columns if c.truth_overlap > 0]
    distractors = [c for c in tiny_lake.columns if c.truth_overlap == 0]
    assert joinables and distractors
    qset = set(tiny_lake.query)
    # Distractor columns never contain a query entity verbatim.
    for c in distractors:
        assert not (set(c.strings) & qset)
    # equi overlap (verbatim) never exceeds semantic overlap.
    for c in tiny_lake.columns:
        assert c.equi_overlap <= c.truth_overlap + 1e-9


def test_equi_overlap_matches_strings(tiny_lake):
    """equi_overlap must equal the verbatim-overlap actually in the data."""
    qset = set(tiny_lake.query)
    n_q = len(tiny_lake.query)
    for c in tiny_lake.columns:
        verbatim = len({s for s in c.strings if s in qset})
        assert verbatim == pytest.approx(c.equi_overlap * n_q, abs=1e-6)


def test_truly_joinable_monotone(tiny_lake):
    lo = tiny_lake.truly_joinable(0.2)
    hi = tiny_lake.truly_joinable(0.6)
    assert hi <= lo


def test_stats_row(tiny_lake):
    s = tiny_lake.stats()
    assert s["n_columns"] == 60
    assert s["n_vectors"] == sum(len(c) for c in tiny_lake.columns)
    assert s["model"] == "glove" and s["dim"] == 32


def test_all_vectors_alignment(tiny_lake):
    X, ids = tiny_lake.all_vectors()
    assert len(X) == len(ids) == sum(len(c) for c in tiny_lake.columns)
    # First column's block is its own vectors.
    c0 = tiny_lake.columns[0]
    assert np.allclose(X[: len(c0)], c0.vectors)
    assert set(ids[: len(c0)]) == {c0.col_id}


@pytest.mark.parametrize("preset", [OPEN_LITE, SWDC_LITE, LWDC_LITE])
def test_presets_consistent(preset):
    assert preset["n_query"] <= preset["col_size"] or preset["n_query"] <= 64


def test_lake_to_spark_roundtrip(spark, tiny_lake):
    df = lake_to_spark(spark, tiny_lake)
    n = df.count()
    assert n == sum(len(c) for c in tiny_lake.columns)
    assert set(df.columns) == {"col_id", "vec_id", "value", "vec"}
    assert df.select("col_id").distinct().count() == len(tiny_lake.columns)


_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"


@pytest.fixture
def threshold(spark):
    """A threshold above the lake's size that no other call leaves behind,
    restored afterwards."""
    before = spark.conf.get(_THRESHOLD)
    spark.conf.set(_THRESHOLD, "100000000")
    yield spark.conf.get(_THRESHOLD)
    spark.conf.set(_THRESHOLD, before)


def test_lake_to_spark_rows_and_plan(spark, tiny_lake, threshold):
    """Every row arrives intact, the plan holds an RDD, not the rows, and
    the session's threshold is as it was."""
    df = lake_to_spark(spark, tiny_lake)
    assert spark.conf.get(_THRESHOLD) == threshold
    got = sorted(
        (r["col_id"], r["vec_id"], r["value"], tuple(r["vec"])) for r in df.collect()
    )
    want = sorted(
        (c.col_id, i, s, tuple(v.tolist()))
        for c in tiny_lake.columns
        for i, (s, v) in enumerate(zip(c.strings, c.vectors))
    )
    assert got == want
    plan = df._jdf.queryExecution().analyzed()
    assert plan.getClass().getSimpleName() != "LocalRelation"


def test_lake_to_spark_restores_threshold_on_error(monkeypatch, spark, tiny_lake, threshold):
    def fail(*args, **kwargs):
        raise RuntimeError("createDataFrame failed")

    monkeypatch.setattr(spark, "createDataFrame", fail)
    with pytest.raises(RuntimeError, match="createDataFrame failed"):
        lake_to_spark(spark, tiny_lake)
    assert spark.conf.get(_THRESHOLD) == threshold
