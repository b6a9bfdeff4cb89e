"""Tests for the ML-task substrate (datasets, enrichment, training)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines import exact_scan
from repro.ml.datasets import N_CATEGORIES, airbnb_lite, company_lite
from repro.ml.enrich import _embed, _lake_pdf, enrich, record_pairs
from repro.ml.tasks import cross_validate
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def air():
    return airbnb_lite(n_listings=120, n_areas=20, rows_per_sales_table=80, seed=1)


@pytest.fixture(scope="module")
def comp():
    return company_lite(n_companies=150, n_lake_tables=3, rows_per_table=60, seed=2)


# ---------- datasets ----------
def test_airbnb_shapes(air):
    assert len(air.query) == 120
    assert len(air.lake_tables) == 5
    assert air.task_type == "regression"
    assert set(air.base_features) <= set(air.query.columns)


def test_company_shapes(comp):
    assert len(comp.query) == 150
    assert comp.query["category"].between(0, N_CATEGORIES - 1).all()
    assert comp.task_type == "classification"


def test_airbnb_price_correlates_with_level(air):
    """Listings in the same area share the latent level: same-area price
    variance must be below global variance."""
    q = air.query
    within = q.groupby("neighborhood")["price"].var().mean()
    assert within < q["price"].var()


def test_datasets_deterministic():
    a = airbnb_lite(n_listings=50, seed=9).query
    b = airbnb_lite(n_listings=50, seed=9).query
    pd.testing.assert_frame_equal(a, b)


# ---------- record pairs ----------
def test_equi_pairs_match_oracle(spark, air):
    got = record_pairs(spark, air, "equi")
    lake_rows = []
    for name, t in air.lake_tables.items():
        for i, v in enumerate(t["key"]):
            lake_rows.append((name, i, v))
    lake = pd.DataFrame(lake_rows, columns=["col_id", "vec_id", "value"])
    q = pd.DataFrame(
        {"q_id": range(len(air.query)), "q_value": air.query["neighborhood"]}
    )
    assert_equivalent(
        got,
        """
        SELECT l.col_id, l.vec_id, q.q_id
        FROM lake l JOIN q ON l.value = q.q_value
        """,
        lake=lake,
        q=q,
    )


def test_no_join_pairs_empty(spark, air):
    assert len(record_pairs(spark, air, "no-join")) == 0


def test_pexeso_pairs_superset_of_equi(spark, air):
    """Identical strings embed identically (d=0 ≤ τ), so the vector join
    must recover at least the distinct equi pairs."""
    eq = set(record_pairs(spark, air, "equi").itertuples(index=False, name=None))
    px = set(record_pairs(spark, air, "pexeso", tau=0.3).itertuples(index=False, name=None))
    assert eq <= px


@pytest.mark.parametrize("tau", [0.2, 0.5, 0.7])
def test_pexeso_pairs_match_scan(spark, air, tau):
    """PEXESO's record pairs are the brute-force scan's over the embedded lake."""
    lake = _lake_pdf(air)
    q, x = exact_scan.pairs(_embed(air.query[air.key_col].astype(str)), _embed(lake["value"]), tau)
    want = zip(lake["col_id"].iloc[x], lake["vec_id"].iloc[x], q.tolist())
    got = list(record_pairs(spark, air, "pexeso", tau=tau).itertuples(index=False, name=None))
    assert sorted(got) == sorted(want)


def test_pexeso_pairs_start_no_spark_job(air):
    """PEXESO's record pairs come from the numpy engine as a pandas frame;
    no Spark session is needed."""
    pairs = record_pairs(None, air, "pexeso", tau=0.3)
    assert isinstance(pairs, pd.DataFrame)
    assert list(pairs.columns) == ["col_id", "vec_id", "q_id"] and len(pairs) > 0


def test_unknown_method_raises(spark, air):
    with pytest.raises(ValueError):
        record_pairs(spark, air, "nope")


@pytest.mark.parametrize("method", ["jaccard", "fuzzy"])
def test_similarity_pairs_nonempty(spark, air, method):
    assert len(record_pairs(spark, air, method, theta=0.5)) > 0


# ---------- enrichment ----------
def test_enrich_no_join_keeps_table(spark, air):
    pairs = record_pairs(spark, air, "no-join")
    widened, new_cols, rate = enrich(air, pairs)
    assert rate == 0.0
    assert len(widened) == len(air.query)
    for c in new_cols:
        assert (widened[c] == 0.0).all()


def test_enrich_pexeso_fills_features(spark, air):
    pairs = record_pairs(spark, air, "pexeso", tau=0.5)
    widened, new_cols, rate = enrich(air, pairs)
    assert rate > 0.0
    assert len(new_cols) == 5 * 2  # 5 sales tables × 2 features
    filled = sum((widened[c] != 0).any() for c in new_cols)
    assert filled > 0


def test_enrich_match_rate_monotone_in_tau(spark, air):
    r_small = enrich(air, record_pairs(spark, air, "pexeso", tau=0.2))[2]
    r_large = enrich(air, record_pairs(spark, air, "pexeso", tau=0.7))[2]
    assert r_large >= r_small


# ---------- training ----------
def test_cross_validate_regression_sane(spark, air):
    rmse = cross_validate(
        spark, air.query, air.base_features, "price", "regression", n_folds=2
    )
    assert 0 < rmse < air.query["price"].std() * 2


def test_cross_validate_classification_sane(spark, comp):
    f1 = cross_validate(
        spark, comp.query, comp.base_features, "category", "classification",
        n_folds=2,
    )
    assert 1.0 / N_CATEGORIES - 0.05 < f1 <= 1.0


def test_enrichment_improves_regression(spark, air):
    """The Table Va headline: PEXESO enrichment lowers RMSE vs no-join."""
    base = cross_validate(
        spark, air.query, air.base_features, "price", "regression", n_folds=2
    )
    pairs = record_pairs(spark, air, "pexeso", tau=0.5)
    widened, new_cols, _ = enrich(air, pairs)
    enriched = cross_validate(
        spark, widened, air.base_features + new_cols, "price", "regression",
        n_folds=2,
    )
    assert enriched < base
