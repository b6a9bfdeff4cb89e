"""Tests for the experiment harnesses (reduced-scale runs).

These exercise the exact code paths behind Tables III–VII at small
scale, so the job scripts cannot rot.
"""
import contextlib
import os

import numpy as np
import pytest

from repro.experiments import plans, table3, table5, table6, table7
from repro.experiments.common import TAU_FACTOR, lake_arrays, tau_abs, timed
from repro.ml.datasets import airbnb_lite
from repro.ml.enrich import METHODS
from repro.ml.tasks import run_ml_task


# ---------- common ----------
def test_tau_abs_calibration():
    assert tau_abs(0.06) == pytest.approx(0.06 * TAU_FACTOR * 2.0)
    assert tau_abs(0.02) < tau_abs(0.08)


def test_lake_arrays_cached_and_aligned():
    Q, X, col, uniq = lake_arrays("swdc", 0)
    Q2, X2, col2, uniq2 = lake_arrays("swdc", 0)
    assert X is X2  # lru_cache
    assert len(X) == len(col)
    assert len(uniq) == col.max() + 1
    assert np.allclose(np.linalg.norm(Q, axis=1), 1.0)


def test_timed_returns_result_and_elapsed():
    out, dt = timed(sum, [1, 2, 3])
    assert out == 6 and dt >= 0


# ---------- Table III ----------
def test_table3_rows_match_presets():
    rows = table3.dataset_stats()
    assert [r["dataset"] for r in rows] == ["OPEN-lite#0", "SWDC-lite#0", "LWDC-lite#0"]
    assert rows[0]["dim"] == 300 and rows[1]["dim"] == 50
    assert all(r["n_vectors"] == r["n_columns"] * r["avg_vectors_per_col"]
               for r in rows)
    assert all(r["seconds"] > 0 for r in rows)
    assert "Gen. s" in table3.format_table3(rows)


def test_table3_format_includes_paper():
    txt = table3.format_table3(table3.PAPER_TABLE3)
    assert "17.2M" in txt and "GloVe" in txt


# ---------- Table V ----------
def test_table5_rows_and_format(spark):
    air = airbnb_lite(n_listings=120, n_areas=20, rows_per_sales_table=80, seed=1)
    rows = table5._lifts(run_ml_task(spark, air, n_folds=2), air.task_type)
    assert [r.method for r in rows] == METHODS
    for r in rows:
        assert r.seconds >= 0
        assert (r.lift_no_join is None) == (r.method == "no-join")
    txt = table5.format_table5({air.name: rows})
    assert all(m in txt for m in METHODS)


# ---------- Table VI ----------
def test_table6_small_grid():
    rows = table6.run_table6(datasets=("swdc",))[:4]
    for r in rows:
        assert r.index_s > 0 and r.search_s >= r.block_s >= 0


def test_table6_empirical_optimal():
    rows = table6.run_table6(datasets=("swdc",))
    p, m = table6.empirical_optimal(rows, "SWDC-lite")
    assert p in table6.P_GRID and m in table6.M_GRID


def test_table6_cost_model_m_in_range():
    best, costs = table6.cost_model_optimal_m(kind="swdc", m_max=6)
    assert 1 <= best <= 6
    assert min(costs.values()) == costs[best]
    # §VI-D as EXPERIMENTS.md reports it: OPEN-lite's m* is the paper's analytic 5.
    assert table6.cost_model_optimal_m(kind="open")[0] == 5
    assert table6.cost_model_optimal_m(kind="swdc")[0] == 8


# ---------- Table VII ----------
@pytest.fixture(scope="module")
def eff_rows():
    return table7.run_inmemory(
        datasets=("swdc",), t_grid=[0.2, 0.6], tau_grid=[0.02, 0.06]
    )


def test_table7_exact_methods_agree(eff_rows):
    # run_inmemory itself raises if CTREE/EPT/PEXESO-H/PEXESO/SCAN disagree;
    # reaching here means all 5 methods returned identical joinable sets.
    assert len(eff_rows) == 2 * 2 * len(table7.METHODS) == 2 * 2 * 5


def test_table7_pexeso_fewest_distances(eff_rows):
    by = {}
    for r in eff_rows:
        by.setdefault(r.method, []).append(r.n_distance)
    assert np.mean(by["PEXESO"]) <= np.mean(by["EPT"])
    assert np.mean(by["PEXESO"]) <= np.mean(by["PEXESO-H"])


def test_table7_format(eff_rows):
    txt = table7.format_table7(eff_rows)
    assert "SWDC-lite" in txt and "20%" in txt


def test_table7_outofcore_small(monkeypatch, tmp_path):
    """PEXESO alone writes one PEXESO file per partition and no other index."""
    monkeypatch.setattr(table7.tempfile, "TemporaryDirectory",
                        lambda: contextlib.nullcontext(str(tmp_path)))
    rows = table7.run_outofcore(
        methods=["PEXESO"], t_grid=[0.6], tau_grid=[0.06]
    )
    assert len(rows) == 1
    assert rows[0].dataset == "LWDC-lite" and rows[0].seconds > 0
    files = os.listdir(tmp_path)
    assert len(files) == table7.N_PARTS
    assert all(f.endswith("_pexeso.pkl") for f in files)


def test_table7_outofcore_loads_only_own_index(monkeypatch):
    """Each method's timer unpickles its own index kind, once per partition."""
    load, loaded = table7._load, []

    def recording(path):
        index = load(path)
        loaded.append(type(index).__name__)
        return index

    monkeypatch.setattr(table7, "_load", recording)
    table7.run_outofcore(t_grid=[0.6], tau_grid=[0.02])
    kinds = ["BallTree", "PivotTable", "PexesoIndex", "PexesoIndex", "PexesoIndex"]
    assert loaded == [k for k in kinds for _ in range(table7.N_PARTS)]


@pytest.fixture(scope="module")
def outofcore_rows():
    # run_outofcore raises if the five methods' merged joinable sets differ;
    # at T=20%, τ=8% the exact answer holds 184 LWDC-lite columns.
    return table7.run_outofcore(t_grid=[0.2], tau_grid=[0.08])


def test_table7_outofcore_methods_agree(outofcore_rows):
    assert [r.method for r in outofcore_rows] == table7.METHODS


def test_table7_outofcore_counts_distances(outofcore_rows):
    """Each row sums its method's distance computations over partitions."""
    assert all(r.n_distance >= 0 for r in outofcore_rows)
    by = {r.method: r.n_distance for r in outofcore_rows}
    assert by["PEXESO"] <= by["PEXESO-H"]


def test_table7_outofcore_disagreement_raises(monkeypatch):
    build, search = table7._ENGINES["PEXESO-H"]

    def drop_all(*args):
        return set(), search(*args)[1]

    monkeypatch.setitem(table7._ENGINES, "PEXESO-H", (build, drop_all))
    with pytest.raises(AssertionError, match="disagree"):
        table7.run_outofcore(
            methods=["PEXESO-H", "PEXESO"], t_grid=[0.2], tau_grid=[0.08]
        )


# ---------- scan-or-index calibration ----------
def _plan_samples(want):
    """Samples whose times are ``want``'s predicted seconds."""
    from repro.core import cost

    g = np.random.default_rng(0)
    samples = []
    for _ in range(40):
        n_q, n_x = int(g.integers(4, 90)), int(g.integers(1000, 60000))
        dim = int(g.choice([50, 300]))
        rows = float(g.uniform(100, 200000))
        t = {p: float(cost.plan_features(p, n_q, n_x, dim, rows) @ np.array(want[p]))
             for p in cost.PLANS}
        samples.append(plans.Sample("x", 0.02, n_q, n_x, dim, rows, t["index"], t["scan"],
                                    0.0, "index"))
    return samples


def test_plan_fit_recovers_coefficients():
    """Times made from known non-negative coefficients are fitted back."""
    want = {"index": (2e-3, 2e-9), "scan": (2e-9, 4e-11)}
    got = plans.fit(_plan_samples(want))
    for p in want:
        assert np.allclose(got[p], want[p], rtol=1e-6, atol=1e-15)


def test_plan_fit_rejects_negative_coefficient():
    """Times that fall as the index plan's rows grow do not make a model."""
    with pytest.raises(ValueError, match="negative"):
        plans.fit(_plan_samples({"index": (5e-2, -1e-10), "scan": (2e-9, 4e-11)}))
