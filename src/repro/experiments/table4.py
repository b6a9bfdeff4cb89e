"""Table IV: precision & recall of joinable table search.

Five methods — equi, Jaccard, fuzzy, PEXESO, and "our join with PQ-85"
— retrieve columns from OPEN-lite and SWDC-lite; precision/recall are
measured against the planted ground truth (a column is truly joinable
iff its construction overlap ≥ T_TRUTH; DESIGN.md §3 documents this
substitution for the paper's human labels). Per the paper, each
method's thresholds are tuned and its best operating point (max F1) is
reported. Results are averaged over several independently seeded
query tables per dataset.

The per-pair similarity matrices for Jaccard/fuzzy are computed once
per seed as Spark dataflows (explode → join → groupBy max), then the
threshold sweeps run in pandas — the idiomatic heavy-join-once,
sweep-cheaply shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.baselines.equi import query_df
from repro.baselines.fuzzy import char_ngrams
from repro.baselines.jaccard import set_similarity, tokens
from repro.baselines.pq import PQIndex, calibrate_radius_scale, pq_search
from repro.core.pexeso import PexesoIndex, t_abs
from repro.experiments.common import (
    PAPER_TAU_GRID,
    lake_arrays,
    lite_lake,
    tau_abs,
    timed,
)
from repro.lake.generator import lake_to_spark

__all__ = ["PAPER_TABLE4", "run_table4", "format_table4"]

T_TRUTH = 0.5
T_SWEEP = [0.2, 0.3, 0.4, 0.5, 0.6]
THETA_SWEEP = [0.4, 0.5, 0.6, 0.7, 0.8]
SEEDS = [0, 1, 2]

PAPER_TABLE4 = {
    "OPEN": {
        "equi-join": (1.000, 0.613),
        "Jaccard-join": (0.876, 0.733),
        "fuzzy-join": (0.834, 0.797),
        "PEXESO": (0.911, 0.823),
        "our join with PQ-85": (0.787, 0.426),
    },
    "SWDC": {
        "equi-join": (1.000, 0.595),
        "Jaccard-join": (0.919, 0.788),
        "fuzzy-join": (0.865, 0.837),
        "PEXESO": (0.948, 0.870),
        "our join with PQ-85": (0.744, 0.475),
    },
}


@dataclass
class PR:
    precision: float
    recall: float
    seconds: float  # one retrieval at this operating point

    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def _pr(retrieved: set, truth: set, seconds: float) -> PR:
    if not retrieved:
        return PR(1.0, 0.0 if truth else 1.0, seconds)
    inter = len(retrieved & truth)
    return PR(inter / len(retrieved), inter / len(truth) if truth else 1.0, seconds)


def _mean(prs: list[PR]) -> PR:
    return PR(*np.mean([(p.precision, p.recall, p.seconds) for p in prs], axis=0).tolist())


def _max_sim_pairs(
    spark: SparkSession, query: list[str], lake_df, grams
) -> pd.DataFrame:
    """(col_id, q_id, sim): max record-level Jaccard per (column, query)."""
    sim = set_similarity(query_df(spark, query), lake_df, grams)
    return sim.groupBy("col_id", "q_id").agg(F.max("sim").alias("sim")).toPandas()


def _sweep_string_method(
    sim_pdf: pd.DataFrame, seconds: float, n_q: int, truth: set
) -> dict[tuple[float, float], PR]:
    """PR at every (θ, T) from the collected max-similarity pairs, each
    charged the ``seconds`` of the one job that collected them."""
    out = {}
    for theta in THETA_SWEEP:
        hits = sim_pdf[sim_pdf["sim"] >= theta]
        counts = hits.groupby("col_id")["q_id"].nunique()
        for T in T_SWEEP:
            retrieved = set(counts[counts >= np.ceil(T * n_q)].index)
            out[(theta, T)] = _pr(retrieved, truth, seconds)
    return out


def _equi_counts(spark, query, lake_df) -> pd.Series:
    from repro.baselines.equi import equi_joinability

    pdf = equi_joinability(spark, query, lake_df).toPandas()
    return pdf.set_index("col_id")["n_matched"]


def run_table4(spark: SparkSession, *, seeds=SEEDS) -> dict[str, dict[str, PR]]:
    """{dataset: {method: best PR}} averaged over seeds.

    Each PR's ``seconds`` is one retrieval at that operating point: the
    Spark job behind every threshold of equi/Jaccard/fuzzy, one
    ``PexesoIndex.search``, one PQ-85 ``pq_search``.
    """
    results: dict[str, dict[str, PR]] = {}
    for ds_name, kind in [("OPEN", "open"), ("SWDC", "swdc")]:
        # Per-seed, per-method PR curves; average then pick best F1.
        curves: dict[str, list[dict]] = {}
        for seed in seeds:
            lake = lite_lake(kind, seed)
            truth = lake.truly_joinable(T_TRUTH)
            n_q = len(lake.query)
            lake_df = lake_to_spark(spark, lake).select("col_id", "vec_id", "value")
            lake_df.cache().count()

            # equi: threshold sweep on T only.
            counts, eq_s = timed(_equi_counts, spark, lake.query, lake_df)
            eq = {}
            for T in T_SWEEP:
                retrieved = set(counts[counts >= np.ceil(T * n_q)].index)
                eq[(None, T)] = _pr(retrieved, truth, eq_s)
            curves.setdefault("equi-join", []).append(eq)

            # jaccard / fuzzy: one Spark job each, sweeps in pandas.
            for method, grams in (("Jaccard-join", tokens), ("fuzzy-join", char_ngrams)):
                sim, sim_s = timed(_max_sim_pairs, spark, lake.query, lake_df, grams)
                curves.setdefault(method, []).append(
                    _sweep_string_method(sim, sim_s, n_q, truth)
                )

            # PEXESO: numpy engine over the embedded lake.
            Q, X, col, uniq = lake_arrays(kind, seed)
            engine = PexesoIndex(X, col, len(uniq), n_pivots=5, m=4)
            px = {}
            for pct in PAPER_TAU_GRID:
                tau = tau_abs(pct)
                for T in T_SWEEP:
                    res, px_s = timed(engine.search, Q, tau, T)
                    retrieved = {uniq[i] for i in res.joinable}
                    px[(pct, T)] = _pr(retrieved, truth, px_s)
            curves.setdefault("PEXESO", []).append(px)
            lake_df.unpersist()

        # Average PR curves over seeds, choose best-F1 operating point.
        best_params: dict[str, tuple] = {}
        results[ds_name] = {}
        for method, per_seed in curves.items():
            avg = {k: _mean([c[k] for c in per_seed]) for k in per_seed[0]}
            best_k = max(avg, key=lambda k: avg[k].f1())
            best_params[method] = best_k
            results[ds_name][method] = avg[best_k]

        # PQ-85: PEXESO's best (τ, T) with approximate range queries.
        pct, T = best_params["PEXESO"]
        tau = tau_abs(pct)
        prs = []
        for seed in seeds:
            truth = lite_lake(kind, seed).truly_joinable(T_TRUTH)
            Q, X, col, uniq = lake_arrays(kind, seed)
            # Coarse codebooks (8 codes/subspace): at lite scale a fine
            # quantizer is near-exact, which would hide the PQ failure
            # mode Table IV demonstrates; nanopq-by-default-on-8.6M-
            # vector lakes operates at comparable relative distortion.
            n_sub = 6 if X.shape[1] % 6 == 0 else 5
            pq = PQIndex(X, n_subspaces=n_sub, n_codes=8, seed=seed)
            scale = calibrate_radius_scale(pq, X, Q, tau, 0.85)
            joinable, pq_s = timed(
                pq_search, pq, col, len(uniq), Q, tau, t_abs(T, len(Q)), scale=scale
            )
            prs.append(_pr({uniq[i] for i in joinable}, truth, pq_s))
        results[ds_name]["our join with PQ-85"] = _mean(prs)
    return results


def format_table4(results: dict[str, dict[str, PR]]) -> str:
    lines = [
        f"{'Method':22s} " + "  ".join(
            f"{ds} P/R (paper P/R)".center(34) + f"{'s':>8s}" for ds in results
        )
    ]
    for method in ["equi-join", "Jaccard-join", "fuzzy-join", "PEXESO",
                   "our join with PQ-85"]:
        cells = []
        for ds, rows in results.items():
            pr = rows[method]
            pp, pr_paper = PAPER_TABLE4[ds][method]
            cells.append(
                f"{pr.precision:5.3f}/{pr.recall:5.3f} "
                f"(paper {pp:5.3f}/{pr_paper:5.3f})".center(34)
                + f"{pr.seconds:8.4f}"
            )
        lines.append(f"{method:22s} " + "  ".join(cells))
    return "\n".join(lines)
