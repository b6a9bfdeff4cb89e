"""Table V: performance gain in ML tasks (price regression + company
classification) for each discovery/join method."""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.ml.datasets import airbnb_lite, company_lite
from repro.ml.tasks import MLRow, run_ml_task

__all__ = ["PAPER_TABLE5A", "PAPER_TABLE5B", "run_table5", "format_table5"]

# method -> (match %, score, lift vs no-join %, lift vs equi %)
PAPER_TABLE5A = {
    "no-join": (None, 221.82, None, None),
    "equi": (0.08, 223.20, -0.62, None),
    "jaccard": (0.24, 219.09, +1.23, +1.84),
    "fuzzy": (0.38, 216.67, +2.32, +2.92),
    "pexeso": (0.40, 215.95, +2.65, +3.25),
}
PAPER_TABLE5B = {
    "no-join": (None, 0.825, None, None),
    "equi": (0.0013, 0.806, -2.30, None),
    "jaccard": (0.0054, 0.816, +1.09, +1.24),
    "fuzzy": (0.0083, 0.836, +1.33, +3.72),
    "pexeso": (0.0076, 0.855, +3.64, +6.08),
}


@dataclass
class Table5Row:
    method: str
    match_rate: float | None
    score: float
    lift_no_join: float | None
    lift_equi: float | None
    seconds: float  # record_pairs + enrich


def _lifts(rows: list[MLRow], task_type: str) -> list[Table5Row]:
    by = {r.method: r for r in rows}
    base, equi = by["no-join"].score, by["equi"].score

    def lift(score: float, ref: float) -> float:
        # Regression: lower RMSE is better; classification: higher F1.
        return (
            100.0 * (ref - score) / ref
            if task_type == "regression"
            else 100.0 * (score - ref) / ref
        )

    out = []
    for r in rows:
        out.append(
            Table5Row(
                method=r.method,
                match_rate=None if r.method == "no-join" else r.match_rate,
                score=r.score,
                lift_no_join=None if r.method == "no-join" else lift(r.score, base),
                lift_equi=(
                    None if r.method in ("no-join", "equi") else lift(r.score, equi)
                ),
                seconds=r.seconds,
            )
        )
    return out


def run_table5(
    spark: SparkSession, *, theta: float = 0.5, tau: float = 0.5
) -> dict[str, list[Table5Row]]:
    """Both Table V panels."""
    out = {}
    for task in (airbnb_lite(), company_lite()):
        rows = run_ml_task(spark, task, theta=theta, tau=tau)
        out[task.name] = _lifts(rows, task.task_type)
    return out


def format_table5(results: dict[str, list[Table5Row]]) -> str:
    papers = {"airbnb-lite": PAPER_TABLE5A, "company-lite": PAPER_TABLE5B}
    lines = []
    for name, rows in results.items():
        metric = "RMSE" if name == "airbnb-lite" else "micro-F1"
        lines.append(f"\n== {name} ({metric}; paper values in parens) ==")
        lines.append(
            f"{'Method':10s} {'#Match':>12s} {metric:>18s} "
            f"{'vs no-join':>16s} {'vs equi':>16s} {'s':>7s}"
        )
        paper = papers[name]
        for r in rows:
            p = paper.get(r.method, (None,) * 4)
            fmt = lambda v, pv, pat="{:+.2f}%": (
                ("-" if v is None else pat.format(v))
                + ("" if pv is None else f" ({pat.format(pv)})")
            )
            match = (
                "-"
                if r.match_rate is None
                else f"{100 * r.match_rate:.1f}%"
                + (f" ({100 * p[0]:.2f}%)" if p[0] is not None else "")
            )
            lines.append(
                f"{r.method:10s} {match:>12s} "
                f"{r.score:8.3f} ({p[1]:.3f}) "
                f"{fmt(r.lift_no_join, p[2]):>16s} {fmt(r.lift_equi, p[3]):>16s} "
                f"{r.seconds:7.2f}"
            )
    return "\n".join(lines)
