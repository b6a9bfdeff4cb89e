"""Table III: dataset statistics for the three (substituted) lakes."""
from __future__ import annotations

from repro.experiments.common import lite_lake, timed

__all__ = ["PAPER_TABLE3", "dataset_stats", "format_table3"]

#: The paper's Table III rows, for side-by-side comparison.
PAPER_TABLE3 = [
    {"dataset": "OPEN", "n_vectors": "17.2M", "n_columns": "21.6K",
     "avg_vectors_per_col": 796, "model": "fastText", "dim": 300},
    {"dataset": "SWDC", "n_vectors": "8.6M", "n_columns": "516K",
     "avg_vectors_per_col": 16.7, "model": "GloVe", "dim": 50},
    {"dataset": "LWDC", "n_vectors": "602M", "n_columns": "48.9M",
     "avg_vectors_per_col": 12.3, "model": "GloVe", "dim": 50},
]


def dataset_stats() -> list[dict]:
    """Our Table III: one stats row per generated lake, plus ``seconds``,
    the time to generate and embed it (an uncached build)."""
    rows = []
    for kind in ("open", "swdc", "lwdc"):
        lake, seconds = timed(lite_lake.__wrapped__, kind, 0)
        rows.append({**lake.stats(), "seconds": seconds})
    return rows


def format_table3(rows: list[dict]) -> str:
    hdr = (
        f"{'Dataset':12s} {'# Vec.':>10s} {'# Col.':>8s} {'Avg.#Vec':>9s} "
        f"{'Model':>10s} {'Dim.':>5s} {'Gen. s':>7s}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{str(r['dataset']):12s} {str(r['n_vectors']):>10s} "
            f"{str(r['n_columns']):>8s} {str(r['avg_vectors_per_col']):>9s} "
            f"{str(r['model']):>10s} {str(r['dim']):>5s} "
            + (f"{r['seconds']:7.2f}" if "seconds" in r else f"{'-':>7s}")
        )
    return "\n".join(lines)
