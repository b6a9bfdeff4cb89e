"""Table VII job: efficiency grid (in-memory + out-of-core)."""
from repro.experiments.table7 import METHODS, format_table7, run_inmemory, run_outofcore

if __name__ == "__main__":
    rows = run_inmemory() + run_outofcore()
    print("== Table VII: search time grid (ours; see EXPERIMENTS.md for paper) ==")
    print(format_table7(rows))
    # Summary ratios (the paper's headline claims).
    import numpy as np

    for ds in sorted({r.dataset for r in rows}):
        by = {
            m: np.mean([r.seconds for r in rows if r.dataset == ds and r.method == m])
            for m in METHODS
        }
        print(
            f"{ds}: mean s — "
            + ", ".join(f"{m} {by[m]:.3f}" for m in METHODS)
            + f"; PEXESO speedup vs slowest {max(by.values()) / by['PEXESO']:.1f}x, "
            f"vs PEXESO-H {by['PEXESO-H'] / by['PEXESO']:.1f}x, "
            f"vs SCAN {by['SCAN'] / by['PEXESO']:.2f}x"
        )
