"""Refit the scan-or-index planner's constants on this host.

    OPENBLAS_NUM_THREADS=1 python jobs/calibrate_plan.py

Prints the refitted ``core/cost.PLAN_COEF`` beside the checked-in one
and ROADMAP item 3's nine-cell table: per cell, the median ms of PEXESO
(the index plan), the scan and the planned search with the checked-in
constants. Paste the refitted constants into ``core/cost.py`` to adopt
them.
"""
from repro.core.cost import PLAN_COEF
from repro.experiments.plans import cell_table, fit, format_cells, measure

if __name__ == "__main__":
    samples = measure()
    refit = fit(samples)
    for plan, coef in refit.items():
        print(f"{plan:6s} checked in: {', '.join(f'{c:.4g}' for c in PLAN_COEF[plan])}")
        print(f"{plan:6s} refitted:   {', '.join(f'{c:.4g}' for c in coef)}")
    print(format_cells(cell_table(samples)))
