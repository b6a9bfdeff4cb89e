"""Cost model and optimal grid depth (§III-E, Eq. 1–2).

The expected verification cost of a query workload is the number of
exact distance computations, ``E = Σ_{q∈C} N(SQR(q', τ))`` (Eq. 1)
where ``C`` is the multiset of query vectors in candidate pairs.
``N(SQR(q', τ))`` is bounded (Eq. 2) by the smallest per-pivot marginal
count: on pivot ``j``, the rows whose cell meets ``[q'[j] − τ, q'[j] +
τ]`` (vectors anywhere in a touched cell must be scanned).
:func:`region_counts` takes those counts from per-pivot cumulative
counts of the cells (:func:`leaf_marginals`, kept by the index) at the
leaf level, or at ``MARGINAL_LEVEL`` for deeper grids: a coarser cell
holds its leaves' rows, so the count still bounds the region.

Choosing ``m``: a deeper grid shrinks the cells a region touches (fewer
scanned vectors) but multiplies cells and inverted-index accesses, so
the modeled total cost is ``E(m) + ALPHA · |C(m)|`` with α the
per-postings access cost relative to one distance computation. We
evaluate the model on the integer grid ``m ∈ [1..m_max]`` (the paper
uses gradient descent and rounds up; an integer sweep is exact for the
same argmin).

Choosing a plan per query column: the same marginal counts, multiplied
as if the pivots were independent, predict how many rows the index plan
touches (:func:`region_rows`). The index plan's seconds are predicted
as a constant plus that row count times d, the scan's from |X|·d and
|X|·|Q|·d. Their coefficients (``PLAN_COEF``) are fitted once by
``jobs/calibrate_plan.py`` and checked in, so choosing reads no clock
and a query column always gets the same plan.
"""
from __future__ import annotations

import numpy as np

from repro.core import block as blockmod
from repro.core.grid import HierarchicalGrid, leaf_coords
from repro.core.pivots import pivot_map, select_pivots

__all__ = [
    "ALPHA", "MARGINAL_LEVEL", "expected_cost", "optimal_m", "leaf_marginals",
    "region_counts", "region_rows", "plan_features", "predicted_seconds", "scan_surely_cheaper",
    "choose_plan", "PLANS", "PLAN_COEF",
]

#: α: the cost of one candidate pair's inverted-index access relative to
#: one distance computation.
ALPHA = 0.5
#: Deepest level whose marginals the index keeps: |P| × (2^level + 1)
#: integers, so they do not grow as 2^m past it.
MARGINAL_LEVEL = 10
#: The two ways to answer a query column: Algorithm 2 over the blocking
#: output, or the exact GEMM scan of ``core/scan.py``.
PLANS = ("index", "scan")
#: Seconds per unit of each :func:`plan_features` term, fitted by
#: ``jobs/calibrate_plan.py`` on a 4-core x86-64 host with one BLAS thread.
PLAN_COEF = {
    "index": (1.363e-3, 6.465e-10),
    "scan": (4.582e-10, 1.839e-11),
}


def expected_cost(Xp: np.ndarray, Qp: np.ndarray, m: int, tau: float) -> float:
    """Eq. 1 with Eq. 2 upper bounds, plus the index-access term.

    Blocking is run for real (cheap — §VI-D shows it is negligible);
    verification cost is *estimated*, per the paper's §III-E procedure.
    """
    hg_s = HierarchicalGrid(Xp, m)
    blocks = blockmod.block(HierarchicalGrid(Qp, m), hg_s, Qp, tau)
    # One N_max term per query vector with a candidate pair: its candidate
    # cells are exactly the leaf cells its SQR touches, so the marginal
    # bound already covers all of them together.
    qs = np.unique(blocks.q[~blocks.matched])
    e = int(region_counts(leaf_marginals(hg_s), Qp[qs], tau).min(axis=1).sum())
    return e + ALPHA * blocks.n_candidates()


def optimal_m(
    X: np.ndarray,
    workload: list[tuple[np.ndarray, float]],
    *,
    n_pivots: int = 5,
    m_max: int = 8,
    seed: int = 0,
) -> tuple[int, dict[int, float]]:
    """Pick m minimizing the modeled cost over a (Q, τ) workload.

    Returns ``(best_m, {m: total modeled cost})``.
    """
    pivots = select_pivots(X, n_pivots, seed=seed)
    Xp = pivot_map(X, pivots)
    Qps = [(pivot_map(Q, pivots), tau) for Q, tau in workload]
    costs = {m: float(sum(expected_cost(Xp, Qp, m, tau) for Qp, tau in Qps))
             for m in range(1, m_max + 1)}
    return min(costs, key=costs.get), costs


def leaf_marginals(grid: HierarchicalGrid) -> np.ndarray:
    """Per pivot, the cumulative count of rows by cell coordinate at level
    ``l = min(m, MARGINAL_LEVEL)``: row ``j`` holds, at ``k``, the rows
    whose level-``l`` coordinate on pivot ``j`` is below ``k`` (|P| ×
    (2^l + 1) integers)."""
    m = min(grid.m, MARGINAL_LEVEL)
    sizes = np.diff(grid.starts[m])
    out = np.zeros((grid.dims, (1 << m) + 1), dtype=np.int64)
    for j, c in enumerate(grid.coords[m].T):
        np.cumsum(np.bincount(c, weights=sizes, minlength=1 << m).astype(np.int64),
                  out=out[j, 1:])
    return out


def region_counts(marginals: np.ndarray, Qp: np.ndarray, tau: float) -> np.ndarray:
    """Eq. 2's per-pivot counts: for each query vector (rows) and pivot
    ``j`` (columns), the rows whose cell on pivot ``j`` meets ``[q'[j] −
    τ, q'[j] + τ]``. Their minimum over the pivots bounds the rows in the
    query vector's square region."""
    m = (marginals.shape[1] - 1).bit_length() - 1  # 2^m + 1 entries per pivot
    lo, hi = leaf_coords(Qp - tau, m), leaf_coords(Qp + tau, m) + 1
    j = np.arange(Qp.shape[1])
    return marginals[j, hi] - marginals[j, lo]


def region_rows(marginals: np.ndarray, Qp: np.ndarray, tau: float) -> float:
    """The rows the index plan is predicted to touch, summed over the query
    vectors: the count :func:`region_counts` gives if the pivots were
    independent, |X| · Π_j (rows on pivot j / |X|)."""
    n = marginals[0, -1]
    return float((n * np.prod(region_counts(marginals, Qp, tau) / n, axis=1)).sum())


def plan_features(plan: str, n_q: int, n_x: int, dim: int, rows: float) -> np.ndarray:
    """The terms whose weighted sum is a plan's predicted seconds for a
    query column of ``n_q`` vectors against ``n_x`` rows of dimension
    ``dim``; ``rows`` is :func:`region_rows`' prediction."""
    if plan == "index":
        return np.array([1.0, rows * dim], dtype=float)
    return np.array([n_x * dim, n_x * n_q * dim], dtype=float)


def predicted_seconds(plan: str, n_q: int, n_x: int, dim: int, rows: float) -> float:
    """A plan's :func:`plan_features` weighted by ``PLAN_COEF``."""
    return float(plan_features(plan, n_q, n_x, dim, rows) @ np.asarray(PLAN_COEF[plan]))


def scan_surely_cheaper(n_q: int, n_x: int, dim: int) -> bool:
    """Whether the scan's predicted seconds are below the index plan's
    constant term. The index plan's other term is never negative, so
    :func:`choose_plan` then picks the scan whatever ``rows`` is, and a
    caller need not map the query to compute it."""
    return predicted_seconds("scan", n_q, n_x, dim, 0.0) < PLAN_COEF["index"][0]


def choose_plan(n_q: int, n_x: int, dim: int, rows: float) -> str:
    """The plan with the lower predicted seconds; the index on a tie."""
    t = {p: predicted_seconds(p, n_q, n_x, dim, rows) for p in PLANS}
    return "scan" if t["scan"] < t["index"] else "index"
