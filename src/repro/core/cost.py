"""Cost model and optimal grid depth (§III-E, Eq. 1–2).

The expected verification cost of a query workload is the number of
exact distance computations, ``E = Σ_{q∈C} N(SQR(q', τ))`` (Eq. 1)
where ``C`` is the multiset of query vectors in candidate pairs.
``N(SQR(q', τ))`` is bounded (Eq. 2) by the smallest per-dimension
marginal count of mapped target vectors inside the square region,
widened by half a leaf-cell side (vectors anywhere in a touched cell
must be scanned).

Choosing ``m``: a deeper grid shrinks the slack term (fewer scanned
vectors) but multiplies cells and inverted-index accesses, so the
modeled total cost is ``E(m) + α · |C(m)|`` with α the per-postings
access cost relative to one distance computation. We evaluate the model
on the integer grid ``m ∈ [1..m_max]`` (the paper uses gradient descent
and rounds up; an integer sweep is exact for the same argmin).

Choosing a plan per query column: the same Eq. 2 bound, taken on
per-pivot marginal counts of the leaf cells (``leaf_marginals``, kept by
the index), and the count the same marginals give under independent
pivots predict how many rows the index plan touches. The index plan's
seconds are predicted as a constant plus terms in those two counts (one
of them times d), the scan's from |X|·d and |X|·|Q|·d.
Its coefficients (``PLAN_COEF``) are fitted once by
``jobs/calibrate_plan.py`` and checked in, so choosing reads no clock
and a query column always gets the same plan.
"""
from __future__ import annotations

import numpy as np

from repro.core import block as blockmod
from repro.core.grid import DOMAIN, HierarchicalGrid, leaf_coords
from repro.core.pivots import pivot_map, select_pivots

__all__ = [
    "n_max_sqr", "expected_cost", "optimal_m", "leaf_marginals", "region_rows",
    "plan_features", "choose_plan", "PLANS", "PLAN_COEF",
]

#: The two ways to answer a query column: Algorithm 2 over the blocking
#: output, or the exact GEMM scan of ``core/scan.py``.
PLANS = ("index", "scan")
#: Seconds per unit of each :func:`plan_features` term, fitted by
#: ``jobs/calibrate_plan.py`` on a 4-core x86-64 host with one BLAS thread.
PLAN_COEF = {
    "index": (2.74e-3, 9.60e-9, 5.19e-9, 1.97e-9),
    "scan": (2.08e-9, 3.72e-11),
}


def n_max_sqr(
    sorted_dims: list[np.ndarray], qp: np.ndarray, tau: float, slack: float
) -> int:
    """Eq. 2: min over dimensions of the widened-interval marginal count.

    ``sorted_dims[i]`` is the sorted i-th coordinate of all mapped
    target vectors; the count in ``[q'[i]-τ-slack, q'[i]+τ+slack]`` is
    two binary searches.
    """
    best = None
    for i, xs in enumerate(sorted_dims):
        lo = np.searchsorted(xs, qp[i] - tau - slack, side="left")
        hi = np.searchsorted(xs, qp[i] + tau + slack, side="right")
        c = int(hi - lo)
        best = c if best is None else min(best, c)
    return best or 0


def expected_cost(
    Xp: np.ndarray,
    Qp: np.ndarray,
    m: int,
    tau: float,
    *,
    alpha: float = 0.5,
) -> float:
    """Eq. 1 with Eq. 2 upper bounds, plus the index-access term.

    Blocking is run for real (cheap — §VI-D shows it is negligible);
    verification cost is *estimated*, per the paper's §III-E procedure.
    """
    hg_s = HierarchicalGrid(Xp, m)
    hg_q = HierarchicalGrid(Qp, m)
    blocks = blockmod.block(hg_q, hg_s, Qp, tau)
    slack = (DOMAIN / (1 << m)) / 2.0
    sorted_dims = [np.sort(Xp[:, i]) for i in range(Xp.shape[1])]
    # One N_max term per query vector with a candidate pair: its candidate
    # cells are exactly the leaf cells its SQR touches, so the widened
    # marginal bound already covers all of them together.
    qs = np.unique(blocks.q[~blocks.matched])
    e = sum(n_max_sqr(sorted_dims, Qp[qi], tau, slack) for qi in qs)
    return e + alpha * blocks.n_candidates()


def optimal_m(
    X: np.ndarray,
    workload: list[tuple[np.ndarray, float]],
    *,
    n_pivots: int = 5,
    m_max: int = 8,
    alpha: float = 0.5,
    seed: int = 0,
) -> tuple[int, dict[int, float]]:
    """Pick m minimizing the modeled cost over a (Q, τ) workload.

    Returns ``(best_m, {m: total modeled cost})``.
    """
    pivots = select_pivots(X, n_pivots, seed=seed)
    Xp = pivot_map(X, pivots)
    costs: dict[int, float] = {}
    for m in range(1, m_max + 1):
        total = 0.0
        for Q, tau in workload:
            Qp = pivot_map(Q, pivots)
            total += expected_cost(Xp, Qp, m, tau, alpha=alpha)
        costs[m] = total
    best = min(costs, key=costs.get)
    return best, costs


def leaf_marginals(grid: HierarchicalGrid) -> np.ndarray:
    """Per pivot, the cumulative count of rows by leaf coordinate: row
    ``j`` holds, at ``k``, the rows whose level-m coordinate on pivot
    ``j`` is below ``k`` (|P| × (2^m + 1) integers)."""
    m = grid.m
    sizes = np.diff(grid.starts[m])
    out = np.zeros((grid.dims, (1 << m) + 1), dtype=np.int64)
    for j, c in enumerate(grid.coords[m].T):
        np.cumsum(np.bincount(c, weights=sizes, minlength=1 << m).astype(np.int64),
                  out=out[j, 1:])
    return out


def region_rows(marginals: np.ndarray, Qp: np.ndarray, tau: float) -> tuple[int, float]:
    """Two predictions, summed over the query vectors, of the rows the
    index plan touches, both from the rows whose leaf cell on pivot ``j``
    meets ``[q'[j] − τ, q'[j] + τ]``: Eq. 2's bound, the fewest such rows
    over the pivots, and the count expected if the pivots were
    independent, |X| · Π_j (rows on pivot j / |X|)."""
    m = (marginals.shape[1] - 1).bit_length() - 1  # 2^m + 1 entries per pivot
    lo, hi = leaf_coords(Qp - tau, m), leaf_coords(Qp + tau, m) + 1
    j = np.arange(Qp.shape[1])
    rows = marginals[j, hi] - marginals[j, lo]
    n = marginals[0, -1]
    return int(rows.min(axis=1).sum()), float((n * np.prod(rows / n, axis=1)).sum())


def plan_features(plan: str, n_q: int, n_x: int, dim: int,
                  rows: tuple[int, float]) -> np.ndarray:
    """The terms whose weighted sum is a plan's predicted seconds for a
    query column of ``n_q`` vectors against ``n_x`` rows of dimension
    ``dim``; ``rows`` is :func:`region_rows`' prediction."""
    if plan == "index":
        bound, est = rows
        return np.array([1.0, bound, est, est * dim], dtype=float)
    return np.array([n_x * dim, n_x * n_q * dim], dtype=float)


def choose_plan(n_q: int, n_x: int, dim: int, rows: tuple[int, float]) -> str:
    """The plan with the lower predicted seconds, its :func:`plan_features`
    weighted by ``PLAN_COEF``; the index on a tie."""
    t = {p: plan_features(p, n_q, n_x, dim, rows) @ np.asarray(PLAN_COEF[p]) for p in PLANS}
    return "scan" if t["scan"] < t["index"] else "index"
