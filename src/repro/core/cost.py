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
"""
from __future__ import annotations

import numpy as np

from repro.core import block as blockmod
from repro.core.grid import DOMAIN, HierarchicalGrid
from repro.core.pivots import pivot_map, select_pivots

__all__ = ["n_max_sqr", "expected_cost", "optimal_m"]


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
