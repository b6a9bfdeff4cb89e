"""Query-region geometry: Lemmas 3–6 as cell-level predicates (§III-B).

All predicates operate on axis-aligned boxes in the pivot space:

- ``SQR(q', τ)`` is the box ``[q' - τ, q' + τ]`` (Lemma 1 region).
- ``RQR(q', p_j, τ)`` is the box ``[0, τ - q'[j]]`` in dimension j and
  unbounded elsewhere (Lemma 2 region; absent when ``τ - q'[j] < 0``).

For a *query cell* ``c_q`` the square region is widened to
``SQR(c_q.center, τ + c_q.length/2)``; for matching, the minimum RQR
over all query vectors in ``c_q`` is bounded conservatively with the
cell's own upper corner (``max_{q'∈c_q} q'[j] <= c_q.upper[j]``), which
is sound (a sufficient condition) and needs no per-vector scan.

Every predicate reduces over the last (pivot) axis and broadcasts over
any leading batch axes, so blocking tests a whole frontier of pairs in
one call; a single pair gives a numpy bool.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "boxes_disjoint",
    "cell_filtered_by_vector",
    "cell_matched_by_vector",
    "cell_filtered_by_cell",
    "cell_matched_by_cell",
]


def boxes_disjoint(
    lo_a: np.ndarray, up_a: np.ndarray, lo_b: np.ndarray, up_b: np.ndarray
) -> np.ndarray:
    """True iff boxes [lo_a, up_a] and [lo_b, up_b] do not intersect."""
    return np.any((lo_a > up_b) | (up_a < lo_b), axis=-1)


def cell_filtered_by_vector(
    lo: np.ndarray, up: np.ndarray, qp: np.ndarray, tau: float
) -> np.ndarray:
    """Lemma 3: target cell [lo, up] ∩ SQR(q', τ) = ∅ → no vector matches."""
    return boxes_disjoint(lo, up, qp - tau, qp + tau)


def cell_matched_by_vector(up: np.ndarray, qp: np.ndarray, tau: float) -> np.ndarray:
    """Lemma 5: ∃ pivot j with up[j] <= τ - q'[j] → every vector matches."""
    return np.any(up <= tau - qp, axis=-1)


def cell_filtered_by_cell(
    lo: np.ndarray,
    up: np.ndarray,
    q_lo: np.ndarray,
    q_up: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Lemma 4: target cell vs query cell square region.

    SQR(c_q.center, τ + c_q.length/2) is exactly the box
    [q_lo - τ, q_up + τ], so the disjointness test uses the query cell's
    corners directly.
    """
    return boxes_disjoint(lo, up, q_lo - tau, q_up + tau)


def cell_matched_by_cell(up: np.ndarray, q_up: np.ndarray, tau: float) -> np.ndarray:
    """Lemma 6 (conservative): ∃ pivot j with up[j] <= τ - q_up[j].

    Uses the query cell's upper corner as an upper bound on
    ``max_{q'∈c_q} q'[j]``; sound, and exact when the cell is tight.
    """
    return np.any(up <= tau - q_up, axis=-1)
