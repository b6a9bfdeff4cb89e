"""Query-region geometry: Lemmas 1–6 as one-pivot tests (§III-A, §III-B).

All tests compare axis-aligned boxes in the pivot space:

- ``SQR(q', τ)`` is the box ``[q' - τ, q' + τ]`` (Lemma 1 region).
- ``RQR(q', p_j, τ)`` is the box ``[0, τ - q'[j]]`` in dimension j and
  unbounded elsewhere (Lemma 2 region; absent when ``τ - q'[j] < 0``).

Lemmas 1 and 2 test one mapped vector ``x'`` against these regions.
For a *query cell* ``c_q`` the square region is widened to
``SQR(c_q.center, τ + c_q.length/2)``, exactly the box
``[q_lo - τ, q_up + τ]``; for matching, the minimum RQR over all query
vectors in ``c_q`` is bounded conservatively with the cell's own upper
corner (``max_{q'∈c_q} q'[j] <= c_q.upper[j]``), which is sound (a
sufficient condition) and needs no per-vector scan. A query vector is the
point cell ``q_lo = q_up = q'``, so one test serves Lemmas 3 and 4, and
one Lemmas 5 and 6.

Every test takes one pivot's coordinates, elementwise over any batch; a
vector or pair is filtered (matched) if the test fails (holds) on *any*
pivot. Blocking and verification combine them pivot by pivot over
contiguous column-major coordinates.

The lemmas hold for exact distances; the tests run on rounded ones, and
a pair matches when the oracle's rounded d² is ≤ τ² (``scan``). So the
filters (Lemmas 1, 3, 4) test against τ widened and the matchers
(Lemmas 2, 5, 6) against τ narrowed (:func:`widened`, :func:`narrowed`).
Without the band, Lemma 1 dropped near-duplicates at τ = 0 whose
oracle d² rounds to ≤ 0 but whose pivot coordinates differ by ~1e-8.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.scan import BOUNDARY

__all__ = [
    "PIVOT_ERR", "widened", "narrowed",
    "lemma1_survives", "lemma2_matches", "filtered_on_pivot", "matched_on_pivot",
]

#: Largest error of a pivot coordinate. ``pivot_map`` forms d² as the
#: oracle does, off by far less than ``scan.BOUNDARY``, and √ turns an
#: error ε of d² into at most √ε (the worst case is near d = 0).
PIVOT_ERR = math.sqrt(BOUNDARY)


def widened(tau: float) -> float:
    """The filters' τ. A pair the oracle accepts has a true distance of at
    most √(τ² + BOUNDARY), so its rounded pivot coordinates differ by at
    most that plus ``2 · PIVOT_ERR`` on every pivot."""
    return math.sqrt(tau * tau + BOUNDARY) + 2.0 * PIVOT_ERR


def narrowed(tau: float) -> float:
    """The matchers' τ. Rounded coordinates summing to at most this give a
    true distance of at most √(τ² − BOUNDARY), which the oracle rounds to
    ≤ τ². When τ² < BOUNDARY nothing is a sure match, and this is −inf."""
    if tau * tau < BOUNDARY:
        return -math.inf
    return math.sqrt(tau * tau - BOUNDARY) - 2.0 * PIVOT_ERR


def lemma1_survives(xp: np.ndarray, qp: np.ndarray, tau: float) -> np.ndarray:
    """Lemma 1 on pivot coordinates, elementwise: |x'[j] - q'[j]| <= τ.

    A row that fails on any pivot lies outside the square query region
    SQR(q', τ) and provably does not match.
    """
    return np.abs(xp - qp) <= widened(tau)


def lemma2_matches(xp: np.ndarray, qp: np.ndarray, tau: float) -> np.ndarray:
    """Lemma 2 on pivot coordinates, elementwise: x'[j] + q'[j] <= τ.

    A row that holds on any one pivot j lies in the rectangle query region
    RQR(q', p_j, τ) and is guaranteed to match.
    """
    return xp + qp <= narrowed(tau)


def filtered_on_pivot(lo: np.ndarray, up: np.ndarray, q_lo: np.ndarray,
                      q_up: np.ndarray, tau: float) -> np.ndarray:
    """Lemmas 3/4: the target cell's side [lo, up] misses [q_lo - τ, q_up + τ],
    so no vector in the cell matches (at τ = 0: the boxes are disjoint)."""
    tau = widened(tau)
    return (lo > q_up + tau) | (up < q_lo - tau)


def matched_on_pivot(up: np.ndarray, q_up: np.ndarray, tau: float) -> np.ndarray:
    """Lemmas 5/6: up <= τ - q_up, so the whole cell lies in RQR(q', p_j, τ)
    and every vector in it matches."""
    return up <= narrowed(tau) - q_up
