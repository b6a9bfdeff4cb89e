"""Tests for the Lemma 3–6 one-pivot tests."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import regions


def filtered(lo, up, q_lo, q_up, tau):
    """Lemmas 3/4 for whole cells: filtered on any pivot (the last axis)."""
    return np.any(regions.filtered_on_pivot(lo, up, q_lo, q_up, tau), axis=-1)


def matched(up, q_up, tau):
    """Lemmas 5/6 for whole cells: matched on any pivot (the last axis)."""
    return np.any(regions.matched_on_pivot(up, q_up, tau), axis=-1)


def test_boxes_disjoint_basic():
    """Lemma 4 at τ = 0 is plain box disjointness."""
    lo_a, up_a = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    assert filtered(lo_a, up_a, np.array([1.1, 0.0]), np.array([2.0, 1.0]), 0.0)
    assert not filtered(lo_a, up_a, np.array([0.5, 0.5]), np.array([2.0, 2.0]), 0.0)


def test_rounding_bands():
    """Filters test against a wider τ and matchers against a narrower one,
    by the pivot coordinates' rounding; at τ = 0 nothing is a sure match,
    and coordinates of one vector mapped twice (~1e-8 apart near a pivot)
    still pass Lemma 1."""
    for tau in (0.0, 1e-7, 0.3, 1.5):
        assert regions.narrowed(tau) < tau < regions.widened(tau) <= tau + 3 * regions.PIVOT_ERR
    assert regions.narrowed(0.0) == regions.narrowed(5e-7) == -np.inf
    assert regions.lemma1_survives(np.array([1e-8]), np.array([0.0]), 0.0)
    assert not regions.lemma2_matches(np.array([0.0]), np.array([0.0]), 0.0)
    assert regions.widened(np.inf) == regions.narrowed(np.inf) == np.inf


def test_touching_boxes_not_disjoint():
    a = (np.array([0.0]), np.array([1.0]))
    b = (np.array([1.0]), np.array([2.0]))
    assert not filtered(*a, *b, 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.8))
def test_lemma3_sound(seed, tau):
    """If the cell is filtered, no vector inside it can match q'."""
    g = np.random.default_rng(seed)
    lo = g.uniform(0, 1.5, 3)
    up = lo + g.uniform(0.05, 0.5, 3)
    qp = g.uniform(0, 2, 3)
    if filtered(lo, up, qp, qp, tau):
        # Every point in the cell is Chebyshev-farther than τ from q'.
        pts = g.uniform(lo, up, (50, 3))
        assert np.all(np.max(np.abs(pts - qp), axis=1) > tau)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.8))
def test_lemma5_sound(seed, tau):
    """If the cell is matched, every point x' in it has x'[j] <= τ - q'[j]."""
    g = np.random.default_rng(seed)
    lo = g.uniform(0, 1.0, 3)
    up = lo + g.uniform(0.05, 0.3, 3)
    qp = g.uniform(0, 0.5, 3)
    if matched(up, qp, tau):
        pts = g.uniform(lo, up, (50, 3))
        assert np.all(np.min(pts + qp, axis=1) <= tau + 1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.8))
def test_lemma4_sound(seed, tau):
    """Cell-cell filter: no (query point, target point) pair can match."""
    g = np.random.default_rng(seed)
    q_lo = g.uniform(0, 1.5, 2)
    q_up = q_lo + g.uniform(0.05, 0.4, 2)
    s_lo = g.uniform(0, 1.5, 2)
    s_up = s_lo + g.uniform(0.05, 0.4, 2)
    if filtered(s_lo, s_up, q_lo, q_up, tau):
        qs = g.uniform(q_lo, q_up, (20, 2))
        xs = g.uniform(s_lo, s_up, (20, 2))
        cheb = np.max(np.abs(qs[:, None, :] - xs[None, :, :]), axis=2)
        assert np.all(cheb > tau)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.8))
def test_lemma6_sound(seed, tau):
    """Cell-cell match implies vector-level Lemma 2 for all pairs."""
    g = np.random.default_rng(seed)
    q_lo = g.uniform(0, 0.4, 2)
    q_up = q_lo + g.uniform(0.02, 0.2, 2)
    s_lo = g.uniform(0, 0.4, 2)
    s_up = s_lo + g.uniform(0.02, 0.2, 2)
    if matched(s_up, q_up, tau):
        qs = g.uniform(q_lo, q_up, (20, 2))
        xs = g.uniform(s_lo, s_up, (20, 2))
        sums = qs[:, None, :] + xs[None, :, :]
        assert np.all(np.min(sums, axis=2) <= tau + 1e-12)


def test_vectors_vs_cell_consistency():
    """Lemmas 3/5 run one pivot at a time over a batch of query vectors,
    as blocking runs them, agree with one-vector calls."""
    g = np.random.default_rng(1)
    Qp = g.uniform(0, 2, (30, 3))
    lo = np.array([0.4, 0.4, 0.4])
    up = np.array([0.9, 0.9, 0.9])
    tau = 0.3
    filt, mat = np.zeros(30, dtype=bool), np.zeros(30, dtype=bool)
    for j in range(3):
        filt |= regions.filtered_on_pivot(lo[j], up[j], Qp[:, j], Qp[:, j], tau)
        mat |= regions.matched_on_pivot(up[j], Qp[:, j], tau)
    for i in range(30):
        assert filt[i] == filtered(lo, up, Qp[i], Qp[i], tau)
        assert mat[i] == matched(up, Qp[i], tau)
    # A cell can never be both filtered and matched.
    assert not np.any(filt & mat)


def test_cell_predicates_batch_over_pairs():
    """Lemmas 4/6 one pivot at a time over a batch of cell pairs equal
    single-pair calls."""
    g = np.random.default_rng(2)
    q_lo, s_lo = g.uniform(0, 1.5, (2, 40, 3))
    q_up, s_up = q_lo + 0.1, s_lo + 0.1
    tau = 0.6
    filt, match = np.zeros(40, dtype=bool), np.zeros(40, dtype=bool)
    for j in range(3):
        filt |= regions.filtered_on_pivot(s_lo[:, j], s_up[:, j], q_lo[:, j], q_up[:, j], tau)
        match |= regions.matched_on_pivot(s_up[:, j], q_up[:, j], tau)
    assert 0 < filt.sum() < 40 and 0 < match.sum() < 40
    for i in range(40):
        assert filt[i] == filtered(s_lo[i], s_up[i], q_lo[i], q_up[i], tau)
        assert match[i] == matched(s_up[i], q_up[i], tau)
