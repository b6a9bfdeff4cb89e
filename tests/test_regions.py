"""Tests for the Lemma 3–6 cell predicates."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import regions


def test_boxes_disjoint_basic():
    lo_a, up_a = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    assert regions.boxes_disjoint(lo_a, up_a, np.array([1.1, 0.0]), np.array([2.0, 1.0]))
    assert not regions.boxes_disjoint(lo_a, up_a, np.array([0.5, 0.5]), np.array([2.0, 2.0]))


def test_touching_boxes_not_disjoint():
    a = (np.array([0.0]), np.array([1.0]))
    b = (np.array([1.0]), np.array([2.0]))
    assert not regions.boxes_disjoint(*a, *b)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.05, 0.8))
def test_lemma3_sound(seed, tau):
    """If the cell is filtered, no vector inside it can match q'."""
    g = np.random.default_rng(seed)
    lo = g.uniform(0, 1.5, 3)
    up = lo + g.uniform(0.05, 0.5, 3)
    qp = g.uniform(0, 2, 3)
    if regions.cell_filtered_by_vector(lo, up, qp, tau):
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
    if regions.cell_matched_by_vector(up, qp, tau):
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
    if regions.cell_filtered_by_cell(s_lo, s_up, q_lo, q_up, tau):
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
    if regions.cell_matched_by_cell(s_up, q_up, tau):
        qs = g.uniform(q_lo, q_up, (20, 2))
        xs = g.uniform(s_lo, s_up, (20, 2))
        sums = qs[:, None, :] + xs[None, :, :]
        assert np.all(np.min(sums, axis=2) <= tau + 1e-12)


def test_vectors_vs_cell_consistency():
    """Batched Lemma 3/5 calls (leading axis = query vectors) agree with
    the one-vector calls, as blocking uses them."""
    g = np.random.default_rng(1)
    Qp = g.uniform(0, 2, (30, 3))
    lo = np.array([0.4, 0.4, 0.4])
    up = np.array([0.9, 0.9, 0.9])
    tau = 0.3
    filtered = regions.cell_filtered_by_vector(lo, up, Qp, tau)
    matched = regions.cell_matched_by_vector(up, Qp, tau)
    assert filtered.shape == matched.shape == (30,)
    for i in range(30):
        assert filtered[i] == regions.cell_filtered_by_vector(lo, up, Qp[i], tau)
        assert matched[i] == regions.cell_matched_by_vector(up, Qp[i], tau)
    # A cell can never be both filtered and matched.
    assert not np.any(filtered & matched)


def test_cell_predicates_batch_over_pairs():
    """Lemmas 4/6 over a (k, |P|) batch of cell pairs equal k single calls."""
    g = np.random.default_rng(2)
    q_lo, s_lo = g.uniform(0, 1.5, (2, 40, 3))
    q_up, s_up = q_lo + 0.1, s_lo + 0.1
    tau = 0.6
    filt = regions.cell_filtered_by_cell(s_lo, s_up, q_lo, q_up, tau)
    match = regions.cell_matched_by_cell(s_up, q_up, tau)
    assert 0 < filt.sum() < 40 and 0 < match.sum() < 40
    for i in range(40):
        assert filt[i] == regions.cell_filtered_by_cell(
            s_lo[i], s_up[i], q_lo[i], q_up[i], tau
        )
        assert match[i] == regions.cell_matched_by_cell(s_up[i], q_up[i], tau)
