"""Tests for pivot selection/mapping and the Lemma 1/2 guarantees."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ept import PivotTable
from repro.core.pexeso import PexesoIndex
from repro.core.pivots import pivot_map, select_pivots
from repro.core.regions import lemma1_survives, lemma2_matches
from tests.conftest import time_limit, unit_rows


def test_select_pivots_shape():
    X = unit_rows(500, 16)
    P = select_pivots(X, 5)
    assert P.shape == (5, 16)


def test_select_pivots_are_data_points():
    X = unit_rows(200, 8)
    P = select_pivots(X, 3)
    for p in P:
        assert np.any(np.all(np.isclose(X, p), axis=1))


def test_select_pivots_distinct():
    X = unit_rows(300, 8)
    P = select_pivots(X, 6)
    assert len({tuple(np.round(p, 9)) for p in P}) == 6


def test_select_pivots_fewer_rows_than_pivots():
    """One pivot per distinct sample row at most, instead of looping forever."""
    with time_limit(10):
        P = select_pivots(np.eye(4)[:2], 3)
        dup = select_pivots(np.vstack([np.eye(4)[:2]] * 3), 5)
    assert P.shape == (2, 4) and dup.shape == (2, 4)
    assert len({tuple(p) for p in dup}) == 2


def test_select_pivots_empty_raises():
    with pytest.raises(ValueError):
        select_pivots(np.zeros((0, 4)), 2)


@pytest.mark.parametrize("n_pivots", [0, -1])
def test_no_pivots_rejected_at_build(n_pivots):
    X = unit_rows(50, 8)
    with pytest.raises(ValueError, match="n_pivots"):
        PexesoIndex(X, np.zeros(len(X), dtype=int), 1, n_pivots=n_pivots)
    with pytest.raises(ValueError, match="n_pivots"):
        PivotTable(X, np.zeros(len(X), dtype=int), 1, n_pivots=n_pivots)


def test_pivot_map_values():
    X = unit_rows(50, 8, seed=1)
    P = X[:3]
    Xp = pivot_map(X, P)
    assert Xp.shape == (50, 3)
    brute = np.linalg.norm(X[:, None, :] - P[None, :, :], axis=2)
    assert np.allclose(Xp, brute, atol=1e-9)
    assert np.all(Xp >= 0)


def test_pivot_map_self_distance_zero():
    X = unit_rows(10, 8)
    Xp = pivot_map(X, X[:2])
    assert np.isclose(Xp[0, 0], 0.0) and np.isclose(Xp[1, 1], 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.05, 1.2))
def test_lemma1_never_drops_true_match(seed, tau):
    """Soundness: a vector with d(q,x) <= τ always survives the filter."""
    g = np.random.default_rng(seed)
    X = g.standard_normal((40, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    q = X[0] + g.standard_normal(6) * 0.01
    q /= np.linalg.norm(q)
    P = select_pivots(X, 3, seed=seed % 100)
    Xp, qp = pivot_map(X, P), pivot_map(q[None], P)[0]
    d = np.linalg.norm(X - q, axis=1)
    survive = np.all(lemma1_survives(Xp, qp, tau), axis=1)
    assert np.all(survive[d <= tau])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.05, 1.2))
def test_lemma2_only_flags_true_matches(seed, tau):
    """Soundness: Lemma-2-matched vectors really are within τ."""
    g = np.random.default_rng(seed)
    X = g.standard_normal((40, 6))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    q = X[1] + g.standard_normal(6) * 0.02
    q /= np.linalg.norm(q)
    P = select_pivots(X, 3, seed=seed % 100)
    Xp, qp = pivot_map(X, P), pivot_map(q[None], P)[0]
    d = np.linalg.norm(X - q, axis=1)
    matched = np.any(lemma2_matches(Xp, qp, tau), axis=1)  # any one pivot
    assert np.all(d[matched] <= tau + 1e-9)


def test_filter_actually_prunes():
    """Effectiveness: far vectors should mostly be filtered at small τ."""
    X = unit_rows(400, 16, seed=2)
    q = unit_rows(1, 16, seed=99)[0]
    P = select_pivots(X, 5)
    Xp, qp = pivot_map(X, P), pivot_map(q[None], P)[0]
    survive = np.all(lemma1_survives(Xp, qp, 0.1), axis=1)
    assert survive.sum() < len(X) * 0.5
