"""Tests for histograms, JSD, and the §IV partitioners."""
import numpy as np
import pytest

from repro.partition.cluster import jsd_kmeans, random_partition
from repro.partition.histogram import column_histogram, histograms
from repro.partition.jsd import jsd, jsd_matrix, kld
from tests.conftest import unit_rows


def _clustered_columns(k_groups=3, cols_per_group=8, n=40, dim=16, seed=0):
    """Columns drawn from k distinct distributions (shifted clusters)."""
    g = np.random.default_rng(seed)
    centers = unit_rows(k_groups, dim, seed + 1)
    out = {}
    for gi in range(k_groups):
        for ci in range(cols_per_group):
            V = centers[gi] + g.standard_normal((n, dim)) * 0.15
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            out[f"g{gi}c{ci}"] = V
    return out


# ---------- histograms ----------
def test_histogram_is_probability():
    h = column_histogram(unit_rows(100, 8))
    assert h.shape == (32,)
    assert h.sum() == pytest.approx(1.0)
    assert np.all(h > 0)


def test_histogram_deterministic():
    V = unit_rows(50, 8, seed=2)
    assert np.allclose(column_histogram(V), column_histogram(V))


def test_similar_columns_similar_histograms():
    cols = _clustered_columns()
    same = jsd(column_histogram(cols["g0c0"]), column_histogram(cols["g0c1"]))
    diff = jsd(column_histogram(cols["g0c0"]), column_histogram(cols["g1c0"]))
    assert same < diff


def test_histograms_matrix():
    cols = _clustered_columns(k_groups=2, cols_per_group=3)
    ids, H = histograms(cols)
    assert len(ids) == 6 and H.shape[0] == 6
    assert ids == sorted(ids)


def _np_histogram(V, n_dirs=4, n_bins=8, seed=123):
    """One column's histogram from per-direction ``np.histogram`` calls."""
    D = np.random.default_rng(seed).standard_normal((n_dirs, V.shape[1]))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    h = np.concatenate([np.histogram(p, bins=n_bins, range=(-1.0, 1.0))[0]
                        for p in (V @ D.T).T]).astype(np.float64) + 1e-9
    return h / h.sum()


@pytest.mark.parametrize("dim", [1, 16])
def test_histograms_match_np_histogram(dim):
    """Bit for bit what ``np.histogram`` over [-1, 1] gives. In one
    dimension every direction is ±1, so the ``edges`` column lands exactly
    on the bin edges, on ±1 and just outside."""
    cols = _clustered_columns(k_groups=2, cols_per_group=3, n=30, dim=dim)
    edge = np.concatenate([np.linspace(-1.0, 1.0, 9), [np.nextafter(1.0, 2.0),
                           np.nextafter(-1.0, -2.0), np.nextafter(0.25, 0.0)]])
    cols["edges"] = np.outer(edge, np.eye(dim)[0])
    cols["empty"] = np.zeros((0, dim))
    ids, H = histograms(cols)
    for cid, h in zip(ids, H):
        assert np.array_equal(h, _np_histogram(cols[cid]))
        assert np.array_equal(h, column_histogram(cols[cid]))


# ---------- JSD ----------
def test_kld_zero_iff_equal():
    a = np.array([0.25, 0.25, 0.5])
    assert kld(a, a) == pytest.approx(0.0)
    b = np.array([0.5, 0.25, 0.25])
    assert kld(a, b) > 0


def test_jsd_symmetric():
    g = np.random.default_rng(0)
    a, b = g.random(10) + 0.01, g.random(10) + 0.01
    a, b = a / a.sum(), b / b.sum()
    assert jsd(a, b) == pytest.approx(jsd(b, a))
    assert jsd(a, b) >= 0


def test_jsd_matrix_matches_scalar():
    g = np.random.default_rng(1)
    H = g.random((4, 8)) + 0.01
    H /= H.sum(axis=1, keepdims=True)
    C = H[:2]
    M = jsd_matrix(H, C)
    for i in range(4):
        for j in range(2):
            assert M[i, j] == pytest.approx(jsd(H[i], C[j]))


# ---------- partitioners ----------
@pytest.mark.parametrize("fn", [jsd_kmeans, random_partition])
def test_partitioner_contract(fn):
    cols = _clustered_columns()
    assign = fn(cols, 4, seed=1) if fn is random_partition else fn(cols, 4, seed=1)
    assert set(assign) == set(cols)
    assert all(0 <= p < 4 for p in assign.values())


def test_jsd_kmeans_recovers_planted_groups():
    """Columns from the same distribution should land together."""
    cols = _clustered_columns(k_groups=3, cols_per_group=10, seed=4)
    assign = jsd_kmeans(cols, 3, seed=2)
    # Majority label per planted group; the clustering should be much
    # better than chance (perfect recovery is not required).
    agree = 0
    for gi in range(3):
        labels = [assign[f"g{gi}c{ci}"] for ci in range(10)]
        agree += max(labels.count(l) for l in set(labels))
    assert agree >= 24  # ≥80% purity over 30 columns


def test_jsd_kmeans_deterministic():
    cols = _clustered_columns()
    assert jsd_kmeans(cols, 3, seed=5) == jsd_kmeans(cols, 3, seed=5)


def test_k_clamped_to_n_columns():
    cols = {k: v for k, v in list(_clustered_columns().items())[:2]}
    assign = jsd_kmeans(cols, 10)
    assert set(assign.values()) <= {0, 1}
