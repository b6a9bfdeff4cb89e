"""Column distribution histograms for JSD clustering (§IV).

JSD compares probability distributions, so each column of vectors is
summarized as a probability histogram: counts of its vectors over a
fixed grid of space regions, normalized to sum 1. To keep the histogram
length independent of dimensionality, we project vectors onto a small
number of random directions (deterministic seed), histogram each
projection over equal-width bins of [-1, 1], and concatenate the
per-direction histograms. Columns with similar vector distributions
produce similar histograms, which is all §IV's clustering needs.
"""
from __future__ import annotations

import numpy as np

__all__ = ["column_histogram", "histograms"]

_EPS = 1e-9


def _directions(dim: int, k: int, seed: int = 123) -> np.ndarray:
    g = np.random.default_rng(seed)
    D = g.standard_normal((k, dim))
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def column_histogram(
    vectors: np.ndarray, *, n_dirs: int = 4, n_bins: int = 8, seed: int = 123
) -> np.ndarray:
    """Probability histogram (length n_dirs·n_bins, sums to 1) of a column."""
    return histograms({"": vectors}, n_dirs=n_dirs, n_bins=n_bins, seed=seed)[1][0]


def histograms(
    column_vectors: dict[str, np.ndarray],
    *,
    n_dirs: int = 4,
    n_bins: int = 8,
    seed: int = 123,
) -> tuple[list[str], np.ndarray]:
    """Histogram matrix for a set of columns: (ids, (n_cols, bins)).

    All columns are binned in one pass. The bins are ``np.histogram``'s
    over ``[-1, 1]``: left-closed, the last one also right-closed, and
    projections outside the range are dropped.
    """
    ids = sorted(column_vectors)
    cols = [column_vectors[c] for c in ids]
    D = _directions(cols[0].shape[1], n_dirs, seed)
    # Projected column by column, so a column's values do not depend on
    # the other columns; unit vectors → proj in [-1, 1].
    proj = np.vstack([V @ D.T for V in cols])
    edges = np.linspace(-1.0, 1.0, n_bins + 1)
    inside = (proj >= -1.0) & (proj <= 1.0)
    bins = np.minimum(np.searchsorted(edges, proj, side="right") - 1, n_bins - 1)
    owner = np.repeat(np.arange(len(ids)), [len(V) for V in cols])[:, None]
    slot = (owner * n_dirs + np.arange(n_dirs)) * n_bins + bins
    counts = np.bincount(slot[inside], minlength=len(ids) * n_dirs * n_bins)
    H = counts.reshape(len(ids), n_dirs * n_bins).astype(np.float64)
    H += _EPS  # avoid zero bins (KLD needs full support)
    return ids, H / H.sum(axis=1, keepdims=True)
