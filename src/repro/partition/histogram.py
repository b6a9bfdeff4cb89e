"""Column distribution histograms for JSD clustering (§IV).

JSD compares probability distributions, so each column of vectors is
summarized as a probability histogram: counts of its vectors over a
fixed grid of space regions, normalized to sum 1. To keep the histogram
length independent of dimensionality, we project vectors onto a small
number of random directions (deterministic seed), histogram each
projection over equal-width bins of [-1, 1], and concatenate the
per-direction histograms. Columns with similar vector distributions
produce similar histograms, which is all §IV's clustering needs.

The histogram is two steps. :func:`bin_counts` counts any batch of rows
into per-column bins; the counts are additive, so batches holding parts
of a column (Spark's executors, see ``spark.joinable``) are summed
before :func:`normalize` turns counts into probabilities.
"""
from __future__ import annotations

import numpy as np

__all__ = ["bin_counts", "histograms", "normalize"]

_EPS = 1e-9
#: Random directions, equal-width bins of [-1, 1] per direction, and the
#: directions' seed: every histogram is ``N_DIRS * N_BINS`` long.
N_DIRS = 4
N_BINS = 8
_SEED = 123


def _directions(dim: int) -> np.ndarray:
    g = np.random.default_rng(_SEED)
    D = g.standard_normal((N_DIRS, dim))
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def bin_counts(X: np.ndarray, owner: np.ndarray, n_cols: int) -> np.ndarray:
    """Raw bin counts, (n_cols, N_DIRS·N_BINS) ``int64``, of the rows of
    ``X``, row ``i`` counted for column ``owner[i]`` in ``[0, n_cols)``.

    The bins are ``np.histogram``'s over ``[-1, 1]``: left-closed, the
    last one also right-closed, and projections outside the range are
    dropped. A row's projection can differ in the last bit with the
    batch it is projected in (one row is a matrix-vector product), which
    moves a count only for a projection that close to a bin edge.
    """
    # Unit vectors → proj in [-1, 1].
    proj = X @ _directions(X.shape[1]).T
    edges = np.linspace(-1.0, 1.0, N_BINS + 1)
    inside = (proj >= -1.0) & (proj <= 1.0)
    bins = np.minimum(np.searchsorted(edges, proj, side="right") - 1, N_BINS - 1)
    slot = (owner[:, None] * N_DIRS + np.arange(N_DIRS)) * N_BINS + bins
    counts = np.bincount(slot[inside], minlength=n_cols * N_DIRS * N_BINS)
    return counts.reshape(n_cols, N_DIRS * N_BINS)


def normalize(counts: np.ndarray) -> np.ndarray:
    """Probability histograms (rows sum to 1) from summed bin counts."""
    H = counts.astype(np.float64)
    H += _EPS  # avoid zero bins (KLD needs full support)
    return H / H.sum(axis=1, keepdims=True)


def histograms(column_vectors: dict[str, np.ndarray]) -> tuple[list[str], np.ndarray]:
    """Histogram matrix for a set of columns: (ids, (n_cols, bins)), ids
    sorted. All columns are binned in one pass."""
    ids = sorted(column_vectors)
    cols = [column_vectors[c] for c in ids]
    owner = np.repeat(np.arange(len(ids)), [len(V) for V in cols])
    return ids, normalize(bin_counts(np.vstack(cols), owner, len(ids)))
