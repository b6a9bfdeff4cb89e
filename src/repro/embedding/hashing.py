"""Deterministic char-n-gram hashing embedders.

Substitute for the paper's pre-trained fastText (300-d) / GloVe (50-d)
models, which are unavailable offline. The paper treats the embedding
model as a plug-in (§II-A); PEXESO only requires that similar /
misspelled strings map to nearby vectors in a metric space and
unrelated strings map far apart. Character-n-gram hashing provides
exactly that property (it is the mechanism fastText itself uses for
out-of-vocabulary and misspelled words): two strings share ngrams in
proportion to their character overlap, so their embeddings' Euclidean
distance decreases with string similarity.

Two variants mirror the paper's setups:

- ``fasttext_lite`` (default 300-d): whole-string char 3-grams, used for
  the OPEN-lite lake (paper: fastText on OPEN).
- ``glove_lite`` (default 50-d): each word embedded by its char 3-grams,
  then word vectors averaged, used for the WDC-lite lakes (paper: GloVe
  word vectors averaged per string).

All embeddings are L2-normalized (§V), so the maximum Euclidean
distance is 2 and thresholds can be expressed as a percentage of it.
"""
from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

__all__ = ["embed", "embed_many", "fasttext_lite", "glove_lite", "MAX_DISTANCE"]

#: Maximum Euclidean distance between two unit vectors (§V).
MAX_DISTANCE = 2.0


def _ngrams(token: str, n: int) -> list[str]:
    padded = f"<{token}>"
    if len(padded) <= n:
        return [padded]
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


@lru_cache(maxsize=None)  # the ngram universe is small in practice
def _ngram_vector(ngram: str, dim: int) -> np.ndarray:
    """Deterministic pseudo-random unit-variance vector for one ngram,
    read-only because every caller shares it.

    The ngram's CRC32 seeds a Generator, so the mapping is stable across
    processes and sessions (no PYTHONHASHSEED dependence).
    """
    seed = zlib.crc32(ngram.encode("utf-8"))
    v = np.random.default_rng(seed).standard_normal(dim)
    v.flags.writeable = False
    return v


def _normalize(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        # Empty string: a fixed deterministic direction.
        v = _ngram_vector("<EMPTY>", v.shape[0])
        norm = np.linalg.norm(v)
    return v / norm


def _string_vector(s: str, dim: int, n: int) -> np.ndarray:
    acc = np.zeros(dim)
    for gram in _ngrams(s, n):
        acc += _ngram_vector(gram, dim)
    return acc


def fasttext_lite(s: str, *, dim: int = 300, n: int = 3) -> np.ndarray:
    """300-d whole-string char-ngram embedding (fastText substitute)."""
    return _normalize(_string_vector(s.lower().strip(), dim, n))


def glove_lite(s: str, *, dim: int = 50, n: int = 3) -> np.ndarray:
    """50-d word-averaged char-ngram embedding (GloVe substitute).

    Mirrors the paper's WDC pipeline: split the string into words, embed
    each word, take the average vector, normalize.
    """
    words = s.lower().split()
    if not words:
        return _normalize(np.zeros(dim))
    acc = np.zeros(dim)
    for w in words:
        acc += _normalize(_string_vector(w, dim, n))
    return _normalize(acc / len(words))


_MODELS = {"fasttext": fasttext_lite, "glove": glove_lite}


def embed(s: str, *, model: str = "fasttext", dim: int | None = None) -> np.ndarray:
    """Embed one string with the named model ('fasttext' or 'glove')."""
    fn = _MODELS[model]
    return fn(s) if dim is None else fn(s, dim=dim)


def embed_many(
    strings: list[str], *, model: str = "fasttext", dim: int | None = None
) -> np.ndarray:
    """Embed a list of strings → (len(strings), dim) float64 matrix."""
    rows = [embed(s, model=model, dim=dim) for s in strings]
    return np.vstack(rows) if rows else np.zeros((0, dim or 300))
