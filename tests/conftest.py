"""Shared fixtures for the PEXESO reproduction tests."""
from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.lake.generator import DataLake, make_lake


def unit_rows(n: int, dim: int, seed: int = 0) -> np.ndarray:
    """n random unit vectors (rows)."""
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, dim))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def planted_repo(
    *,
    n_cols: int = 30,
    col_size: int = 24,
    n_query: int = 16,
    dim: int = 16,
    seed: int = 0,
    noise: float = 0.05,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(Q, X, col_of_vector, n_cols) with near-duplicates of query vectors
    planted into every third column, so every τ regime has real matches."""
    g = np.random.default_rng(seed)
    X = unit_rows(n_cols * col_size, dim, seed + 1)
    col = np.repeat(np.arange(n_cols), col_size)
    Q = unit_rows(n_query, dim, seed + 2)
    for c in range(0, n_cols, 3):
        rows = np.flatnonzero(col == c)[: n_query // 2]
        V = Q[: len(rows)] + g.standard_normal((len(rows), dim)) * noise
        X[rows] = V / np.linalg.norm(V, axis=1, keepdims=True)
    return Q, X, col, n_cols


def bad_vec(lake: DataLake, bad: str):
    """The ``vec`` column with rows 0 and 1 of the first column spoiled."""
    from pyspark.sql import functions as F

    first = F.col("col_id") == lake.columns[0].col_id
    row0, row1 = first & (F.col("vec_id") == 0), first & (F.col("vec_id") == 1)
    if bad == "null":
        return F.when(row0, F.lit(None).cast("array<double>")).otherwise(F.col("vec"))
    vec = F.when(row0, F.slice("vec", 1, F.size("vec") - 1))
    if bad == "shifted":
        vec = vec.when(row1, F.concat(F.array(F.lit(0.0)), F.col("vec")))
    return vec.otherwise(F.col("vec"))


@pytest.fixture(scope="session")
def tiny_lake() -> DataLake:
    """A small lake shared by discovery tests (deterministic)."""
    return make_lake(
        name="tiny",
        universe="person",
        model="glove",
        dim=32,
        n_query=12,
        n_columns=60,
        col_size=16,
        joinable_frac=0.3,
        seed=5,
    )


@pytest.fixture(scope="session")
def open_like_lake() -> DataLake:
    """Address-universe lake (multi-word strings, fastText-lite model)."""
    return make_lake(
        name="open-tiny",
        universe="address",
        model="fasttext",
        dim=64,
        n_query=16,
        n_columns=40,
        col_size=24,
        joinable_frac=0.4,
        seed=3,
    )


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail (instead of hanging) if the block runs longer than ``seconds``."""

    def _raise(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    old = signal.signal(signal.SIGALRM, _raise)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
