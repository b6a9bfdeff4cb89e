"""Algorithm 2: inverted-index verification (§III-C); PEXESO-H as a flag.

Query vectors are resolved one at a time, each against all of its
columns at once. Matching-pair leaves give guaranteed matches. For the
other live columns the candidate-pair postings are expanded to rows;
with ``use_pivots`` a Lemma 2 hit matches its column with no distance
computed, and only the Lemma 1 survivors of the remaining columns get an
exact distance. Without ``use_pivots`` (the PEXESO-H baseline, §VI-A)
every row of a candidate posting gets an exact distance.

Between query vectors two early terminations apply per column:

- a column whose match count reaches ``T_abs`` is joinable — it is not
  visited again (paper §III-C, also given to PEXESO-H);
- a column whose mismatch count exceeds ``|Q| - T_abs`` can never become
  joinable and is pruned (Lemma 7; not in PEXESO-H).

The verifier also keeps the counters the paper reports: number of exact
distance computations (Fig. 7a) and postings accesses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.block import BlockResult
from repro.core.grid import expand_ranges
from repro.core.inverted import InvertedIndex
from repro.core.pivots import lemma1_filter_mask, lemma2_match_mask

__all__ = ["VerifyResult", "verify"]


@dataclass
class VerifyResult:
    """Match counts per column plus instrumentation counters."""

    match: np.ndarray
    joinable: set[int]
    n_distance: int  # exact d(·,·) evaluations
    n_postings: int  # postings touched


def verify(
    blocks: BlockResult,
    index: InvertedIndex,
    X: np.ndarray,
    Xp: np.ndarray,
    x2: np.ndarray,
    Q: np.ndarray,
    Qp: np.ndarray,
    tau: float,
    T_abs: int,
    n_cols: int,
    *,
    use_pivots: bool = True,
    early_terminate: bool = True,
) -> VerifyResult:
    """Algorithm 2 over the blocking output; returns per-column counts.

    ``x2[i]`` is ``|X[i]|²``: distances are ``|x|² + |q|² − 2x·q``, the
    formula of ``baselines.exact_scan``. ``early_terminate=False``
    disables the reach-T and Lemma-7 skips so the per-column match counts
    are complete — used by exactness tests that diff counts against the
    brute-force scan.
    """
    match = np.zeros(n_cols, dtype=np.int64)
    mismatch = np.zeros(n_cols, dtype=np.int64)
    done = np.zeros(n_cols, dtype=bool)  # joinable, or pruned by Lemma 7
    prune_bound = len(Q) - T_abs  # Lemma 7: mismatch > bound → never joinable
    tau2 = tau * tau
    n_distance = n_postings = 0
    for qi in range(len(Q)):
        a, b = blocks.q_start[qi], blocks.q_start[qi + 1]
        if a == b:
            continue
        leaf = blocks.leaf[a:b]
        own, p = expand_ranges(index.leaf_start[leaf], index.leaf_start[leaf + 1])
        n_postings += len(p)
        col = index.col[p]
        live = ~done[col]
        from_match = blocks.matched[a:b][own]
        got = np.unique(col[from_match & live])
        # Candidate postings of live columns not matched already.
        cand = ~from_match & live
        cand[cand] = ~np.isin(col[cand], got)
        p, col = p[cand], col[cand]
        tried = np.unique(col)
        own, r = expand_ranges(index.start[p], index.start[p + 1])
        rows, rcol = index.rows[r], col[own]
        q = Q[qi]
        if use_pivots:
            sub = Xp[rows]
            by_lemma2 = np.unique(rcol[lemma2_match_mask(sub, Qp[qi], tau)])
            rest = lemma1_filter_mask(sub, Qp[qi], tau)
            rest[rest] = ~np.isin(rcol[rest], by_lemma2)
            rows, rcol = rows[rest], rcol[rest]
            got = np.union1d(got, by_lemma2)
        d2 = x2[rows] + q @ q - 2.0 * (X[rows] @ q)
        n_distance += len(rows)
        got = np.union1d(got, rcol[d2 <= tau2])
        missed = np.setdiff1d(tried, got, assume_unique=True)
        match[got] += 1
        mismatch[missed] += 1
        if early_terminate:
            done[got[match[got] >= T_abs]] = True
            if use_pivots:
                done[missed[mismatch[missed] > prune_bound]] = True
    joinable = set(np.flatnonzero(match >= T_abs).tolist())
    return VerifyResult(match, joinable, n_distance, n_postings)
