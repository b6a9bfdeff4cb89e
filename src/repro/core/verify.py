"""Algorithm 2: inverted-index verification (§III-C); PEXESO-H as a flag.

*Once per query column*, every blocking pair ⟨q, leaf⟩ expands to the
leaf's slice of the leaf-ordered rows, keyed by (q, column). Matching
pairs, and with ``use_pivots`` Lemma 2 hits, make a key *sure*;
candidate pairs make it *tried*. Candidate rows that pass Lemma 1 (all
of them without ``use_pivots``: PEXESO-H, §VI-A) outside sure keys are
kept. *Then, one query vector at a time*, kept rows of live columns get
an exact distance, and each live tried or sure column matches or misses.
Between query vectors two early terminations apply per column:

- a column whose match count reaches ``T_abs`` is joinable — it is not
  visited again (paper §III-C, also given to PEXESO-H);
- a column whose mismatch count exceeds ``|Q| - T_abs`` can never become
  joinable and is pruned (Lemma 7; not in PEXESO-H).

The verifier also counts exact distance computations (Fig. 7a).
"""
from __future__ import annotations

import numpy as np

from repro.core.block import BlockResult
from repro.core.grid import expand_ranges
from repro.core.inverted import InvertedIndex
from repro.core.regions import lemma1_survives, lemma2_matches
from repro.core.scan import settle

__all__ = ["verify"]


def verify(
    blocks: BlockResult,
    index: InvertedIndex,
    X: np.ndarray,
    Q: np.ndarray,
    Qp: np.ndarray,
    tau: float,
    T_abs: int,
    n_cols: int,
    *,
    use_pivots: bool = True,
    early_terminate: bool = True,
) -> tuple[np.ndarray, int]:
    """Algorithm 2 over the blocking output: (match count per column,
    number of exact distances). ``X`` is in its original row order;
    distances are ``|x|² + |q|² − 2x·q``, as in ``baselines.exact_scan``;
    a distance within ``scan.BOUNDARY`` of τ² is settled as the oracle
    rounds it (``scan.settle``).
    ``early_terminate=False`` disables the reach-T and Lemma-7 skips, so
    the counts are complete (exactness tests diff them with the scan).
    """
    n_q = len(Q)
    ls = index.leaf_start
    own, r = expand_ranges(ls[blocks.leaf], ls[blocks.leaf + 1])
    rq = blocks.q[own]
    key = rq * n_cols + index.col[r]
    sure = blocks.matched[own]
    kept = ~sure
    tried_keys = np.unique(key[kept])
    if use_pivots:
        for xj, qj in zip(index.XpT, Qp.T):
            x, q = xj.take(r), qj.take(rq)
            if qj.min() <= tau:  # else no x'[j] >= 0 meets Lemma 2
                sure |= lemma2_matches(x, q, tau)
            kept &= lemma1_survives(x, q, tau)
    sure_keys = np.unique(key[sure])
    kept &= ~np.isin(key, sure_keys)
    r, rq = r[kept], rq[kept]
    # CSR offsets per query vector into the kept rows and both key sets.
    q_rows = np.searchsorted(rq, np.arange(n_q + 1)).tolist()
    q_sure = np.searchsorted(sure_keys, np.arange(n_q + 1) * n_cols).tolist()
    q_tried = np.searchsorted(tried_keys, np.arange(n_q + 1) * n_cols).tolist()
    sure_col, tried_col = sure_keys % n_cols, tried_keys % n_cols
    rcol, rx, rx2 = index.col[r], index.perm[r], index.x2[r]

    match = np.zeros(n_cols, dtype=np.int64)
    mismatch = np.zeros(n_cols, dtype=np.int64)
    done = np.zeros(n_cols, dtype=bool)  # joinable, or pruned by Lemma 7
    is_got = np.zeros(n_cols, dtype=bool)
    prune_bound = n_q - T_abs  # Lemma 7: mismatch > bound → never joinable
    tau2 = tau * tau
    n_distance = 0
    for qi in range(n_q):
        a, b = q_rows[qi], q_rows[qi + 1]
        sc = sure_col[q_sure[qi]:q_sure[qi + 1]]
        tc = tried_col[q_tried[qi]:q_tried[qi + 1]]
        if not (len(sc) or len(tc)):
            continue
        live = ~done[rcol[a:b]]
        c, q, x, x2 = rcol[a:b][live], Q[qi], rx[a:b][live], rx2[a:b][live]
        d2 = x2 + q @ q - 2.0 * (X[x] @ q)
        n_distance += len(c)
        # A column repeated in ``got`` still counts once in ``match[got] += 1``.
        got = np.concatenate((sc[~done[sc]], c[settle(d2, tau2, X, x2, q, x)]))
        is_got[got] = True
        missed = tc[~(done[tc] | is_got[tc])]
        is_got[got] = False
        match[got] += 1
        mismatch[missed] += 1
        if early_terminate:
            done[got[match[got] >= T_abs]] = True
            if use_pivots:
                done[missed[mismatch[missed] > prune_bound]] = True
    return match, n_distance
