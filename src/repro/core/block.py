"""Algorithm 1: dual-grid blocking, plus quick browsing (§III-B, §III-C).

The descent walks ``HG_Q`` and ``HG_SV`` level by level in lockstep
(both grids are built with the same ``m``), keeping a frontier of
surviving (query cell, target cell) index pairs. Each level expands the
frontier to the cross product of the pairs' children and tests all of it
with the one-pivot tests of ``regions``, one pivot at a time over the
grids' column-major integer coordinates: inner levels prune with Lemma 4
or resolve with Lemma 6; the leaf level resolves each query vector with
Lemmas 3 and 5. The output pairs ⟨query vector, leaf cell⟩ are either

- *matching pairs*: every vector of the ``HG_SV`` leaf is guaranteed to
  match the query vector (no distance computation needed), or
- *candidate pairs*: leaves that could not be filtered.

*Quick browsing*: a query leaf cell and a target leaf cell with the same
coordinates occupy the same space region, so Lemma 3 can never filter
them — they are emitted as candidates without evaluating Lemmas 3/5.
"""
from __future__ import annotations

import numpy as np

from repro.core import regions
from repro.core.grid import HierarchicalGrid, expand_ranges

__all__ = ["BlockResult", "block"]


class BlockResult:
    """(query vector, target leaf) pairs as arrays stably sorted by query vector.

    Pair ``k`` is ⟨``q[k]``, ``leaf[k]``⟩; ``matched`` flags matching
    pairs, the rest are candidate pairs.
    """

    def __init__(self, q: np.ndarray, leaf: np.ndarray, matched: np.ndarray) -> None:
        order = np.argsort(q, kind="stable")
        self.q, self.leaf, self.matched = q[order], leaf[order], matched[order]

    def n_candidates(self) -> int:
        return int(np.count_nonzero(~self.matched))

    def n_matches(self) -> int:
        return int(np.count_nonzero(self.matched))


def block(
    hg_q: HierarchicalGrid,
    hg_s: HierarchicalGrid,
    Qp: np.ndarray,
    tau: float,
) -> BlockResult:
    """Run Algorithm 1 with quick browsing and return the pair sets."""
    if hg_q.m != hg_s.m:
        raise ValueError("HG_Q and HG_SV must be built with the same m")
    m = hg_q.m
    qs, leaves, flags = [], [], []
    root = np.zeros(min(hg_q.n_level(0), hg_s.n_level(0)), dtype=np.int64)
    fq, fs = root, root
    for level in range(1, m + 1):
        # Expand every frontier pair into the cross product of its children.
        own, cq = expand_ranges(*hg_q.below(level - 1, fq, level))
        lo, hi = hg_s.below(level - 1, fs, level)
        own, cs = expand_ranges(lo[own], hi[own])
        cq = cq[own]
        if level == m:
            break
        side = hg_s.side(level)
        filtered = matched = False
        for s_c, q_c in zip(hg_s.coords[level].T, hg_q.coords[level].T):
            s_lo, q_lo = s_c.take(cs) * side, q_c.take(cq) * side
            s_up, q_up = s_lo + side, q_lo + side
            filtered = filtered | regions.filtered_on_pivot(s_lo, s_up, q_lo, q_up, tau)
            matched = matched | regions.matched_on_pivot(s_up, q_up, tau)
        survive = ~(matched | filtered)  # Lemma 6 resolves, Lemma 4 prunes
        # Lemma 6 fired: every q under cq matches every leaf under cs.
        own, q = hg_q.rows(level, cq[matched])
        lo, hi = hg_s.below(level, cs[matched], m)
        own, leaf = expand_ranges(lo[own], hi[own])
        qs.append(q[own])
        leaves.append(leaf)
        flags.append(np.ones(len(leaf), dtype=bool))
        fq, fs = cq[survive], cs[survive]

    # Leaf × leaf: Lemmas 3 and 5 for every query vector of each pair, and
    # quick browsing's same-coordinates test.
    own, q = hg_q.rows(m, cq)
    cs, cq = cs[own], cq[own]
    side = hg_s.side(m)
    filtered = matched = False
    same = True
    for s_c, q_c, qp_j in zip(hg_s.coords[m].T, hg_q.coords[m].T, Qp.T):
        c, qp = s_c.take(cs), qp_j.take(q)
        lo = c * side
        up = lo + side
        filtered = filtered | regions.filtered_on_pivot(lo, up, qp, qp, tau)
        matched = matched | regions.matched_on_pivot(up, qp, tau)
        same = same & (c == q_c.take(cq))
    filtered &= ~same
    matched &= ~same
    keep = matched | ~filtered
    qs.append(q[keep])
    leaves.append(cs[keep])
    flags.append(matched[keep])
    return BlockResult(np.concatenate(qs), np.concatenate(leaves), np.concatenate(flags))
