"""Spans and counters for the traced run, recorded from the benchmark only.

While a ``Tracer`` is active it replaces the public names that
``PexesoIndex`` calls with timing wrappers, so the engine's layers are
timed without touching the program. Spans live in memory and are turned
into per-layer metrics when the run ends: per operation, the spans of
one name are summed; the metric is the median over operations.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Iterator

from repro.core import block as blockmod
from repro.core import pexeso
from repro.core import verify as verifymod

__all__ = ["Tracer", "TARGETS", "SEARCH", "BUILD"]

# (module, attribute, span name during a build, span name during a search)
TARGETS = [
    (pexeso, "select_pivots", "pivots.select_ms", "pivots.select_ms"),
    (pexeso, "pivot_map", "pivots.map_ms", "pivots.map_query_ms"),
    (pexeso, "HierarchicalGrid", "grid.build_ms", "grid.query_build_ms"),
    (pexeso, "InvertedIndex", "inverted.build_ms", "inverted.build_ms"),
    (blockmod, "block", "block.ms", "block.ms"),
    (verifymod, "verify", "verify.ms", "verify.ms"),
]
#: Root spans the benchmark opens around ``PexesoIndex.search`` and
#: ``PexesoIndex(...)``. A wrapped layer records a span only under one of
#: them, so the PEXESO-H calls of the blocked path stay out of the layer
#: metrics. The self time of SEARCH is what the wrapped layers leave out.
SEARCH = "search"
BUILD = "build"


class Tracer:
    """Spans ``[op, name, start, end, parent]`` and counters per operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []
        self.op = -1
        self.active = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def activate(self, op: int) -> Iterator[None]:
        """Trace operation ``op``: install the wrappers, then restore them."""
        saved = []
        for module, attr, build_name, search_name in TARGETS:
            if not hasattr(module, attr):
                raise RuntimeError(
                    f"trace target {module.__name__}.{attr} no longer exists; "
                    "update perfbench/tracing.py"
                )
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, build_name, search_name))
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.active = False
            for module, attr, orig in saved:
                setattr(module, attr, orig)

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return self._span(name) if self.active else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str) -> Iterator[None]:
        rec = [self.op, name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.active:
            self.counts.append((self.op, name, value))

    def _root(self) -> str | None:
        for i in reversed(self._stack):
            if self.spans[i][1] in (SEARCH, BUILD):
                return self.spans[i][1]
        return None

    def _wrap(self, fn: Callable, build_name: str, search_name: str) -> Callable:
        def traced(*args, **kwargs):
            root = self._root()
            if root is None:
                return fn(*args, **kwargs)
            with self._span(search_name if root == SEARCH else build_name):
                return fn(*args, **kwargs)

        return traced

    # -- aggregation ------------------------------------------------------
    def per_op(self) -> tuple[dict[str, dict[int, float]], dict[str, dict[int, float]]]:
        """(sum of ms per op, max single span ms per op), keyed by name."""
        total: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        worst: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        child_ms = defaultdict(float)
        for op, name, t0, t1, parent in self.spans:
            ms = (t1 - t0) * 1e3
            total[name][op] += ms
            worst[name][op] = max(worst[name][op], ms)
            if parent is not None:
                child_ms[parent] += ms
        for i, (op, name, t0, t1, _) in enumerate(self.spans):
            if name == SEARCH:
                total["search.self_ms"][op] += (t1 - t0) * 1e3 - child_ms[i]
        for op, name, value in self.counts:
            total[name][op] += value
        return total, worst
