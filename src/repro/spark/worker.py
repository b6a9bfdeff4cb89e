"""What the repository's Python UDFs share in a Spark worker process.

PySpark's worker calls ``importlib.invalidate_caches()`` before every
task. Up to CPython 3.12 that makes every ``zipimport.zipimporter``
re-read its whole archive directory: a worker holds one importer per
package imported from ``pyspark.zip`` (about a dozen, over its ~1,300
entries), and on a local 4-core host one invalidation took 134–254 ms of
each task, more than the search in it. CPython 3.13 made the
invalidation lazy.

:func:`install_stat_checked_zip_invalidation` replaces the importer's
``invalidate_caches`` with one that re-reads an archive only when its
``(st_mtime_ns, st_size)`` differs from what it was at that importer's
last read, so an archive that changed is still re-read. The UDF bodies
call it; it is never installed on import, so the driver keeps the
interpreter's own behaviour.

:func:`vector_rows` reads a list column of an Arrow batch, such as
``vec array<double>``, as one (rows, d) matrix over the batch's own
buffer.
"""
from __future__ import annotations

import os
import sys
import zipimport

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["install_stat_checked_zip_invalidation", "vector_rows"]


def _archive_stat(path: str) -> tuple[int, int] | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


def install_stat_checked_zip_invalidation() -> None:
    """Make ``zipimporter.invalidate_caches`` skip unchanged archives.

    A no-op on CPython ≥ 3.13 and when already installed. An importer
    whose archive cannot be stat'ed is re-read every time, as before.
    """
    if sys.version_info >= (3, 13):
        return
    reread = zipimport.zipimporter.invalidate_caches
    if getattr(reread, "stat_checked", False):
        return

    def invalidate_caches(self) -> None:
        # Stat before reading, so a change during the read shows next time.
        stat = _archive_stat(self.archive)
        if stat is None or stat != getattr(self, "_read_stat", None):
            reread(self)
            self._read_stat = stat

    invalidate_caches.stat_checked = True
    zipimport.zipimporter.invalidate_caches = invalidate_caches


def vector_rows(vec: pa.Array | pa.ChunkedArray, d: int | None = None) -> np.ndarray:
    """The lists of ``vec`` (``array<double>`` or ``array<long>``) as the
    rows of one (rows, d) matrix.

    ``d`` defaults to the first list's length. A reshape of the flat
    values would not see a list of another length (the rows would just
    shift whenever the total divides by d), so every length is checked:
    ``ValueError`` on a null list, a null element or a length other
    than d. No rows give a (0, d) matrix (d = 0 when unknown).
    """
    if isinstance(vec, pa.ChunkedArray):
        vec = vec.combine_chunks()
    if len(vec) == 0:
        return np.empty((0, d or 0))
    if vec.null_count:
        raise ValueError("a vec is null")
    lengths = pc.list_value_length(vec).to_numpy()
    d = int(lengths[0]) if d is None else d
    if np.any(lengths != d):
        raise ValueError(f"every vec must hold {d} values")
    flat = pc.list_flatten(vec)
    if flat.null_count:
        raise ValueError("a vec holds a null value")
    return flat.to_numpy().reshape(len(vec), d)
