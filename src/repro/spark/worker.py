"""What the repository's Python UDFs do first in a Spark worker process.

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
"""
from __future__ import annotations

import os
import sys
import zipimport

__all__ = ["install_stat_checked_zip_invalidation"]


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
