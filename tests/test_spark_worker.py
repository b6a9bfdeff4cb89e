"""Tests for what the Spark UDFs share: the zip-import invalidation they
install and the Arrow reader of their ``vec`` column."""
import importlib
import sys
import zipfile
import zipimport

import numpy as np
import pyarrow as pa
import pytest

from repro.spark import worker

_MODULE = "zipstat_probe"


def _write_archive(path, value) -> None:
    with zipfile.ZipFile(path, "w") as z:
        z.writestr(f"{_MODULE}.py", f"VALUE = {value!r}\n")


def _import_fresh():
    sys.modules.pop(_MODULE, None)
    return importlib.import_module(_MODULE)


@pytest.fixture
def archive(monkeypatch, tmp_path):
    """A zip on ``sys.path`` holding one module; the importer class, the
    path and the module are restored afterwards."""
    monkeypatch.setattr(
        zipimport.zipimporter, "invalidate_caches",
        zipimport.zipimporter.invalidate_caches,
    )
    path = tmp_path / "probe.zip"
    _write_archive(path, 1)
    monkeypatch.syspath_prepend(str(path))
    monkeypatch.delitem(sys.modules, _MODULE, raising=False)
    yield path
    sys.modules.pop(_MODULE, None)


@pytest.fixture
def directory_reads(monkeypatch, archive):
    """Archive paths passed to ``zipimport._read_directory``, in order."""
    reads = []
    read = zipimport._read_directory

    def counting(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(zipimport, "_read_directory", counting)
    return reads


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="invalidation is lazy from 3.13")
def test_unchanged_archive_is_not_reread(archive, directory_reads):
    assert _import_fresh().VALUE == 1
    worker.install_stat_checked_zip_invalidation()
    importlib.invalidate_caches()  # the first call after installing reads
    directory_reads.clear()
    importlib.invalidate_caches()
    importlib.invalidate_caches()
    assert str(archive) not in directory_reads
    assert _import_fresh().VALUE == 1


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="invalidation is lazy from 3.13")
def test_changed_archive_is_reread(archive, directory_reads):
    assert _import_fresh().VALUE == 1
    worker.install_stat_checked_zip_invalidation()
    importlib.invalidate_caches()
    directory_reads.clear()
    _write_archive(archive, "a longer value than before")
    importlib.invalidate_caches()
    assert directory_reads.count(str(archive)) == 1
    assert _import_fresh().VALUE == "a longer value than before"


def test_second_install_is_a_no_op(archive):
    worker.install_stat_checked_zip_invalidation()
    installed = zipimport.zipimporter.invalidate_caches
    worker.install_stat_checked_zip_invalidation()
    assert zipimport.zipimporter.invalidate_caches is installed


def test_not_installed_from_python_3_13(monkeypatch, archive):
    original = zipimport.zipimporter.invalidate_caches
    monkeypatch.setattr(sys, "version_info", (3, 13, 0, "final", 0))
    worker.install_stat_checked_zip_invalidation()
    assert zipimport.zipimporter.invalidate_caches is original


def test_vector_rows_reads_a_slice_and_no_rows():
    """A batch's lists become one matrix, a sliced array's only its own
    rows, and an empty batch no rows."""
    vec = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], type=pa.list_(pa.float64()))
    assert np.array_equal(worker.vector_rows(vec.slice(1)), [[3.0, 4.0], [5.0, 6.0]])
    assert worker.vector_rows(vec.slice(3), 2).shape == (0, 2)


@pytest.mark.parametrize("vecs,d,message", [
    ([[1.0, 2.0], None], None, "a vec is null"),
    ([[1.0, 2.0], [3.0, None]], None, "holds a null value"),
    ([[1.0], [2.0, 3.0, 4.0]], 2, "must hold 2 values"),  # total 4 divides by d
    ([[1.0, 2.0, 3.0]], 2, "must hold 2 values"),
])
def test_vector_rows_rejects_bad_lists(vecs, d, message):
    with pytest.raises(ValueError, match=message):
        worker.vector_rows(pa.array(vecs, type=pa.list_(pa.float64())), d)
