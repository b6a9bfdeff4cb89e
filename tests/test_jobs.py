"""Every ``jobs/*.py`` entrypoint imports cleanly.

The jobs are the only harness that prints the paper's tables, and no
other test runs them. Importing each one (its ``__main__`` block does
not run) catches a job that still imports a deleted name.
"""
import importlib.util
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"


@pytest.mark.parametrize("path", sorted(JOBS.glob("*.py")), ids=lambda p: p.stem)
def test_job_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(JOBS))
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
