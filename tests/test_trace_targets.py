"""The layer names the benchmark's traced run wraps must exist.

``perfbench/tracing.py`` replaces a fixed list of (module, attribute)
names with timing wrappers and raises if one is missing. Loading that
list here makes a refactor that drops or renames a traced name fail the
test suite instead of the benchmark.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _build_name, _search_name in tracing.TARGETS:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
