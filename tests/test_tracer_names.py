"""The benchmark's tracer wraps mergemix functions by module and name; a
rename or move must not leave one of them unresolved."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, attr, *_ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"mergemix.{module}"), attr)), (module, attr)
