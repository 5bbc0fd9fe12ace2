"""Names looked up in mergemix: the functions the benchmark's tracer wraps by
module and name, and the package's public __all__. A rename, move or removal
must not leave one of them unresolved."""

import importlib
import importlib.util
from pathlib import Path

import mergemix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, attr, *_ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"mergemix.{module}"), attr)), (module, attr)


def test_every_public_name_resolves_once():
    assert len(mergemix.__all__) == len(set(mergemix.__all__))
    for name in mergemix.__all__:
        assert hasattr(mergemix, name), name
