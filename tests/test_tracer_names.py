"""Names looked up in mergemix: the functions the benchmark's tracer wraps by
module and name, and the package's public __all__. A rename, move or removal
must not leave one of them unresolved, and a changed signature must not break
a traced run."""

import importlib
import importlib.util
from pathlib import Path

import mergemix
from mergemix import cli

from test_cli import make_bank_dir, write_target_dataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    assert tracing.TRACED
    for module, attr, *_ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"mergemix.{module}"), attr)), (module, attr)


def test_every_public_name_resolves_once():
    assert len(mergemix.__all__) == len(set(mergemix.__all__))
    for name in mergemix.__all__:
        assert hasattr(mergemix, name), name


def test_traced_bench_and_search_run_and_count_report_bytes(tmp_path):
    """A tiny bench and a tiny builtin search under the tracer: every wrapped
    call, and each count read from its arguments, still works."""
    bench = ["bench", "--out", str(tmp_path / "bench"), "--num-datasets", "3", "--samples-per-dataset", "60",
             "--num-targets", "1", "--epochs", "1"]
    bank = make_bank_dir(tmp_path)
    write_target_dataset(tmp_path / "target.mtm")
    search = ["search", "--bank", str(bank), "--target", str(tmp_path / "target.mtm"),
              "--out", str(tmp_path / "search.csv")]
    with load_tracing().Tracer() as tracer:
        assert cli.main(bench) == 0
        assert cli.main(search) == 0
    report_bytes, unit = tracer.layer_metrics(1, 0)["analytics.report_bytes"]
    assert report_bytes > 0 and unit == "B"
    assert tracer.calls["analytics.write_plot_csv"] == 1 and tracer.calls["cli.main"] == 2
