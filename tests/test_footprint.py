"""Memory held per mixture by search results and similarity tables, the peak
of a search with a Python evaluator and of writing its reports, and the
modules a fresh process loads.

Results are columns indexed by mixture, so their size per mixture is a few
array entries. Each memory test warms up first (the bank's flat copy and
numpy set-up), then measures with tracemalloc what one more call keeps
allocated while its result is alive. The module tests run in a fresh
interpreter: no command loads scipy, the L2 similarity metrics included.
scipy is a test dependency only, for the cross-check against cdist.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mergemix
from mergemix import (
    EmbeddingSet,
    Score,
    SimilarityMetric,
    builtin_eval_fn,
    emit_report,
    run_search,
    similarity_table,
)
from mergemix.tensor_store import write_checkpoint

from test_mixture_search import toy_bank, toy_target


def traced_growth(fn):
    """(bytes fn() leaves allocated, its result), as traced by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_builtin_search_retains_at_most_40_bytes_per_mixture():
    """int64 codes plus float64 accuracy and loss: 24 B per mixture. Lists of
    ScoreRecord objects held 464 B."""
    bank, data = toy_bank(12, seed=2), toy_target(3)
    run_search(bank, builtin_eval_fn, data)
    retained, report = traced_growth(lambda: run_search(bank, builtin_eval_fn, data))
    assert len(report.records) == 4095
    assert retained / len(report.records) <= 40


def traced_peak(fn):
    """(the most bytes allocated at once while fn() runs, above the start, its result)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_per_mixture_search_peaks_at_most_250_bytes_per_mixture():
    """A Python evaluator scores one merged Checkpoint at a time, so a search
    holds its codes, its score columns and one merge. A MixtureVector per
    mixture and a list of Scores peaked at 375 B."""
    bank, data = toy_bank(12, seed=2), toy_target(3)
    score = Score(0.5, 1.0, 40)

    def constant(ckpt, target, alpha):
        return score

    run_search(bank, constant, data)
    peak, report = traced_peak(lambda: run_search(bank, constant, data))
    assert len(report.records) == 4095
    assert peak / len(report.records) <= 250


@pytest.mark.parametrize("fmt, limit", [("json", 700), ("csv", 200)])
def test_search_report_writes_peak_per_mixture(tmp_path, fmt, limit):
    """A report is written as it is encoded, its rows drawn from the score
    columns: the JSON holds its record dicts but never its text, and the CSV
    holds one row at a time. With the text joined in memory and a ScoreRecord
    per row, the JSON peaked at 2,083 B per mixture and the CSV at 409 B."""
    bank, data = toy_bank(12, seed=2), toy_target(3)
    report = run_search(bank, builtin_eval_fn, data)
    path = tmp_path / f"report.{fmt}"
    emit_report(report, fmt, path)
    peak, _ = traced_peak(lambda: emit_report(report, fmt, path))
    assert len(report.records) == 4095
    assert peak / len(report.records) <= limit


def test_similarity_table_retains_at_most_16_bytes_per_mixture_and_no_cache():
    """One float64 per mixture; a table at a new N leaves nothing behind once
    dropped. A dict held 49 B per mixture, and cached keys stayed per N."""
    rng = np.random.default_rng(4)
    target = EmbeddingSet(rng.standard_normal((5, 3)).astype(np.float32), "T")
    per_dataset = [EmbeddingSet(rng.standard_normal((2, 3)).astype(np.float32), f"D{i}") for i in range(12)]
    metric = SimilarityMetric.AVG_MAX_COS
    similarity_table(target, per_dataset, metric)
    retained, table = traced_growth(lambda: similarity_table(target, per_dataset, metric))
    assert len(table) == 4095
    assert retained / len(table) <= 16
    del table
    left, size = traced_growth(lambda: len(similarity_table(target, per_dataset[:11], metric)))
    assert size == 2047
    assert left <= size


# ---------------------------------------------------------------------------
# modules loaded


SRC = str(Path(mergemix.__file__).resolve().parents[1])

LIST_SCIPY = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"

EMBEDDINGS = """
import numpy as np
from mergemix import EmbeddingSet
rng = np.random.default_rng(5)
target = EmbeddingSet(rng.standard_normal((6, 4)).astype(np.float32), "T")
per_dataset = [EmbeddingSet(rng.standard_normal((i + 2, 4)).astype(np.float32), f"D{i}") for i in range(4)]
"""


def fresh_process(code, *argv):
    """The last stdout line of code run in a new interpreter, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert fresh_process("import mergemix, mergemix.cli\n" + LIST_SCIPY) == []


def test_cosine_similarity_tables_load_no_scipy():
    code = EMBEDDINGS + """
from mergemix import SimilarityMetric, similarity_table
for metric in SimilarityMetric:
    if metric.direction == "maximize":
        assert len(similarity_table(target, per_dataset, metric)) == 15
""" + LIST_SCIPY
    assert fresh_process(code) == []


def test_external_search_loads_no_scipy(tmp_path):
    bank = tmp_path / "bank"
    bank.mkdir()
    for i, ckpt in enumerate(toy_bank(3, seed=6).models):
        write_checkpoint(ckpt, bank / f"{i}_d{i}.mtm")
    stub = tmp_path / "stub_eval.py"
    stub.write_text("print('{\"accuracy\": 0.5, \"loss\": 1.0}')\n")
    argv = ["search", "--bank", str(bank), "--target", "ref", "--out", str(tmp_path / "r.csv"),
            "--evaluator", f"{sys.executable} {stub} {{checkpoint}} {{data}}"]
    code = "from mergemix.cli import main\nassert main(sys.argv[1:]) == 0\n" + LIST_SCIPY
    assert fresh_process(code, *argv) == []
    assert (tmp_path / "r.json").exists()


def test_l2_tables_and_bench_load_no_scipy(tmp_path):
    code = EMBEDDINGS + """
from mergemix import SimilarityMetric, similarity_table
from mergemix.cli import main
for metric in SimilarityMetric:
    if metric.direction == "minimize":
        assert len(similarity_table(target, per_dataset, metric)) == 15
assert main(sys.argv[1:]) == 0
""" + LIST_SCIPY
    argv = ["bench", "--out", str(tmp_path / "run"), "--jobs", "1", "--num-datasets", "2",
            "--samples-per-dataset", "60", "--num-targets", "1", "--epochs", "1"]
    assert fresh_process(code, *argv) == []
    assert (tmp_path / "run" / "report.json").exists()


def l2_cross_check_sets():
    """(target rows, dataset rows) pairs: one-row sets, d = 1, zero and -0.0
    entries, magnitudes from 1e-30 to 1e30, and sets large enough for BLAS's
    blocked kernels."""
    rng = np.random.default_rng(9)
    cases = [(np.array([[1.5]]), np.array([[-2.25]])), (np.array([[0.0, -0.0]]), np.array([[-0.0, 0.0], [0.0, 3.0]]))]
    for exp in range(-30, 31, 5):
        for t_rows, s_rows, dim in ((1, 1, 1), (1, 7, 3), (5, 1, 1), (6, 9, 16), (37, 70, 32)):
            t = rng.standard_normal((t_rows, dim)) * 10.0**exp
            s = rng.standard_normal((s_rows, dim)) * 10.0**exp
            t[rng.random(t.shape) < 0.25] = 0.0
            s[rng.random(s.shape) < 0.25] = -0.0
            cases.append((t, s))
    return cases


def test_l2_distances_match_cdist_bit_for_bit():
    from scipy.spatial.distance import cdist

    from mergemix.baselines import _pairwise

    for i, (t, s) in enumerate(l2_cross_check_sets()):
        target = EmbeddingSet(t.astype(np.float32), "T")
        ds = EmbeddingSet(s.astype(np.float32), "D")
        want = cdist(target.embeddings.astype(np.float64), ds.embeddings.astype(np.float64))
        for metric in SimilarityMetric:
            if metric.direction == "minimize":
                got = _pairwise(target, ds, metric)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (metric, i)
