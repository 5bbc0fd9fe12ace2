"""End-to-end CLI tests: every subcommand against temp directories, exit
codes, stdout protocol, manifests, and logging control."""

import csv
import dataclasses
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import mergemix
from mergemix import toy_bench
from mergemix.baselines import SimilarityMetric, similarity_table
from mergemix.cli import build_parser, main
from mergemix.errors import ValidationError
from mergemix.evaluator import EvalDataset, write_eval_dataset
from mergemix.tensor_store import (
    Checkpoint,
    EmbeddingSet,
    read_checkpoint,
    write_checkpoint,
    write_embeddings,
)
from mergemix.toy_bench import BenchConfig, TrainConfig, init_checkpoint


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(mergemix.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "mergemix.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def assert_clean_validation_failure(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1


def assert_single_json_line(out):
    assert out.count("\n") == 1 and out.endswith("\n")
    return json.loads(out)


def write_mlp(path, seed, input_dim=4, hidden=6, classes=3):
    ckpt = init_checkpoint(np.random.default_rng(seed), input_dim, hidden, classes)
    write_checkpoint(ckpt, path)
    return ckpt


def write_target_dataset(path, seed=0, n=30, input_dim=4, classes=3):
    rng = np.random.default_rng(seed)
    data = EvalDataset(
        features=rng.standard_normal((n, input_dim)).astype(np.float32),
        labels=list(rng.integers(0, classes, size=n)),
        num_classes=classes,
        name="target",
    )
    write_eval_dataset(data, path)
    return data


# ============================================================================
# merge
# ============================================================================


def test_merge_uniform(tmp_path, capsys):
    a = tmp_path / "a.mtm"
    b = tmp_path / "b.mtm"
    write_checkpoint(Checkpoint(tensors={"w": np.array([1.0, 2.0], dtype=np.float32)}), a)
    write_checkpoint(Checkpoint(tensors={"w": np.array([3.0, 6.0], dtype=np.float32)}), b)
    out = tmp_path / "merged.mtm"
    code, stdout, _ = run_cli(["merge", "--models", str(a), str(b), "--out", str(out)], capsys)
    assert code == 0
    payload = assert_single_json_line(stdout)
    assert payload == {"tensors": 1, "parameters": 2, "out": str(out)}
    merged = read_checkpoint(out)
    assert np.array_equal(merged.tensors["w"], np.array([2.0, 4.0], dtype=np.float32))


def test_merge_weighted(tmp_path, capsys):
    a = tmp_path / "a.mtm"
    b = tmp_path / "b.mtm"
    write_checkpoint(Checkpoint(tensors={"w": np.zeros(2, dtype=np.float32)}), a)
    write_checkpoint(Checkpoint(tensors={"w": np.array([4.0, 8.0], dtype=np.float32)}), b)
    out = tmp_path / "merged.mtm"
    code, stdout, _ = run_cli(
        ["merge", "--models", str(a), str(b), "--out", str(out), "--weights", "0.25,0.75"],
        capsys,
    )
    assert code == 0
    merged = read_checkpoint(out)
    assert np.allclose(merged.tensors["w"], [3.0, 6.0], atol=1e-7)


def test_merge_single_model_is_identity(tmp_path, capsys):
    a = tmp_path / "a.mtm"
    original = write_mlp(a, seed=7)
    out = tmp_path / "copy.mtm"
    code, _, _ = run_cli(["merge", "--models", str(a), "--out", str(out)], capsys)
    assert code == 0
    merged = read_checkpoint(out)
    for name, arr in original.tensors.items():
        assert merged.tensors[name].tobytes() == arr.tobytes()


def test_merge_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["merge", "--models", str(tmp_path / "nope.mtm"), "--out", str(tmp_path / "o.mtm")],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_merge_bad_weights_exits_1(tmp_path, capsys):
    a = tmp_path / "a.mtm"
    write_checkpoint(Checkpoint(tensors={"w": np.ones(2, dtype=np.float32)}), a)
    code, _, err = run_cli(
        ["merge", "--models", str(a), "--out", str(tmp_path / "o.mtm"), "--weights", "-1.0"],
        capsys,
    )
    assert code == 1
    assert "error:" in err


def test_merge_non_numeric_weight_exits_1(tmp_path):
    a = tmp_path / "a.mtm"
    b = tmp_path / "b.mtm"
    write_checkpoint(Checkpoint(tensors={"w": np.ones(2, dtype=np.float32)}), a)
    write_checkpoint(Checkpoint(tensors={"w": np.ones(2, dtype=np.float32)}), b)
    proc = run_cli_process(
        ["merge", "--models", str(a), str(b), "--out", str(tmp_path / "o.mtm"), "--weights", "1,x"]
    )
    assert_clean_validation_failure(proc)
    assert "--weights" in proc.stderr
    assert not (tmp_path / "o.mtm").exists()


def test_merge_empty_weights_exits_1(tmp_path):
    """An empty --weights is a malformed list, not a request for the uniform merge."""
    a = tmp_path / "a.mtm"
    b = tmp_path / "b.mtm"
    write_checkpoint(Checkpoint(tensors={"w": np.array([1.0], dtype=np.float32)}), a)
    write_checkpoint(Checkpoint(tensors={"w": np.array([3.0], dtype=np.float32)}), b)
    proc = run_cli_process(["merge", "--models", str(a), str(b), "--out", str(tmp_path / "o.mtm"), "--weights", ""])
    assert_clean_validation_failure(proc)
    assert proc.stderr == "error: --weights must be comma-separated numbers, got ''\n"
    assert not (tmp_path / "o.mtm").exists()


def test_merge_weight_count_mismatch_exits_1(tmp_path, capsys):
    a = tmp_path / "a.mtm"
    b = tmp_path / "b.mtm"
    write_checkpoint(Checkpoint(tensors={"w": np.ones(2, dtype=np.float32)}), a)
    write_checkpoint(Checkpoint(tensors={"w": np.ones(2, dtype=np.float32)}), b)
    code, _, _ = run_cli(
        ["merge", "--models", str(a), str(b), "--out", str(tmp_path / "o.mtm"), "--weights", "0.5"],
        capsys,
    )
    assert code == 1


# ============================================================================
# search
# ============================================================================


def make_bank_dir(tmp_path, n=2):
    bank = tmp_path / "bank"
    bank.mkdir()
    for i in range(n):
        write_mlp(bank / f"{i}_model{chr(ord('a') + i)}.mtm", seed=100 + i)
    (bank / "README.txt").write_text("not a checkpoint\n")
    return bank


def test_search_builtin(tmp_path, capsys):
    bank = make_bank_dir(tmp_path)
    target = tmp_path / "target.mtm"
    write_target_dataset(target)
    out = tmp_path / "report.csv"
    code, stdout, _ = run_cli(
        ["search", "--bank", str(bank), "--target", str(target), "--out", str(out), "--jobs", "1"],
        capsys,
    )
    assert code == 0
    payload = assert_single_json_line(stdout)
    assert len(payload["best_alpha"]) == 2
    assert payload["objective"] == "max_accuracy"
    assert set(payload["datasets"]) <= {"modela", "modelb"}
    assert out.exists()
    assert (tmp_path / "report.json").exists()
    manifest = json.loads((tmp_path / "report.manifest.json").read_text())
    assert manifest["command"] == "search"
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3


def test_search_manifest_digests(tmp_path, capsys):
    bank = make_bank_dir(tmp_path)
    target = tmp_path / "target.mtm"
    write_target_dataset(target)
    out = tmp_path / "report.csv"
    code, _, _ = run_cli(
        ["search", "--bank", str(bank), "--target", str(target), "--out", str(out)], capsys
    )
    assert code == 0
    manifest = json.loads((tmp_path / "report.manifest.json").read_text())
    digests = manifest["input_digests"]
    assert str(target) in digests
    expected = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digests[str(target)] == expected
    assert manifest["outputs"] == [str(out), str(tmp_path / "report.json")]


def test_search_manifest_digests_only_the_files_it_read(tmp_path, capsys):
    """A stray file in the bank directory and the reports written into it are not inputs."""
    bank = make_bank_dir(tmp_path)
    target = tmp_path / "target.mtm"
    write_target_dataset(target)
    out = bank / "report.csv"
    argv = ["search", "--bank", str(bank), "--target", str(target), "--out", str(out)]
    for _ in range(2):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        manifest = json.loads((bank / "report.manifest.json").read_text())
        read = [bank / "0_modela.mtm", bank / "1_modelb.mtm", target]
        assert manifest["input_digests"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in read}


def test_search_min_loss_objective(tmp_path, capsys):
    bank = make_bank_dir(tmp_path)
    target = tmp_path / "target.mtm"
    write_target_dataset(target)
    out = tmp_path / "report.csv"
    code, stdout, _ = run_cli(
        [
            "search",
            "--bank",
            str(bank),
            "--target",
            str(target),
            "--objective",
            "loss",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    assert assert_single_json_line(stdout)["objective"] == "min_loss"


def test_search_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    """Reports hold no timing: a clock that ticks unevenly, as evaluation
    times jitter from run to run, changes no byte."""
    bank = make_bank_dir(tmp_path, n=3)
    target = tmp_path / "target.mtm"
    write_target_dataset(target)
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) ** 2 * 1e-3)
    outs = [tmp_path / "run1" / "report.csv", tmp_path / "run2" / "report.csv"]
    for out in outs:
        out.parent.mkdir()
        argv = ["search", "--bank", str(bank), "--target", str(target), "--out", str(out), "--jobs", "1"]
        assert run_cli(argv, capsys)[0] == 0
    for name in ("report.csv", "report.json"):
        assert (outs[0].parent / name).read_bytes() == (outs[1].parent / name).read_bytes(), name


def test_search_jobs_defaults_to_one(tmp_path, capsys, monkeypatch):
    """Without --jobs a search runs one worker, whatever the core count, and
    writes the bytes of --jobs 1."""
    bank = make_bank_dir(tmp_path, n=4)
    target = tmp_path / "target.mtm"
    write_target_dataset(target)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    outs = {}
    for label, extra in (("default", []), ("one", ["--jobs", "1"])):
        out = tmp_path / label / "report.csv"
        out.parent.mkdir()
        argv = ["search", "--bank", str(bank), "--target", str(target), "--out", str(out), *extra]
        assert run_cli(argv, capsys)[0] == 0
        outs[label] = out.parent
    manifest = json.loads((outs["default"] / "report.manifest.json").read_text())
    assert manifest["config"]["jobs"] == 1
    for name in ("report.csv", "report.json"):
        assert (outs["default"] / name).read_bytes() == (outs["one"] / name).read_bytes(), name


def external_stub(tmp_path, body):
    script = tmp_path / "stub_eval.py"
    script.write_text(body)
    return f"{sys.executable} {script} {{checkpoint}} {{data}}"


def test_search_external_evaluator(tmp_path, capsys):
    bank = make_bank_dir(tmp_path)
    seen = tmp_path / "seen.txt"
    template = external_stub(
        tmp_path,
        "import sys\n"
        f"open({str(seen)!r}, 'a').write(sys.argv[1] + '|' + sys.argv[2] + chr(10))\n"
        "print('some harness noise')\n"
        "print('{\"accuracy\": 0.75, \"loss\": 0.5}')\n",
    )
    out = tmp_path / "report.csv"
    code, stdout, _ = run_cli(
        [
            "search",
            "--bank",
            str(bank),
            "--target",
            "opaque-data-ref",
            "--evaluator",
            template,
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    calls = seen.read_text().strip().splitlines()
    assert len(calls) == 3
    for line in calls:
        ckpt_arg, data_arg = line.split("|")
        assert ckpt_arg.endswith(".mtm")
        assert data_arg == "opaque-data-ref"
    payload = assert_single_json_line(stdout)
    # every mixture scores the same: fewest datasets, then smallest bit string
    assert payload["best_alpha"] == "01"


def test_search_external_removes_its_workdir(tmp_path, capsys, monkeypatch):
    bank = make_bank_dir(tmp_path)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setenv("TMPDIR", str(scratch))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    template = external_stub(tmp_path, "print('{\"accuracy\": 0.5, \"loss\": 1.0}')\n")
    code, _, _ = run_cli(
        [
            "search",
            "--bank",
            str(bank),
            "--target",
            "ref",
            "--evaluator",
            template,
            "--out",
            str(tmp_path / "r.csv"),
        ],
        capsys,
    )
    assert code == 0
    assert list(scratch.glob("mergemix-search-*")) == []


def test_search_external_failure_exits_3(tmp_path, capsys):
    bank = make_bank_dir(tmp_path)
    template = external_stub(tmp_path, "import sys\nsys.exit(2)\n")
    code, _, err = run_cli(
        [
            "search",
            "--bank",
            str(bank),
            "--target",
            "ref",
            "--evaluator",
            template,
            "--out",
            str(tmp_path / "r.csv"),
        ],
        capsys,
    )
    assert code == 3
    assert "mixture" in err


def search_external_argv(tmp_path, template):
    return ["search", "--bank", str(make_bank_dir(tmp_path)), "--target", "ref",
            "--evaluator", template, "--out", str(tmp_path / "r.csv")]


def test_search_external_non_utf8_stdout_exits_3(tmp_path, capsys):
    """Evaluator stdout that is not UTF-8 is an evaluator failure, not a crash."""
    template = external_stub(tmp_path, "import sys\nsys.stdout.buffer.write(b'\\xff\\n')\n")
    code, _, err = run_cli(search_external_argv(tmp_path, template), capsys)
    assert code == 3
    assert err.startswith("error: mixture 01: unparsable evaluator output: not UTF-8")
    assert err.count("\n") == 1


def test_search_external_non_utf8_stderr_keeps_exit_code_and_tail(tmp_path, capsys):
    template = external_stub(tmp_path, "import sys\nsys.stderr.buffer.write(b'\\xff oops')\nsys.exit(4)\n")
    code, _, err = run_cli(search_external_argv(tmp_path, template), capsys)
    assert code == 3
    assert err == "error: mixture 01: evaluator failed (exit 4); stderr: � oops\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"accuracy": "0.5", "loss": true}', "evaluator output fields must be numbers"),
        ('{"accuracy": 0.5, "loss": ' + "9" * 401 + "}", "evaluator output fields must be numbers"),
        ('{"accuracy": 0.5, "loss": NaN}', "mean_loss must be finite and >= 0, got nan"),
        ("[" * 100000, "unparsable evaluator output: " + repr("[" * 100000)),
    ],
    ids=["text_and_bool", "int_beyond_float", "nan_loss", "nested_too_deep"],
)
def test_search_malformed_evaluator_output_exits_3(tmp_path, capsys, line, message):
    """Any output that is no valid score is an evaluator failure: exit 3, one line naming the mixture."""
    template = external_stub(tmp_path, f"print({line!r})\n")
    code, out, err = run_cli(search_external_argv(tmp_path, template), capsys)
    assert (code, out) == (3, "")
    assert err == f"error: mixture 01: {message}\n"


def test_bench_jobs_help_says_the_flag_is_unused(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert "runs in one process" in " ".join(capsys.readouterr().out.split())


def test_search_eval_timeout_exits_3(tmp_path):
    """A hung evaluator under --eval-timeout ends the search with exit 3 and
    one error line naming the mixture and the limit, without a traceback."""
    bank = make_bank_dir(tmp_path)
    template = external_stub(tmp_path, "import time\ntime.sleep(60)\n")
    argv = ["search", "--bank", str(bank), "--target", "ref", "--evaluator", template,
            "--out", str(tmp_path / "r.csv"), "--eval-timeout", "0.5"]
    started = time.monotonic()
    proc = run_cli_process(argv)
    assert time.monotonic() - started < 60
    assert proc.returncode == 3
    assert proc.stderr == "error: mixture 01: evaluator timed out after 0.5 s\n"


@pytest.mark.parametrize(
    "template, message",
    [
        ("python 'x.py {checkpoint} {data}", "command template does not split into arguments: No closing quotation"),
        ("python x.py {checkpoint}", "command template must contain {checkpoint} and {data}"),
    ],
    ids=["unclosed_quote", "no_data"],
)
def test_search_rejects_a_malformed_evaluator_before_any_mixture(tmp_path, capsys, template, message):
    """A template that cannot run is a usage error of --evaluator, not a failure of the first mixture."""
    code, out, err = run_cli(search_external_argv(tmp_path, template), capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: --evaluator: {message}"]
    assert list(tmp_path.glob("r.*")) == []


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_search_rejects_bad_eval_timeout(tmp_path, value):
    bank = make_bank_dir(tmp_path)
    argv = ["search", "--bank", str(bank), "--target", "ref", "--evaluator", "x {checkpoint} {data}",
            "--out", str(tmp_path / "r.csv"), f"--eval-timeout={value}"]
    proc = run_cli_process(argv)
    assert_clean_validation_failure(proc)
    assert "--eval-timeout" in proc.stderr


def test_search_empty_bank_exits_1(tmp_path, capsys):
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "loose_file.bin").write_bytes(b"x")
    code, _, err = run_cli(
        ["search", "--bank", str(bank), "--target", "t", "--out", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 1
    assert ".mtm" in err


def test_search_duplicate_bank_indices_exits_1(tmp_path, capsys):
    bank = tmp_path / "bank"
    bank.mkdir()
    write_mlp(bank / "0_a.mtm", seed=1)
    write_mlp(bank / "00_b.mtm", seed=2)
    code, _, err = run_cli(
        ["search", "--bank", str(bank), "--target", "t", "--out", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 1
    assert "duplicate" in err


def test_search_missing_bank_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(
        ["search", "--bank", str(tmp_path / "nope"), "--target", "t", "--out", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 2


# ============================================================================
# similarity
# ============================================================================


def test_similarity_min_min_l2(tmp_path, capsys):
    target = tmp_path / "target.mtm"
    d1 = tmp_path / "d1.mtm"
    d2 = tmp_path / "d2.mtm"
    write_embeddings(EmbeddingSet(np.array([[0.0, 0.0]], dtype=np.float32), "t"), target)
    write_embeddings(EmbeddingSet(np.array([[3.0, 4.0]], dtype=np.float32), "a"), d1)
    write_embeddings(EmbeddingSet(np.array([[6.0, 8.0]], dtype=np.float32), "b"), d2)
    out = tmp_path / "scores.csv"
    code, stdout, _ = run_cli(
        [
            "similarity",
            "--target",
            str(target),
            "--datasets",
            str(d1),
            str(d2),
            "--metric",
            "min_min_l2",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = assert_single_json_line(stdout)
    assert payload["best_alpha"] == "10"
    assert payload["score"] == pytest.approx(5.0, abs=1e-9)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mixture_bits"] for r in rows] == ["01", "10", "11"]
    by_bits = {r["mixture_bits"]: float(r["score"]) for r in rows}
    assert by_bits["01"] == pytest.approx(10.0, abs=1e-9)
    assert by_bits["11"] == pytest.approx(5.0, abs=1e-9)
    side = json.loads((tmp_path / "scores.json").read_text())
    assert side["direction"] == "minimize"
    assert side["best_alpha"] == "10"


def test_similarity_rows_follow_the_table(tmp_path, capsys):
    """Rows in bit-string order, each with its own mixture's score, in CSV and JSON."""
    rng = np.random.default_rng(3)
    sets = [EmbeddingSet(rng.standard_normal((i + 2, 3)).astype(np.float32), f"e{i}") for i in range(4)]
    paths = [tmp_path / f"e{i}.mtm" for i in range(4)]
    for emb, path in zip(sets, paths):
        write_embeddings(emb, path)
    out = tmp_path / "scores.csv"
    argv = ["similarity", "--target", str(paths[0]), "--datasets", *map(str, paths[1:]),
            "--metric", "avg_avg_l2", "--out", str(out)]
    assert run_cli(argv, capsys)[0] == 0
    table = similarity_table(sets[0], sets[1:], SimilarityMetric.AVG_AVG_L2)
    with open(out, newline="") as fh:
        rows = [(r["mixture_bits"], r["score"]) for r in csv.DictReader(fh)]
    assert rows == [(bits, repr(table[bits])) for bits in sorted(table)]
    assert len(set(score for _, score in rows)) == 7
    assert json.loads((tmp_path / "scores.json").read_text())["scores"] == dict(table)


def test_similarity_cosine_tie_prefers_fewer_datasets(tmp_path, capsys):
    target = tmp_path / "target.mtm"
    d1 = tmp_path / "d1.mtm"
    d2 = tmp_path / "d2.mtm"
    write_embeddings(EmbeddingSet(np.array([[1.0, 0.0]], dtype=np.float32), "t"), target)
    write_embeddings(EmbeddingSet(np.array([[2.0, 0.0]], dtype=np.float32), "a"), d1)
    write_embeddings(EmbeddingSet(np.array([[0.0, 1.0]], dtype=np.float32), "b"), d2)
    out = tmp_path / "scores.csv"
    code, stdout, _ = run_cli(
        [
            "similarity",
            "--target",
            str(target),
            "--datasets",
            str(d1),
            str(d2),
            "--metric",
            "avg_max_cos",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = assert_single_json_line(stdout)
    assert payload["best_alpha"] == "10"
    assert payload["score"] == pytest.approx(1.0, abs=1e-9)


def test_similarity_unknown_metric_exits_1(tmp_path, capsys):
    target = tmp_path / "target.mtm"
    write_embeddings(EmbeddingSet(np.ones((1, 2), dtype=np.float32), "t"), target)
    code, _, _ = run_cli(
        [
            "similarity",
            "--target",
            str(target),
            "--datasets",
            str(target),
            "--metric",
            "bogus",
            "--out",
            str(tmp_path / "s.csv"),
        ],
        capsys,
    )
    assert code == 1


def test_similarity_missing_target_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "similarity",
            "--target",
            str(tmp_path / "nope.mtm"),
            "--datasets",
            str(tmp_path / "nope.mtm"),
            "--metric",
            "avg_max_cos",
            "--out",
            str(tmp_path / "s.csv"),
        ],
        capsys,
    )
    assert code == 2


def similarity_argv(tmp_path, metric):
    rng = np.random.default_rng(8)
    paths = [tmp_path / f"e{i}.mtm" for i in range(3)]
    for i, path in enumerate(paths):
        write_embeddings(EmbeddingSet(rng.standard_normal((i + 2, 3)).astype(np.float32), f"e{i}"), path)
    return ["similarity", "--target", str(paths[0]), "--datasets", *map(str, paths[1:]),
            "--metric", metric, "--out", str(tmp_path / f"{metric}.csv")]


def test_every_command_runs_with_scipy_blocked(tmp_path, capsys, monkeypatch):
    """numpy is the only runtime dependency: with scipy unimportable, every
    similarity metric and the bench still run, and the bench writes its
    golden bytes."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.spatial.distance", None)
    for metric in SimilarityMetric:
        assert run_cli(similarity_argv(tmp_path, metric.value), capsys)[0] == 0, metric
    golden_args = ("--seed", "3", "--num-datasets", "2")
    outdir = tmp_path / "run"
    assert run_cli(["bench", "--out", str(outdir), "--jobs", "1", *golden_args], capsys)[0] == 0
    assert bench_digests(outdir) == BENCH_GOLDEN[golden_args]
    bank = make_bank_dir(tmp_path)
    target = tmp_path / "target.mtm"
    write_target_dataset(target)
    argv = ["search", "--bank", str(bank), "--target", str(target), "--out", str(tmp_path / "s.csv")]
    assert run_cli(argv, capsys)[0] == 0
    template = external_stub(tmp_path, "print('{\"accuracy\": 0.5, \"loss\": 1.0}')\n")
    (tmp_path / "ext").mkdir()
    assert run_cli(search_external_argv(tmp_path / "ext", template), capsys)[0] == 0
    models = [str(p) for p in sorted(bank.glob("*.mtm"))]
    assert run_cli(["merge", "--models", *models, "--out", str(tmp_path / "m.mtm")], capsys)[0] == 0
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [("T", 1, 2, 2), ("T", 2, 3, 2), ("T", 3, 5, 2)])
    assert run_cli(["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "c.csv")], capsys)[0] == 0


# ============================================================================
# correlate
# ============================================================================


def write_pairs_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "x", "y", "n_selected"])
        writer.writerows(rows)


def test_correlate_pinned_fixture(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(
        pairs,
        [("T", 1, 2, 2), ("T", 2, 1, 2), ("T", 3, 4, 3), ("T", 4, 3, 2)],
    )
    out = tmp_path / "corr.csv"
    code, stdout, _ = run_cli(["correlate", "--pairs", str(pairs), "--out", str(out)], capsys)
    assert code == 0
    payload = assert_single_json_line(stdout)
    assert payload["average_r"] == pytest.approx(0.6, abs=1e-12)
    assert payload["tasks"] == 1
    assert payload["excluded"] == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["task"] == "T"
    assert int(rows[0]["n_pairs"]) == 4
    assert float(rows[0]["r"]) == pytest.approx(0.6, abs=1e-12)


def test_correlate_singleton_handling(tmp_path, capsys):
    base = [("T", 1, 2, 2), ("T", 2, 1, 2), ("T", 3, 4, 3), ("T", 4, 3, 2)]
    singles = [("T", 0, 99, 1), ("T", 9, -50, 1)]
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, base + singles)

    code, stdout, _ = run_cli(
        ["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "a.csv")], capsys
    )
    assert code == 0
    payload = assert_single_json_line(stdout)
    assert payload["average_r"] == pytest.approx(0.6, abs=1e-12)
    assert payload["excluded"] == 2

    code, stdout, _ = run_cli(
        [
            "correlate",
            "--pairs",
            str(pairs),
            "--include-singletons",
            "--out",
            str(tmp_path / "b.csv"),
        ],
        capsys,
    )
    assert code == 0
    payload = assert_single_json_line(stdout)
    assert payload["excluded"] == 0
    assert payload["average_r"] != pytest.approx(0.6, abs=1e-6)


def test_correlate_reports_r_where_sums_of_squares_overflow(tmp_path):
    """Perfectly anti-correlated values near 1e200, whose squares overflow float64."""
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [("T", 1e200, -1e200, 2), ("T", -1e200, 1e200, 2), ("T", 0.0, 0.0, 2)])
    out = tmp_path / "corr.csv"
    proc = run_cli_process(["correlate", "--pairs", str(pairs), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert assert_single_json_line(proc.stdout)["average_r"] == -1.0
    with open(out, newline="") as fh:
        assert [row["r"] for row in csv.DictReader(fh)] == ["-1.0"]


def test_correlate_bad_columns_exits_1(tmp_path, capsys):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("task,x,y\nT,1,2\n")
    code, _, err = run_cli(
        ["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "c.csv")], capsys
    )
    assert code == 1
    assert "n_selected" in err


def test_correlate_non_numeric_cell_exits_1(tmp_path):
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [("T", 1, 2, 2), ("T", "abc", 1, 2), ("T", 3, 4, 3)])
    proc = run_cli_process(["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "c.csv")])
    assert_clean_validation_failure(proc)
    assert "line 3" in proc.stderr
    assert not (tmp_path / "c.csv").exists()


def test_correlate_non_utf8_pairs_exits_1(tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_bytes(b"task,x,y,n_selected\nT,1,2,2\nT,\xff,1,2\n")
    proc = run_cli_process(["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "c.csv")])
    assert_clean_validation_failure(proc)
    assert proc.stderr == f"error: {pairs} is not UTF-8 text: invalid start byte\n"
    assert not (tmp_path / "c.csv").exists()


def test_correlate_oversized_field_exits_1(tmp_path):
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [("T", 1, 2, 2), ("T" * (csv.field_size_limit() + 1), 3, 4, 3)])
    proc = run_cli_process(["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "c.csv")])
    assert_clean_validation_failure(proc)
    assert proc.stderr.startswith(f"error: {pairs} line 3: field larger than field limit")
    assert not (tmp_path / "c.csv").exists()


def test_correlate_with_no_usable_task_exits_1(tmp_path):
    """Every task has fewer than 3 pairs once singletons go: one error line, and no report or manifest."""
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [("A", 1, 2, 2), ("A", 2, 1, 3), ("A", 3, 3, 1), ("B", 1, 2, 1), ("B", 2, 3, 2)])
    proc = run_cli_process(["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "c.csv")])
    assert_clean_validation_failure(proc)
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == "error: no task has enough usable pairs for a correlation"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.csv"]


def test_correlate_missing_file_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(
        ["correlate", "--pairs", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "c.csv")],
        capsys,
    )
    assert code == 2


def test_correlate_log_level_controls_warnings(tmp_path, capsys, monkeypatch):
    """A too-short task logs a skip warning under the default level and stays
    silent under MERGEMIX_LOG=error."""
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(
        pairs,
        [("ok", 1, 2, 2), ("ok", 2, 1, 2), ("ok", 3, 4, 3), ("ok", 4, 3, 2), ("short", 1, 1, 2)],
    )
    monkeypatch.delenv("MERGEMIX_LOG", raising=False)
    code, _, err = run_cli(
        ["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "a.csv")], capsys
    )
    assert code == 0
    assert "skipped" in err

    monkeypatch.setenv("MERGEMIX_LOG", "error")
    code, _, err = run_cli(
        ["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "b.csv")], capsys
    )
    assert code == 0
    assert err == ""


def test_unknown_log_level_warns_once(tmp_path, capsys, monkeypatch):
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [("ok", 1, 2, 2), ("ok", 2, 1, 2), ("ok", 3, 4, 3), ("ok", 4, 3, 2)])
    monkeypatch.setenv("MERGEMIX_LOG", "verbose")
    code, _, err = run_cli(
        ["correlate", "--pairs", str(pairs), "--out", str(tmp_path / "a.csv")], capsys
    )
    assert code == 0
    assert err.count("unknown MERGEMIX_LOG value 'verbose'") == 1
    assert len(err.splitlines()) == 1


# ============================================================================
# bench
# ============================================================================

TINY_BENCH_ARGS = [
    "--num-datasets",
    "3",
    "--num-clusters",
    "4",
    "--clusters-per-dataset",
    "2",
    "--samples-per-dataset",
    "120",
    "--num-targets",
    "2",
    "--clusters-per-target",
    "2",
    "--epochs",
    "2",
    "--seed",
    "11",
]

BENCH_FILES = ["report.json", "selections.csv", "mixtures.csv", "correlations.csv", "plot_data.csv"]


def test_bench_tiny_run(tmp_path, capsys):
    outdir = tmp_path / "run"
    code, stdout, _ = run_cli(["bench", "--out", str(outdir), *TINY_BENCH_ARGS], capsys)
    assert code == 0
    for name in BENCH_FILES + ["manifest.json"]:
        assert (outdir / name).exists(), name
    payload = assert_single_json_line(stdout)
    assert payload["targets"] == 2
    assert -1.0 <= payload["average_r"] <= 1.0

    report = json.loads((outdir / "report.json").read_text())
    assert report["dataset_names"] == ["D1", "D2", "D3"]
    with open(outdir / "mixtures.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * (2**3 - 1)
    with open(outdir / "plot_data.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == "task,mixture_bits,n_selected,x,y,is_singleton"


def test_bench_reruns_are_byte_identical(tmp_path, capsys):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    assert run_cli(["bench", "--out", str(d1), *TINY_BENCH_ARGS], capsys)[0] == 0
    assert run_cli(["bench", "--out", str(d2), *TINY_BENCH_ARGS], capsys)[0] == 0
    for name in BENCH_FILES:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


# sha256 of the five bench files at two default-size settings, taken before the
# bench moved onto mixture codes and score columns (numpy 2.4, x86-64). Any byte
# that a refactor of the bench moves in its reports fails here.
BENCH_GOLDEN = {
    ("--seed", "3", "--num-datasets", "2"): {
        "report.json": "082a69b143f2e001a2e6843dcd391f97167741b09cdd395f666497ed7aa982e8",
        "selections.csv": "a71cadc6883ca5fc0494eb0c19f6a5ab4d2bfec7e553d4796cf0c4cdfa475150",
        "mixtures.csv": "ce2a72a33401ced811a421175abdc4ea4d89575d39ea95915b95b3fce262c4ec",
        "correlations.csv": "ea41d75421641e46c0fc33f549ac7229ff531f659fd1e6616c7f2645a0d9c31f",
        "plot_data.csv": "a3d52474782dae493203fcc877f616414b26a0dbd2d81b36cdcd229d2eb7b958",
    },
    ("--seed", "7", "--num-datasets", "4", "--embedding-source", "raw"): {
        "report.json": "7cc160905956a2eeb466e2b3f6c333d0c31a1da9307c92ba53937db30ee63ee9",
        "selections.csv": "b7af1677e1656fd814277f95ea0882998373f1efb0f3b2ed619953c8c5e1499e",
        "mixtures.csv": "95d692c363c953d7cafa81666dacce463849d7509a66eaec6b00804bcd1d46e6",
        "correlations.csv": "beea2fdb3c6124ddabd30b208dbea5eb121c8e6d752c1e7d0c0574a42618272c",
        "plot_data.csv": "09fd0e844b7801c099eac306e81971857bfa3ad2b86b08ed7ddad02622f640a2",
    },
    # the seed-42 anchor setting, taken before MixtureVector was retired
    ("--seed", "42", "--num-datasets", "5"): {
        "report.json": "4c401874ef79096d056099e2356e50201d73be0648937bc410015128c29ee9a7",
        "selections.csv": "4e4109e5e0199179cebc6ab2750ac7206022dc555fa3b231f9b053c35cf63170",
        "mixtures.csv": "4b9c09f95e9496f18261c9d18c71861be20ca56a35e6f2bcc9ca03d8d43399b4",
        "correlations.csv": "d0683ea8e080f7f9c14322693319b05b760ee2d5e09ff713093fc479afd36f7e",
        "plot_data.csv": "862fb4b78f014fa991d0a865f688d32c59c7e8ab858d474f2d3d7978ac82d295",
    },
}


def bench_digests(outdir):
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in BENCH_FILES}


@pytest.mark.parametrize("args", list(BENCH_GOLDEN), ids=["seed3-n2", "seed7-n4-raw", "seed42-n5"])
def test_bench_files_match_golden_digests(tmp_path, capsys, args):
    outdir = tmp_path / "run"
    assert run_cli(["bench", "--out", str(outdir), "--jobs", "1", *args], capsys)[0] == 0
    assert bench_digests(outdir) == BENCH_GOLDEN[args]


def _reject_constant(name):
    raise AssertionError(f"stdout holds the non-JSON constant {name}")


@pytest.mark.parametrize("degrade", [["--num-datasets", "2"], ["--epochs", "0"]], ids=["n2", "epochs0"])
def test_bench_stdout_is_strict_json_when_correlations_degrade(tmp_path, capsys, degrade):
    """Too few pairs (N=2) or constant series (no fine-tuning) leave no r; stdout says null, not NaN."""
    outdir = tmp_path / "run"
    code, stdout, _ = run_cli(["bench", "--out", str(outdir), *TINY_BENCH_ARGS, *degrade], capsys)
    assert code == 0
    assert stdout.count("\n") == 1
    payload = json.loads(stdout, parse_constant=_reject_constant)
    assert payload["average_r"] is None
    assert payload["average_r_logit"] is None
    assert payload["best_similarity_r"] is None
    report = json.loads((outdir / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["correlation"]["average_r"] is None


def test_bench_invalid_config_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "bench",
            "--out",
            str(tmp_path / "run"),
            "--num-clusters",
            "4",
            "--clusters-per-dataset",
            "9",
        ],
        capsys,
    )
    assert code == 1
    assert "clusters_per_dataset" in err


def test_bench_rejects_more_targets_than_streams(tmp_path):
    """Target t picks from Philox stream 200 + t and draws from 300 + t, so a 101st target would share streams."""
    proc = run_cli_process(["bench", "--out", str(tmp_path / "run"), "--num-targets", "101"])
    assert_clean_validation_failure(proc)
    assert proc.stderr.splitlines() == ["error: num_targets must be <= 100"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--learning-rate", "nan", "learning_rate must be finite and positive, got nan"),
        ("--cluster-noise", "nan", "cluster_noise must be finite and >= 0, got nan"),
    ],
    ids=["learning_rate", "cluster_noise"],
)
def test_bench_rejects_non_finite_rates_before_training(tmp_path, capsys, flag, value, message):
    code, _, err = run_cli(["bench", "--out", str(tmp_path / "run"), flag, value], capsys)
    assert code == 1
    assert err.splitlines() == ["error: " + message]
    assert not (tmp_path / "run").exists()


def test_bench_stops_a_diverging_learning_rate_at_its_first_bad_step(tmp_path):
    """At learning rate 1e300 the pretrain's first step overflows: the bench stops there with one
    line that names the pretrain stage, the epoch and the rate, and numpy prints no RuntimeWarning."""
    argv = ["bench", "--learning-rate", "1e300", "--num-datasets", "3", "--samples-per-dataset", "100"]
    proc = run_cli_process([*argv, "--jobs", "1", "--out", str(tmp_path / "run")])
    assert_clean_validation_failure(proc)
    assert "RuntimeWarning" not in proc.stderr
    [line] = proc.stderr.splitlines()
    pattern = r"error: pretrain stage: training diverged in epoch 1 of \d+ at learning_rate 1e\+300: overflow .*"
    assert re.fullmatch(pattern, line)
    assert not (tmp_path / "run").exists()


def test_a_diverging_fine_tune_names_its_stage_and_mixtures(tmp_path, capsys, monkeypatch):
    """A fine-tune chunk that diverges names the stage and its mixtures, in the chunk's Gray order."""
    real = toy_bench.train_many

    def diverge_on_pairs(init, parts, selections, cfg, run_keys):
        if len(selections[0]) == 2:
            raise ValidationError("training diverged in epoch 2 of 5 at learning_rate 0.05: overflow")
        return real(init, parts, selections, cfg, run_keys)

    monkeypatch.setattr(toy_bench, "train_many", diverge_on_pairs)
    argv = ["bench", "--num-datasets", "3", "--samples-per-dataset", "60", "--jobs", "1"]
    code, out, err = run_cli([*argv, "--out", str(tmp_path / "run")], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: fine-tune stage, mixtures 011 110 101: "
        "training diverged in epoch 2 of 5 at learning_rate 0.05: overflow"
    ]
    assert not (tmp_path / "run").exists()


def test_bench_bad_embedding_source_exits_1(tmp_path):
    proc = run_cli_process(["bench", "--out", str(tmp_path / "run"), "--embedding-source", "latent"])
    assert_clean_validation_failure(proc)
    assert proc.stderr.splitlines() == ["error: embedding_source must be one of ('hidden', 'raw')"]
    assert not (tmp_path / "run").exists()


def test_bench_flags_mirror_config_fields():
    """One flag per BenchConfig field and per TrainConfig field but the seed."""
    args = vars(build_parser().parse_args(["bench", "--out", "run"]))
    fields = [f for f in dataclasses.fields(TrainConfig) if f.name != "seed"]
    for f in [*dataclasses.fields(BenchConfig), *fields]:
        assert f.name in args, f.name
        assert args[f.name] == f.default and type(args[f.name]) is type(f.default), f.name
    assert args["train_seed"] is None


# ============================================================================
# usage errors
# ============================================================================


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["search", "--bank", "b", "--target", "t", "--out", "r.csv", "--jobs", "x"],
            "error: mergemix search: argument --jobs: invalid int value: 'x'",
        ),
        (
            ["search", "--bank", "b", "--target", "t"],
            "error: mergemix search: the following arguments are required: --out",
        ),
        ([], "error: mergemix: the following arguments are required: command"),
        (
            ["bench", "--out", "run", "--epochs", "ten"],
            "error: mergemix bench: argument --epochs: invalid int value: 'ten'",
        ),
        (
            ["search", "--bank", "b", "--target", "t", "--out", "r.csv", "--jobs", "0"],
            "error: jobs must be positive",
        ),
        (
            ["search", "--bank", "no_such_bank", "--target", "t", "--out", "r.csv", "--jobs", "100000"],
            "error: jobs must be at most 256, got 100000",
        ),
    ],
    ids=["bad_value", "missing_flag", "no_command", "bad_bench_value", "no_jobs", "too_many_jobs"],
)
def test_usage_error_is_one_line_and_exit_1(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [message]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mergemix")


# ============================================================================
# installed entry point
# ============================================================================


def test_console_script_help():
    proc = subprocess.run(
        ["mergemix", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: mergemix")


# ============================================================================
# same bytes: search and similarity reports
# ============================================================================

PARAM_EVAL = Path(__file__).resolve().parents[1] / "perfbench" / "param_eval.py"


def golden_search_argv(tmp_path, case):
    """A seeded 4-model bank. On its 15-row target, six mixtures tie for the best
    accuracy, four of them of two datasets, so the tie-break picks by size, then by code."""
    bank = make_bank_dir(tmp_path, n=4)
    out = ["--out", str(tmp_path / "report.csv")]
    if case == "external":
        template = f"{sys.executable} {PARAM_EVAL} {{checkpoint}} {{data}}"
        return ["search", "--bank", str(bank), "--target", "w1,b1,w2,b2", "--evaluator", template, *out]
    target = tmp_path / "target.mtm"
    write_target_dataset(target, seed=23, n=15)
    return ["search", "--bank", str(bank), "--target", str(target), "--objective", case, *out]


def golden_similarity_argv(tmp_path, metric):
    rng = np.random.default_rng(21)
    paths = [tmp_path / f"e{i}.mtm" for i in range(5)]
    for i, path in enumerate(paths):
        write_embeddings(EmbeddingSet(rng.standard_normal((i + 3, 4)).astype(np.float32), f"e{i}"), path)
    return ["similarity", "--target", str(paths[0]), "--datasets", *map(str, paths[1:]),
            "--metric", metric, "--out", str(tmp_path / "report.csv")]


def golden_correlate_argv(tmp_path, case):
    """Seeded pairs of three tasks, their rows shuffled together. "alpha" and
    "beta" hold singletons; "short" keeps two pairs once its singleton is
    excluded, so only the "include" case correlates it."""
    rng = np.random.default_rng(29)
    rows = []
    tasks = {"beta": [1, 2, 3, 2, 4, 1, 3, 2], "short": [2, 1, 3], "alpha": [3, 1, 2, 2, 1, 4, 3]}
    for name, sizes in tasks.items():
        x = rng.random(len(sizes))
        y = x + 0.3 * rng.standard_normal(len(sizes))
        rows += zip([name] * len(sizes), x.tolist(), y.tolist(), sizes)
    pairs = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, [rows[i] for i in rng.permutation(len(rows))])
    include = ["--include-singletons"] if case == "include" else []
    return ["correlate", "--pairs", str(pairs), *include, "--out", str(tmp_path / "report.csv")]


REPORT_ARGV = {
    "search": golden_search_argv,
    "similarity": golden_similarity_argv,
    "correlate": golden_correlate_argv,
}

# sha256 of the CSV and JSON that search, similarity and correlate write on
# the inputs above (numpy 2.4, x86-64); search and similarity taken before
# MixtureVector was retired, correlate before CorrelationInput held columns
REPORT_GOLDEN = {
    ("search", "accuracy"): (
        "686e9061e356cd7383796bc2b582b5875d901a9ce3bfc3bb820847dc143a51cf",
        "1e82d8e1fcf26c9b91c21aefedd9666a23a10da9c65a06f6878db4be7bc20607",
    ),
    ("search", "loss"): (
        "686e9061e356cd7383796bc2b582b5875d901a9ce3bfc3bb820847dc143a51cf",
        "fc13d028726b38981ba22a94aa030aa60443a54da603fdb8751a31fd972c760a",
    ),
    ("search", "external"): (
        "cc405517667e219148a82b6ef57b41c34085b4c7f38906a610d469364ec20f50",
        "45f919874c9dce96103d2e8ee0c796025093f1fe0c8ef37856d2719a4b0d8a21",
    ),
    ("similarity", "avg_max_cos"): (
        "9564f3bbba271ab287e3e7bcbfa5f1f37fe4ee7e4eea08adefa58b98323d8fee",
        "65e89c719a2659895a516fd6e8dfc737d732abba00f9de4b7eda4cfc74d04fa4",
    ),
    ("similarity", "avg_min_l2"): (
        "bd0fb944a5a1d5ec870404af2a435f9f32419bdb03c585a1e76afb7065d1cf39",
        "8098acced9e3472a76a32be4bb14c9627cc8cf1e98d27e2138040ed788f7718b",
    ),
    ("similarity", "avg_avg_cos"): (
        "2ee9efb32abe42117e286420623291c18acbf02177982000ddcb2e8416aad5c3",
        "2cc3ba998baec1ba468cf56c696846fb8df2f633c2d039430ab3cd09e60e1f6f",
    ),
    ("similarity", "avg_avg_l2"): (
        "330b08576497a16c763d819ce093c28f1901c70e6777377c200666e9dbdb67ae",
        "a456441a92f7694937b82a8bd7a1fcd5a5b37cacd43408ee5283bee39780e367",
    ),
    ("similarity", "max_max_cos"): (
        "ae8e706795f21ce0905864abcabf07629e63c4a4ffeb9b9728ca468c0f07d6ae",
        "96ac6bdd31930e139fc1577e51de5bc1a9a3f6f4f72a616132bc5a2771cb5e83",
    ),
    ("similarity", "min_min_l2"): (
        "60f255401f6dc4a2465c796c590988d9098385996d81920cd6c6cc955c0757d6",
        "b5bed3a7a473e572339d9f491386b0e719712e132fc06ba5b3fc4aca024e8af4",
    ),
    ("correlate", "exclude"): (
        "14a8dfe2bdcb268dc4aec2c3d62b45801a5a323cb2c317f267c1be42130028e1",
        "7e95e750b58ea9460e914c43a1b68946ca2055acfcb7023e41d3514b4ff87e47",
    ),
    ("correlate", "include"): (
        "f4001da822e8d286d34a0701a3d9bfaf31a17047dc118e0d1a3b6534fc338ec9",
        "94c0d8886d67a92f4e920d0644b083ea6aa291ce70378f7e9e5683ab9ceef93f",
    ),
}


@pytest.mark.parametrize("command, case", list(REPORT_GOLDEN), ids=["-".join(k) for k in REPORT_GOLDEN])
def test_reports_match_golden_digests(tmp_path, capsys, command, case):
    argv = REPORT_ARGV[command](tmp_path, case)
    assert run_cli(argv, capsys)[0] == 0
    digests = (hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("report.csv", "report.json"))
    assert tuple(digests) == REPORT_GOLDEN[command, case]


def golden_merge_argv(tmp_path, case):
    """Merges of the seeded 4-model bank of golden_search_argv. Equal positive
    weights, with one zero, take merge_uniform's path over their support. The
    "inexact" case is a uniform merge of three models in which one parameter
    of b1 and one of w2 read 1e30, 1.0 and -1e30: a float64 sum in dataset
    order gives 0, the exact-sum fix-up 1."""
    bank = make_bank_dir(tmp_path, n=3 if case == "inexact" else 4)
    models = [str(p) for p in sorted(bank.glob("*.mtm"))]
    if case == "inexact":
        for path, v in zip(models, (1e30, 1.0, -1e30)):
            ckpt = read_checkpoint(path)
            ckpt.tensors["b1"][2] = ckpt.tensors["w2"][1, 3] = v
            write_checkpoint(ckpt, path)
    weights = {"unequal": ["--weights", "0.1,0.2,0.3,0.4"], "equal": ["--weights", "2,0,2,2"]}
    return ["merge", "--models", *models, *weights.get(case, []), "--out", str(tmp_path / "merged.mtm")]


# sha256 of the checkpoint container that merge writes on the inputs above,
# taken before the bench kept its fine-tunes as stacked arrays, and "inexact"
# before every merge shared one flat parameter layout (numpy 2.4, x86-64)
MERGE_GOLDEN = {
    "uniform": "fae1e7d8bc197bd9d310b22e961809c4da41ae31fd6e3283e5bb904e8f3a4a3f",
    "unequal": "e31924642bfe5928c064237b4bc9d78fdf8b1bcef1eac78d7c523cad5dbaeecd",
    "equal": "d79bbc8a7090972b0589762329c9fddb280bcf413fba791a4b4d8e71df9516ee",
    "inexact": "274659d54d264393bb9b2ef53945e15b3370c9abfbbc669bf24604046db30874",
}


@pytest.mark.parametrize("case", list(MERGE_GOLDEN))
def test_merge_matches_golden_digest(tmp_path, capsys, case):
    assert run_cli(golden_merge_argv(tmp_path, case), capsys)[0] == 0
    assert hashlib.sha256((tmp_path / "merged.mtm").read_bytes()).hexdigest() == MERGE_GOLDEN[case]
