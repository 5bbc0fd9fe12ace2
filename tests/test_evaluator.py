"""Evaluator tests: builtin MLP scoring, logit transforms, the external
evaluator protocol, and the dataset container."""

import json
import math
import os
import re
import shlex
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergemix import (
    Checkpoint,
    EmbeddingSet,
    EvalDataset,
    ExternalEvaluatorError,
    FormatError,
    Score,
    ValidationError,
    evaluate_builtin,
    evaluate_external,
    logit,
    logit_improvement,
    read_eval_dataset,
    write_checkpoint,
    write_eval_dataset,
)
from mergemix import evaluator
from mergemix.evaluator import STDERR_TAIL_CHARS, evaluator_argv, toy_mlp_scores
from mergemix.tensor_store import tensor

LN3 = 1.0986122886681098


def identity_mlp(dim):
    """MLP computing logits == inputs: identity hidden layer, identity head."""
    eye = np.eye(dim, dtype=np.float32)
    return Checkpoint(
        tensors={
            "w1": eye.copy(),
            "b1": np.zeros(dim, dtype=np.float32),
            "w2": eye.copy(),
            "b2": np.zeros(dim, dtype=np.float32),
        }
    )


def dataset(features, labels, num_classes):
    return EvalDataset(
        features=np.asarray(features, dtype=np.float32),
        labels=list(labels),
        num_classes=num_classes,
        name="toy",
    )


# ============================================================================
# evaluate_builtin
# ============================================================================


def test_two_class_closed_form_loss():
    """Logits (1, 0) with label 0: loss = ln(1 + e^-1), accuracy 1."""
    ckpt = identity_mlp(2)
    score = evaluate_builtin(ckpt, dataset([[1.0, 0.0]], [0], 2))
    assert score.accuracy == 1.0
    assert score.mean_loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)
    assert score.mean_loss == pytest.approx(0.31326168751822286, abs=1e-12)
    assert score.num_samples == 1


def test_all_zero_weights_uniform_softmax():
    c = 4
    ckpt = Checkpoint(
        tensors={
            "w1": np.zeros((3, 2), dtype=np.float32),
            "b1": np.zeros(3, dtype=np.float32),
            "w2": np.zeros((c, 3), dtype=np.float32),
            "b2": np.zeros(c, dtype=np.float32),
        }
    )
    data = dataset([[1, 2], [3, 4], [0, 1], [5, 5]], [0, 1, 0, 3], c)
    score = evaluate_builtin(ckpt, data)
    # equal logits: argmax tie resolves to class 0
    assert score.accuracy == pytest.approx(2 / 4)
    assert score.mean_loss == pytest.approx(math.log(c), abs=1e-12)


def test_duplicate_samples_double_count():
    ckpt = identity_mlp(3)
    base = dataset([[1, 0, 0], [0, 2, 0]], [0, 1], 3)
    doubled = dataset([[1, 0, 0], [0, 2, 0]] * 2, [0, 1] * 2, 3)
    s1 = evaluate_builtin(ckpt, base)
    s2 = evaluate_builtin(ckpt, doubled)
    assert s2.num_samples == 2 * s1.num_samples
    assert s2.accuracy == s1.accuracy
    assert s2.mean_loss == pytest.approx(s1.mean_loss, abs=1e-12)


def test_sample_order_invariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 3)).astype(np.float32)
    y = rng.integers(0, 3, size=40)
    ckpt = identity_mlp(3)
    s1 = evaluate_builtin(ckpt, dataset(x, y, 3))
    perm = rng.permutation(40)
    s2 = evaluate_builtin(ckpt, dataset(x[perm], y[perm], 3))
    assert s1.accuracy == s2.accuracy
    assert s1.mean_loss == pytest.approx(s2.mean_loss, abs=1e-9)


def test_loss_finite_for_extreme_weights():
    ckpt = Checkpoint(
        tensors={
            "w1": np.full((2, 2), 1e4, dtype=np.float32),
            "b1": np.zeros(2, dtype=np.float32),
            "w2": np.array([[1e4, -1e4], [-1e4, 1e4]], dtype=np.float32),
            "b2": np.zeros(2, dtype=np.float32),
        }
    )
    score = evaluate_builtin(ckpt, dataset([[1.0, 1.0]], [1], 2))
    assert math.isfinite(score.mean_loss)


def test_schema_mismatch_rejected():
    ckpt = identity_mlp(2)
    with pytest.raises(ValidationError):
        evaluate_builtin(ckpt, dataset([[1.0, 0.0, 0.0]], [0], 2))
    bad = Checkpoint(tensors={"w": tensor([1.0])})
    with pytest.raises(ValidationError, match="exactly tensors"):
        evaluate_builtin(bad, dataset([[1.0, 0.0]], [0], 2))


# ============================================================================
# Score
# ============================================================================


def test_score_validation():
    Score(accuracy=0.5, mean_loss=0.1, num_samples=10)
    with pytest.raises(ValidationError, match="accuracy out of range"):
        Score(accuracy=1.5, mean_loss=0.1, num_samples=1)
    with pytest.raises(ValidationError, match="mean_loss"):
        Score(accuracy=0.5, mean_loss=-0.1, num_samples=1)
    with pytest.raises(ValidationError, match="mean_loss"):
        Score(accuracy=0.5, mean_loss=float("nan"), num_samples=1)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 60),
    st.tuples(st.integers(1, 12), st.integers(1, 40), st.integers(1, 9)),
    st.integers(0, 2**31 - 1),
)
@example(7, 1, (9, 29, 8), 53)  # a contiguous copy of the transposed w1 changes this loss
def test_stacked_scores_are_the_one_row_scores(block, rows, dims, seed):
    """Each row of a stacked pass scores like evaluate_builtin on its own
    checkpoint, and like the plain 2-D forward pass, bit for bit."""
    rng = np.random.default_rng(seed)
    d, h, c = dims
    shapes = {"w1": (h, d), "b1": (h,), "w2": (c, h), "b2": (c,)}
    ckpts = [
        Checkpoint(tensors={k: (2 * rng.standard_normal(v)).astype(np.float32) for k, v in shapes.items()})
        for _ in range(block)
    ]
    data = dataset(rng.standard_normal((rows, d)), rng.integers(0, c, size=rows), c)
    correct, loss = toy_mlp_scores(*(np.stack([c.tensors[k] for c in ckpts]) for k in shapes), data)
    for ckpt, c, mean_loss in zip(ckpts, correct.tolist(), loss.tolist()):
        single = evaluate_builtin(ckpt, data)
        assert single == Score(c / rows, mean_loss, rows)
        x = data.features.astype(np.float64)
        w1, b1, w2, b2 = (ckpt.tensors[k].astype(np.float64) for k in shapes)
        logits = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
        shifted = logits - logits.max(axis=1, keepdims=True)
        per_sample = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(rows), data.labels]
        assert int(np.sum(np.argmax(logits, axis=1) == data.labels)) == c
        assert float(per_sample.mean()).hex() == mean_loss.hex()


# ============================================================================
# logit transforms
# ============================================================================


def test_logit_pinned_values():
    assert logit(0.5) == 0.0
    assert logit(0.75) == pytest.approx(LN3, abs=1e-12)
    assert logit(1.0) == pytest.approx(13.815509557935018, abs=1e-9)
    assert logit(0.0) == pytest.approx(-13.815509557935018, abs=1e-9)


def test_logit_rejects_out_of_domain():
    with pytest.raises(ValidationError):
        logit(-0.01)
    with pytest.raises(ValidationError):
        logit(1.01)


def test_logit_antisymmetry_dyadic():
    """logit(1-p) = -logit(p) within 1e-12 on exactly representable p."""
    for p in [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.75, 0.875]:
        assert abs(logit(p) + logit(1.0 - p)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_logit_strictly_increasing(p):
    q = min(1.0 - 1e-6, p + 1e-4)
    if q > p:
        assert logit(q) > logit(p)


def test_logit_improvement_examples():
    assert logit_improvement(0.5, 0.5) == 0.0
    assert logit_improvement(0.75, 0.5) == pytest.approx(LN3, abs=1e-12)
    assert logit_improvement(0.5, 0.75) == pytest.approx(-LN3, abs=1e-12)


# ============================================================================
# External evaluator protocol
# ============================================================================


def stub_command(tmp_path, body):
    """Write a python stub to disk; return a {checkpoint} {data} template."""
    script = tmp_path / "stub.py"
    script.write_text(body + "\n")
    return f"{sys.executable} {script} {{checkpoint}} {{data}}"


def test_external_success(tmp_path):
    ckpt = identity_mlp(2)
    path = tmp_path / "m.mtm"
    write_checkpoint(ckpt, path)
    cmd = stub_command(
        tmp_path,
        "print('noise')\nprint('{\"accuracy\": 0.5, \"loss\": 0.7}')",
    )
    score = evaluate_external(path, "dataref", cmd)
    assert score == Score(accuracy=0.5, mean_loss=0.7, num_samples=0)


def test_external_receives_substituted_args(tmp_path):
    ckpt = identity_mlp(2)
    path = tmp_path / "m.mtm"
    write_checkpoint(ckpt, path)
    body = (
        "import sys, json\n"
        "acc = 0.25 if sys.argv[1].endswith('.mtm') and sys.argv[2] == 'ref-7' else 0.75\n"
        "print(json.dumps({'accuracy': acc, 'loss': 1.0}))"
    )
    score = evaluate_external(path, "ref-7", stub_command(tmp_path, body))
    assert score.accuracy == 0.25


def test_external_nonzero_exit(tmp_path):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    cmd = stub_command(tmp_path, "import sys\nsys.exit(3)")
    with pytest.raises(ExternalEvaluatorError, match=r"evaluator failed \(exit 3\)"):
        evaluate_external(path, "d", cmd)


def test_external_failure_quotes_stderr_tail(tmp_path):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    body = (
        "import sys\n"
        "for i in range(20):\n"
        "    print(f'log line {i}', file=sys.stderr)\n"
        "print('ValueError: bad checkpoint', file=sys.stderr)\n"
        "sys.exit(3)"
    )
    cmd = f"{sys.executable} -c {shlex.quote(body)} {{checkpoint}} {{data}}"
    with pytest.raises(ExternalEvaluatorError) as info:
        evaluate_external(path, "d", cmd)
    msg = str(info.value)
    assert msg.startswith("evaluator failed (exit 3); stderr: ")
    assert msg.endswith("log line 19 | ValueError: bad checkpoint")
    assert "log line 15" not in msg and "\n" not in msg


def test_external_stderr_tail_is_capped(tmp_path):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    body = "import sys\nsys.stderr.write('x' * 5000 + 'END')\nsys.exit(4)"
    cmd = f"{sys.executable} -c {shlex.quote(body)} {{checkpoint}} {{data}}"
    with pytest.raises(ExternalEvaluatorError) as info:
        evaluate_external(path, "d", cmd)
    tail = str(info.value).split("; stderr: ", 1)[1]
    assert len(tail) == STDERR_TAIL_CHARS and tail.endswith("END")


def test_external_timeout_kills_the_evaluator(tmp_path):
    """A hung evaluator is killed at the timeout and reaped before the error."""
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    pid_file = tmp_path / "pid"
    body = f"import os, time\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\ntime.sleep(60)"
    cmd = f"{sys.executable} -c {shlex.quote(body)} {{checkpoint}} {{data}}"
    started = time.monotonic()
    with pytest.raises(ExternalEvaluatorError, match=r"^evaluator timed out after 0.5 s$"):
        evaluate_external(path, "d", cmd, timeout=0.5)
    assert time.monotonic() - started < 30
    pid = int(pid_file.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def process_state(pid):
    """The state letter of a process from /proc/<pid>/stat, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def assert_killed(pid):
    """pid is gone, or a zombie that init reaps, within a few seconds of a SIGKILL."""
    deadline = time.monotonic() + 5
    while process_state(pid) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.01)
    assert process_state(pid) in (None, "Z"), pid


def shell_with_a_child(pid_file, then, redirect=""):
    """A template whose sh starts a background sleep, writes its pid, then runs `then`."""
    script = f"sleep 60 {redirect} & echo $! > {shlex.quote(str(pid_file))}; {then}"
    return f"sh -c {shlex.quote(script)} {{checkpoint}} {{data}}"


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")


@needs_proc
@pytest.mark.parametrize(
    "redirect, then, timeout, message",
    [
        ("", "wait", 0.5, "^evaluator timed out after 0.5 s$"),
        (">/dev/null 2>&1", "exit 3", None, r"^evaluator failed \(exit 3\)$"),
    ],
    ids=["timeout", "failure"],
)
def test_external_kills_the_evaluators_process_group(tmp_path, redirect, then, timeout, message):
    """An evaluator that is a shell with a background child: at a timeout, or
    when the shell fails, the child dies with it instead of running on."""
    pid_file = tmp_path / "pid"
    template = shell_with_a_child(pid_file, then, redirect)
    with pytest.raises(ExternalEvaluatorError, match=message):
        evaluate_external(tmp_path / "m.mtm", "d", template, timeout=timeout)
    assert_killed(int(pid_file.read_text()))


@needs_proc
def test_an_interrupted_external_evaluator_dies_with_its_children(tmp_path):
    """Ctrl-C never reaches an evaluator in its own session, so the
    interrupted call kills its process group itself."""
    pid_file = tmp_path / "pid"
    template = shell_with_a_child(pid_file, "wait")
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    timer = threading.Timer(0.3, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT))
    started = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            timer.start()
            evaluate_external(tmp_path / "m.mtm", "d", template)
    finally:
        timer.cancel()
        timer.join()
        signal.signal(signal.SIGINT, previous)
    assert time.monotonic() - started < 30
    assert_killed(int(pid_file.read_text()))


def test_external_unparsable(tmp_path):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    cmd = stub_command(tmp_path, "print('not json at all')")
    with pytest.raises(ExternalEvaluatorError, match="^unparsable evaluator output: 'not json at all'$"):
        evaluate_external(path, "d", cmd)


def test_external_accuracy_out_of_range(tmp_path):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    cmd = stub_command(tmp_path, "print('{\"accuracy\": 1.5, \"loss\": 0.1}')")
    with pytest.raises(ExternalEvaluatorError, match="accuracy out of range"):
        evaluate_external(path, "d", cmd)


def test_external_negative_loss(tmp_path):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    cmd = stub_command(tmp_path, "print('{\"accuracy\": 0.5, \"loss\": -1.0}')")
    with pytest.raises(ExternalEvaluatorError, match="loss must be finite"):
        evaluate_external(path, "d", cmd)


@pytest.mark.parametrize(
    "body, message",
    [
        ("pass", "unparsable evaluator output: empty stdout"),
        ("print('[0.5, 0.7]')", "unparsable evaluator output: final line is not a JSON object"),
        ("print('{\"accuracy\": 0.5}')", "evaluator output missing 'accuracy' or 'loss'"),
        ("print('{\"loss\": 0.5}')", "evaluator output missing 'accuracy' or 'loss'"),
        ("print('{\"accuracy\": \"high\", \"loss\": 0.5}')", "evaluator output fields must be numbers"),
        ("print('{\"accuracy\": 0.5, \"loss\": null}')", "evaluator output fields must be numbers"),
        ("print('{\"accuracy\": \"0.5\", \"loss\": 0.1}')", "evaluator output fields must be numbers"),
        ("print('{\"accuracy\": 0.5, \"loss\": true}')", "evaluator output fields must be numbers"),
        ("print('{\"accuracy\": 0.5, \"loss\": ' + '9' * 401 + '}')", "evaluator output fields must be numbers"),
        ("print('{\"loss\": ' + '9' * 5000 + '}')",
         "unparsable evaluator output: 5010 characters, ending " + repr('{"loss": ' + "9" * 5000 + "}")[-500:]),
        ("print('[' * 100000)", "unparsable evaluator output: 100000 characters, ending " + "[" * 499 + "'"),
    ],
    ids=[
        "empty", "not_an_object", "no_loss", "no_accuracy", "text_accuracy", "null_loss",
        "numeric_text_accuracy", "bool_loss", "int_beyond_float_loss", "int_beyond_digit_limit", "nested_too_deep",
    ],
)
def test_external_rejects_malformed_output(tmp_path, body, message):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    with pytest.raises(ExternalEvaluatorError) as info:
        evaluate_external(path, "d", stub_command(tmp_path, body))
    assert str(info.value) == message


SCORE_FIELDS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**1100), 2**1100), st.floats(), st.text(max_size=5), st.just([0.5])
)
STDOUT_LINES = st.one_of(
    st.fixed_dictionaries({"accuracy": SCORE_FIELDS, "loss": SCORE_FIELDS}).map(json.dumps),
    st.dictionaries(st.sampled_from(["accuracy", "loss", "x"]), SCORE_FIELDS).map(json.dumps),
    st.text(max_size=40),
    st.integers(0, 3000).map(lambda k: "[" * k),
    st.text(min_size=450, max_size=1500),
)
EVALUATOR_STDOUT = st.one_of(
    st.lists(STDOUT_LINES, max_size=3).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=300),
)


def test_external_output_ends_in_a_score_or_one_capped_error_line(monkeypatch):
    """Untrusted evaluator output, exit code and stderr, with the process
    stubbed out: the result is a Score, or one ExternalEvaluatorError whose
    message is one line that quotes at most STDERR_TAIL_CHARS characters."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.just(0) | st.integers(-64, 255), EVALUATOR_STDOUT, st.binary(max_size=2000))
    def check(returncode, stdout, stderr):
        monkeypatch.setattr(evaluator, "_run_evaluator", lambda argv, timeout: (returncode, stdout, stderr))
        try:
            score = evaluate_external("m.mtm", "d", "eval {checkpoint} {data}")
        except ExternalEvaluatorError as exc:
            message = str(exc)
            assert message.splitlines() == [message]
            assert len(message) <= STDERR_TAIL_CHARS + 150, len(message)
        else:
            assert returncode == 0 and isinstance(score, Score)

    check()


@pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf])
def test_external_rejects_a_bad_timeout_before_it_starts(tmp_path, timeout):
    marker = tmp_path / "ran"
    cmd = stub_command(tmp_path, f"open({str(marker)!r}, 'w').close()")
    with pytest.raises(ValidationError, match="^timeout must be a positive number of seconds, got "):
        evaluate_external(tmp_path / "m.mtm", "d", cmd, timeout=timeout)
    assert not marker.exists()


def test_external_that_cannot_start(tmp_path):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    missing = tmp_path / "no_such_evaluator"
    with pytest.raises(ExternalEvaluatorError, match="^evaluator could not start: "):
        evaluate_external(path, "d", f"{missing} {{checkpoint}} {{data}}")


@pytest.mark.parametrize(
    "template, message",
    [
        ("run {checkpoint}", "must contain {checkpoint} and {data}"),
        ("run {data}", "must contain {checkpoint} and {data}"),
        ("run '{checkpoint} {data}", "does not split into arguments: No closing quotation"),
        ("run {checkpoint} {data} \\", "does not split into arguments: No escaped character"),
    ],
    ids=["no_data", "no_checkpoint", "unclosed_quote", "trailing_escape"],
)
def test_evaluator_argv_rejects_a_template_that_cannot_run(template, message):
    with pytest.raises(ValidationError, match=f"^command template {re.escape(message)}$"):
        evaluator_argv(template)


def test_evaluator_argv_splits_like_a_shell_before_substitution():
    assert evaluator_argv("run 'a b' {checkpoint} --data={data}") == ["run", "a b", "{checkpoint}", "--data={data}"]


def test_external_template_must_have_placeholders(tmp_path):
    path = tmp_path / "m.mtm"
    write_checkpoint(identity_mlp(2), path)
    with pytest.raises(ValidationError, match="command template"):
        evaluate_external(path, "d", "echo hello")


# ============================================================================
# Dataset container
# ============================================================================


def test_eval_dataset_roundtrip(tmp_path):
    data = dataset([[1.0, 2.0], [3.0, 4.0]], [0, 2], 3)
    path = tmp_path / "d.mtm"
    write_eval_dataset(data, path)
    back = read_eval_dataset(path)
    assert np.array_equal(back.features, data.features)
    assert list(back.labels) == [0, 2]
    assert back.num_classes == 3


def test_eval_dataset_container_with_a_split_key_still_loads(tmp_path):
    """Containers written by versions that stored a split label read back; the key is ignored."""
    path = tmp_path / "old.mtm"
    ckpt = Checkpoint(
        tensors={"features": tensor([[1.0, 2.0], [3.0, 4.0]]), "labels": tensor([0.0, 2.0])},
        metadata={"name": "old", "split": "val", "num_classes": "3"},
    )
    write_checkpoint(ckpt, path)
    back = read_eval_dataset(path)
    assert back.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert back.labels.tolist() == [0, 2]
    assert (back.name, back.num_classes) == ("old", 3)
    assert not hasattr(back, "split")


def test_eval_dataset_container_shape_errors(tmp_path):
    path = tmp_path / "bad.mtm"
    write_checkpoint(Checkpoint(tensors={"features": tensor([[1.0]])}), path)
    with pytest.raises(FormatError, match="exactly tensors 'features' and 'labels'"):
        read_eval_dataset(path)


def test_eval_dataset_non_integral_labels(tmp_path):
    path = tmp_path / "bad.mtm"
    ckpt = Checkpoint(
        tensors={"features": tensor([[1.0], [2.0]]), "labels": tensor([0.5, 1.0])},
        metadata={"name": "x", "split": "test", "num_classes": "2"},
    )
    write_checkpoint(ckpt, path)
    with pytest.raises(FormatError, match="integer values"):
        read_eval_dataset(path)


# the float32-matrix rule, which EvalDataset.features and EmbeddingSet.embeddings share
MATRIX_REJECTIONS = [
    pytest.param(np.zeros((2, 2)), [0, 1], 2, "features must be a 2-D float32 array", id="float64"),
    pytest.param(np.zeros((0, 2), dtype=np.float32), [], 2, "features must have at least one row and one column",
                 id="no_rows"),
    pytest.param(np.array([[np.inf, 0.0]], dtype=np.float32), [0], 2, "non-finite value in features",
                 id="non_finite"),
]


@pytest.mark.parametrize(
    "features, labels, num_classes, message",
    [
        *MATRIX_REJECTIONS,
        pytest.param(np.zeros((2, 2), dtype=np.float32), [0], 2, "labels must be 1-D and aligned with features",
                     id="misaligned"),
        pytest.param(np.zeros((2, 2), dtype=np.float32), [0.0, 1.0], 2, "labels must be integers",
                     id="float_labels"),
        pytest.param(np.zeros((1, 2), dtype=np.float32), [0], 0, "num_classes must be positive",
                     id="no_classes"),
    ],
)
def test_eval_dataset_rejects(features, labels, num_classes, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        EvalDataset(features=features, labels=labels, num_classes=num_classes, name="bad")


@pytest.mark.parametrize("features, labels, num_classes, message", MATRIX_REJECTIONS)
def test_embedding_set_rejects_what_eval_dataset_rejects(features, labels, num_classes, message):
    message = message.replace("features", "embeddings")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        EmbeddingSet(embeddings=features, source_name="bad")


def test_eval_dataset_label_range():
    with pytest.raises(ValidationError, match=r"labels must lie in \[0, num_classes\)"):
        dataset([[1.0, 0.0]], [5], 2)
