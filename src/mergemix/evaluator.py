"""Scoring of checkpoints on labeled datasets, plus logit-scale helpers.

The builtin path scores toy MLP checkpoints (tensors w1 [h, in], b1 [h],
w2 [c, h], b2 [c]; ReLU hidden layer) with argmax accuracy and mean softmax
cross-entropy. The external path shells out to a user-supplied command that
prints a one-line JSON score.
"""

from __future__ import annotations

import contextlib
import json
import math
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ExternalEvaluatorError, FormatError, ValidationError
from .tensor_store import Checkpoint, float32_matrix, read_checkpoint, write_checkpoint

LOGIT_EPS = 1e-6

TOY_TENSORS = ("w1", "b1", "w2", "b2")

# how much of a failed external evaluator's stderr its error message quotes
STDERR_TAIL_LINES = 5
STDERR_TAIL_CHARS = 500


@dataclass(eq=False)
class EvalDataset:
    """Labeled samples: features [n, d] float32, integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str

    def __post_init__(self) -> None:
        self.features = float32_matrix(self.features, "features")
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != self.features.shape[0]:
            raise ValidationError("labels must be 1-D and aligned with features")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValidationError("labels must be integers")
        if self.num_classes < 1:
            raise ValidationError("num_classes must be positive")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValidationError("labels must lie in [0, num_classes)")
        self.labels = np.ascontiguousarray(labels.astype(np.int64))

    def __len__(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class Score:
    """Evaluation result.

    accuracy is correct/num_samples exactly for builtin scores; num_samples
    is 0 when the producer (external protocol) does not report a count.
    """

    accuracy: float
    mean_loss: float
    num_samples: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValidationError(f"accuracy out of range: {self.accuracy}")
        if not math.isfinite(self.mean_loss) or self.mean_loss < 0.0:
            raise ValidationError(f"mean_loss must be finite and >= 0, got {self.mean_loss}")
        if self.num_samples < 0:
            raise ValidationError("num_samples must be >= 0")


def toy_mlp_dims(ckpt: Checkpoint) -> tuple[int, int, int]:
    """Return (input_dim, hidden_dim, num_classes); reject non-toy schemas."""
    if set(ckpt.tensors) != set(TOY_TENSORS):
        raise ValidationError(f"checkpoint must hold exactly tensors {TOY_TENSORS}")
    w1, b1, w2, b2 = (ckpt.tensors[n] for n in TOY_TENSORS)
    if w1.ndim != 2 or w2.ndim != 2 or b1.ndim != 1 or b2.ndim != 1:
        raise ValidationError("w1/w2 must be 2-D and b1/b2 1-D")
    hidden, input_dim = w1.shape
    classes = w2.shape[0]
    if b1.shape[0] != hidden or w2.shape[1] != hidden or b2.shape[0] != classes:
        raise ValidationError("inconsistent toy MLP tensor shapes")
    return int(input_dim), int(hidden), int(classes)


def check_toy_target(ckpt: Checkpoint, data: EvalDataset) -> None:
    """Reject a non-toy checkpoint, or one whose input dim or head does not fit data."""
    input_dim, _, classes = toy_mlp_dims(ckpt)
    if data.features.shape[1] != input_dim:
        raise ValidationError(
            f"feature dim {data.features.shape[1]} does not match model input dim {input_dim}"
        )
    if data.num_classes != classes:
        raise ValidationError(
            f"dataset has {data.num_classes} classes but model head has {classes}"
        )


def _hidden(x: np.ndarray, w1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """relu(X w1^T + b1) in float64 for weights stacked on a leading block axis: [B, n, h].

    Each block item's transpose stays a view, so BLAS sees the layout of a
    single model's x @ w1.T and rounds the same way; a contiguous copy can
    take another kernel (one-row inputs, some small shapes) and change bits.
    The bias and the ReLU work in place, which saves two [B, n, h] arrays.
    """
    hidden = np.matmul(x, w1.astype(np.float64, copy=False).transpose(0, 2, 1))
    hidden += b1.astype(np.float64, copy=False)[:, None, :]
    return np.maximum(hidden, 0.0, out=hidden)


def toy_mlp_logits(
    x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(hidden, logits) of toy MLPs stacked on a leading model axis, in float64.

    x is float64, [n, in] shared by all M models or [M, b, in] with one batch
    per model; the weights are [M, ...], and float64 weights are not copied.
    np.matmul treats each model's slice as one 2-D product, so a model gets
    the same bits whether it is stacked with others or alone. The trainer
    and the scorer both run this pass.
    """
    hidden = _hidden(x, w1, b1)
    logits = np.matmul(hidden, w2.astype(np.float64, copy=False).transpose(0, 2, 1))
    logits += b2.astype(np.float64, copy=False)[:, None, :]
    return hidden, logits


def shift_by_row_max(logits: np.ndarray) -> np.ndarray:
    """logits minus each row's max over the last axis, in place.

    The max is a chain over the class columns: max is exact in any order,
    and the chain is several times faster than a reduce over a short axis.
    """
    top = logits[..., 0].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., j], out=top)
    return np.subtract(logits, top[..., None], out=logits)


def toy_mlp_scores(
    w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, data: EvalDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (correct count, mean loss) of toy MLPs stacked on a leading block axis.

    The weights are float32 [B, ...] with shapes that fit data; the forward
    pass runs in float64. Argmax ties resolve to the lowest class index. The
    loss subtracts the row max before exponentiation, so it is finite for
    all finite weights.
    """
    _, logits = toy_mlp_logits(data.features.astype(np.float64), w1, b1, w2, b2)
    correct = np.count_nonzero(np.argmax(logits, axis=2) == data.labels, axis=1)
    shifted = shift_by_row_max(logits)
    picked = shifted[:, np.arange(len(data)), data.labels]
    log_z = np.log(np.exp(shifted, out=shifted).sum(axis=2))
    return correct, (log_z - picked).mean(axis=1)


def toy_mlp_hidden(ckpt: Checkpoint, features: np.ndarray) -> np.ndarray:
    """Hidden-layer activations, float32; usable as embedding rows."""
    x = np.asarray(features, dtype=np.float64)
    return _hidden(x, ckpt.tensors["w1"][None], ckpt.tensors["b1"][None])[0].astype(np.float32)


def evaluate_builtin(ckpt: Checkpoint, data: EvalDataset) -> Score:
    """Score a toy MLP checkpoint: argmax accuracy, mean softmax cross-entropy.

    The one-row case of toy_mlp_scores.
    """
    check_toy_target(ckpt, data)
    correct, loss = toy_mlp_scores(*(ckpt.tensors[name][None] for name in TOY_TENSORS), data)
    return Score(accuracy=int(correct[0]) / len(data), mean_loss=float(loss[0]), num_samples=len(data))


def _final_json_line(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ExternalEvaluatorError("unparsable evaluator output: empty stdout")
    try:
        obj = json.loads(lines[-1])
    except (ValueError, RecursionError) as exc:  # also an int past Python's digit limit, or nesting too deep
        raise ExternalEvaluatorError(f"unparsable evaluator output: {lines[-1]!r}") from exc
    if not isinstance(obj, dict):
        raise ExternalEvaluatorError("unparsable evaluator output: final line is not a JSON object")
    return obj


def _stderr_tail(stderr: str) -> str:
    """The last non-blank lines of stderr joined on one line, capped in length."""
    lines = [line.strip() for line in stderr.splitlines() if line.strip()]
    return " | ".join(lines[-STDERR_TAIL_LINES:])[-STDERR_TAIL_CHARS:]


def evaluator_argv(command_template: str) -> list[str]:
    """The tokens of a command template that holds {checkpoint} and {data}, split as a POSIX shell splits."""
    if "{checkpoint}" not in command_template or "{data}" not in command_template:
        raise ValidationError("command template must contain {checkpoint} and {data}")
    try:
        return shlex.split(command_template)
    except ValueError as exc:
        raise ValidationError(f"command template does not split into arguments: {exc}") from None


def check_timeout(timeout: float | None, name: str = "timeout") -> None:
    """Reject a timeout that is neither None, for no limit, nor a positive finite number of seconds."""
    if timeout is not None and not 0.0 < timeout < math.inf:
        raise ValidationError(f"{name} must be a positive number of seconds, got {timeout}")


def _json_number(value) -> float:
    """A JSON int or float as a float; a bool, a string, null or an int beyond float range is none."""
    if type(value) in (int, float):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ExternalEvaluatorError("evaluator output fields must be numbers")


def evaluate_external(
    ckpt_path: str | Path, data_ref: str, command_template: str, timeout: float | None = None
) -> Score:
    """Run an external evaluator command and parse its final stdout line.

    The template is split by evaluator_argv, and its {checkpoint} and {data}
    placeholders are substituted per argument token (never through a shell).
    The final stdout line must be a JSON object {"accuracy": <number in [0,1]>,
    "loss": <number >= 0>} of JSON numbers that Score accepts, and stdout must be
    UTF-8. check_timeout rejects a bad timeout before the command starts; an
    evaluator still running after timeout seconds is killed and reaped.
    """
    check_timeout(timeout)
    argv = [
        token.replace("{checkpoint}", str(ckpt_path)).replace("{data}", str(data_ref))
        for token in evaluator_argv(command_template)
    ]
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ExternalEvaluatorError(f"evaluator timed out after {timeout:g} s") from None
    except OSError as exc:
        raise ExternalEvaluatorError(f"evaluator could not start: {exc}") from exc
    if proc.returncode != 0:
        tail = _stderr_tail(proc.stderr.decode("utf-8", errors="replace"))
        raise ExternalEvaluatorError(
            f"evaluator failed (exit {proc.returncode})" + (f"; stderr: {tail}" if tail else "")
        )
    try:
        stdout = proc.stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ExternalEvaluatorError(f"unparsable evaluator output: not UTF-8 ({exc})") from None
    obj = _final_json_line(stdout)
    if "accuracy" not in obj or "loss" not in obj:
        raise ExternalEvaluatorError("evaluator output missing 'accuracy' or 'loss'")
    try:
        return Score(accuracy=_json_number(obj["accuracy"]), mean_loss=_json_number(obj["loss"]))
    except ValidationError as exc:
        raise ExternalEvaluatorError(str(exc)) from None


def write_eval_dataset(data: EvalDataset, path: str | Path) -> None:
    """Store a dataset as a container: tensors "features" [n,d] and "labels" [n].

    Labels are stored as float32 holding exact integer values (the container
    is float32-only); name and num_classes ride in the metadata.
    """
    ckpt = Checkpoint(
        tensors={
            "features": data.features,
            "labels": data.labels.astype(np.float32),
        },
        metadata={
            "name": data.name,
            "num_classes": str(data.num_classes),
        },
    )
    write_checkpoint(ckpt, path)


def read_eval_dataset(path: str | Path) -> EvalDataset:
    ckpt = read_checkpoint(path)
    if set(ckpt.tensors) != {"features", "labels"}:
        raise FormatError("dataset container must hold exactly tensors 'features' and 'labels'")
    feats = ckpt.tensors["features"]
    raw_labels = ckpt.tensors["labels"]
    if feats.ndim != 2 or raw_labels.ndim != 1:
        raise FormatError("'features' must be 2-D and 'labels' 1-D")
    if not np.all(raw_labels == np.round(raw_labels)):
        raise FormatError("'labels' must hold integer values")
    meta = ckpt.metadata or {}
    labels = raw_labels.astype(np.int64)
    try:
        num_classes = int(meta["num_classes"]) if "num_classes" in meta else int(labels.max()) + 1
    except ValueError as exc:
        raise FormatError("metadata num_classes must be an integer") from exc
    return EvalDataset(
        features=feats,
        labels=labels,
        num_classes=num_classes,
        name=meta.get("name", Path(path).stem),
    )


def logit(p: float) -> float:
    """log(p / (1-p)) with p clamped to [1e-6, 1 - 1e-6]. Requires 0 <= p <= 1."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"probability out of range: {p}")
    p = min(max(p, LOGIT_EPS), 1.0 - LOGIT_EPS)
    return math.log(p) - math.log1p(-p)


def logit_improvement(accuracy: float, base_accuracy: float) -> float:
    """logit(accuracy) - logit(base_accuracy)."""
    return logit(accuracy) - logit(base_accuracy)
