"""Exhaustive mixture search driven by merged-checkpoint surrogates.

Every non-empty mixture is merged and scored; the best mixture under the
objective is reported. The builtin scorer runs in blocks: _SCORE_BLOCK
mixtures per merge_block call and per stacked forward pass. Any other
evaluator gets one merged Checkpoint per mixture from the subset_merges walk.
Results are ScoreColumns: int mixture codes and float64 score arrays, which
build ScoreRecords only as they are iterated. Mixtures enter and leave as
bit strings, e.g. "101" (see merge_engine.bits_code).
best_row holds the tie-break that every selection in the package uses: the
best value, then the fewest datasets, then the smaller code, so results are
deterministic. It returns the winner's row, and each caller reads the code
and the value from that row.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import EvaluatorError, ExternalEvaluatorError, ValidationError
from .evaluator import (
    TOY_TENSORS,
    EvalDataset,
    Score,
    check_toy_target,
    evaluate_builtin,
    toy_mlp_scores,
)
from .merge_engine import (
    MAX_ENUMERATION_N,
    ModelBank,
    bits_code,
    code_bits,
    gray_codes,
    merge_block,
    subset_merges,
)
from .tensor_store import Checkpoint

OBJECTIVES = ("max_accuracy", "min_loss")

# mixtures per block on the builtin path. It bounds the [block, rows, hidden]
# float64 activations of one stacked forward pass: 1.6 MB at 200 rows and 32
# hidden units. Blocks of 128 raised the bench's peak RSS by 8 MB, and they
# were no faster.
_SCORE_BLOCK = 32

# eval_fn(merged checkpoint, target, mixture bits) -> Score; the bits, e.g.
# "101", exist for bookkeeping and mock evaluators, the builtin adapter ignores them.
TargetRef = Union[EvalDataset, str]
EvalFn = Callable[[Checkpoint, TargetRef, str], Score]


def _dataset(target: TargetRef) -> EvalDataset:
    if not isinstance(target, EvalDataset):
        raise ValidationError("builtin evaluation needs an EvalDataset target")
    return target


def builtin_eval_fn(ckpt: Checkpoint, target: TargetRef, alpha: str) -> Score:
    """Adapter running the builtin toy-MLP scorer.

    run_search recognizes this function and scores in blocks instead.
    """
    return evaluate_builtin(ckpt, _dataset(target))


@dataclass
class SearchConfig:
    objective: str = "max_accuracy"
    # mixture bit strings of one length, e.g. ["110", "001"]; None enumerates all
    candidates: Sequence[str] | None = None
    # worker threads for a per-mixture eval_fn; the builtin blocks run in one
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.jobs < 1:
            raise ValidationError("jobs must be positive")
        if self.candidates is not None:
            if not len(self.candidates):
                raise ValidationError("candidate list must not be empty")
            # each candidate's characters, and one length for all; run_search checks it against the bank
            for bits in self.candidates:
                bits_code(len(bits) if isinstance(bits, str) else 0, bits)
                if len(bits) != len(self.candidates[0]):
                    raise ValidationError(f"candidates differ in length: {len(self.candidates[0])} and {len(bits)}")


@dataclass
class ScoreRecord:
    alpha: str
    merged_score: Score


def _column(values, dtype, size: int) -> np.ndarray:
    """values as a read-only [size] view; a scalar is shared by every row and costs no memory per row."""
    return np.broadcast_to(np.asarray(values, dtype=dtype), (size,))


class ScoreColumns:
    """Merged scores as columns, which iterate as ScoreRecords.

    Row i is the mixture with code codes[i] (see code_bits) over n datasets,
    scored Score(accuracy[i], mean_loss[i], num_samples[i]). Its ScoreRecord
    is built as iteration reaches it and never cached, so the columns hold
    24 bytes per mixture when num_samples is one shared count.
    """

    __slots__ = ("n", "codes", "accuracy", "mean_loss", "num_samples")

    def __init__(self, n: int, codes, accuracy, mean_loss, num_samples) -> None:
        size = len(codes)
        self.n = n
        self.codes = _column(codes, np.int64, size)
        self.accuracy = _column(accuracy, np.float64, size)
        self.mean_loss = _column(mean_loss, np.float64, size)
        self.num_samples = _column(num_samples, np.int64, size)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[ScoreRecord]:
        columns = (self.codes, self.accuracy, self.mean_loss, self.num_samples)
        for code, accuracy, mean_loss, num_samples in zip(*(column.tolist() for column in columns)):
            yield ScoreRecord(code_bits(self.n, code), Score(accuracy, mean_loss, num_samples))

    def __repr__(self) -> str:
        return f"ScoreColumns(n={self.n}, {len(self)} mixtures)"


@dataclass
class SearchReport:
    records: ScoreColumns
    best_alpha: str
    objective: str
    target_name: str

    def csv_header(self) -> list[str]:
        return [
            "mixture_bits",
            "n_selected",
            "merged_accuracy",
            "merged_loss",
            "finetuned_accuracy",
        ]

    def csv_rows(self) -> Iterator[list]:
        """One row per mixture, made from the columns as it is written; a search has no fine-tuned score."""
        records = self.records
        for code, accuracy, mean_loss in zip(
            records.codes.tolist(), records.accuracy.tolist(), records.mean_loss.tolist()
        ):
            yield [code_bits(records.n, code), code.bit_count(), repr(accuracy), repr(mean_loss), ""]

    def to_json_obj(self) -> dict:
        return {
            "objective": self.objective,
            "target_name": self.target_name,
            "best_alpha": self.best_alpha,
            "records": records_json(self.records),
        }


def _score_dicts(columns: ScoreColumns) -> Iterator[dict]:
    rows = zip(columns.accuracy.tolist(), columns.mean_loss.tolist(), columns.num_samples.tolist())
    return ({"accuracy": a, "mean_loss": loss, "num_samples": k} for a, loss, k in rows)


def records_json(merged: ScoreColumns, finetuned: ScoreColumns | None = None) -> list[dict]:
    """The JSON records of a report, one per row of merged, built from the columns.

    finetuned, when given, holds the fine-tuned scores of the same mixtures
    in the same rows; without it every "finetuned_score" is null.
    """
    tuned = _score_dicts(finetuned) if finetuned is not None else itertools.repeat(None)
    return [
        {
            "mixture_bits": code_bits(merged.n, code),
            "n_selected": code.bit_count(),
            "merged_score": score,
            "finetuned_score": tuned_score,
        }
        for code, score, tuned_score in zip(merged.codes.tolist(), _score_dicts(merged), tuned)
    ]


def best_row(codes: np.ndarray, values: np.ndarray, direction: str) -> int:
    """The row of the winning mixture among mixture codes and their finite values, as arrays.

    direction is "maximize" or "minimize". Ties on the value resolve to the
    fewest datasets (code.bit_count()), then to the smaller code, which for
    bit strings of one length is the lexicographically smaller string.
    """
    if direction not in ("maximize", "minimize"):
        raise ValidationError(f"direction must be 'maximize' or 'minimize', got {direction!r}")
    rows = np.flatnonzero(values == (values.max() if direction == "maximize" else values.min()))
    tied = zip(codes[rows].tolist(), rows.tolist())
    return min(tied, key=lambda item: (item[0].bit_count(), item[0]))[1]


def _checked(first: str, ckpt: Checkpoint, target: TargetRef) -> EvalDataset:
    """The target as a dataset the toy checkpoint fits; errors name the first mixture."""
    try:
        data = _dataset(target)
        check_toy_target(ckpt, data)
    except ValidationError as exc:
        raise EvaluatorError(f"evaluation failed for mixture {first}: {exc}") from exc
    return data


def _block_scores(
    n: int, codes: np.ndarray, data: EvalDataset, stacked: Callable[[int, int], Iterable[np.ndarray]]
) -> ScoreColumns:
    """Builtin scores of one toy model per code, _SCORE_BLOCK models per stacked forward pass.

    stacked(lo, hi) gives the TOY_TENSORS of the models of codes[lo:hi],
    stacked on a leading axis. A row that is no valid Score fails the
    search with Score's message, naming the first such mixture.
    """
    accuracy, mean_loss = np.empty(len(codes)), np.empty(len(codes))
    for lo in range(0, len(codes), _SCORE_BLOCK):
        hi = lo + _SCORE_BLOCK
        correct, loss = toy_mlp_scores(*stacked(lo, hi), data)
        accuracy[lo:hi] = correct / len(data)
        mean_loss[lo:hi] = loss
    valid = (accuracy >= 0.0) & (accuracy <= 1.0) & np.isfinite(mean_loss) & (mean_loss >= 0.0)
    if not valid.all():
        i = int(np.argmin(valid))
        try:
            Score(accuracy[i].item(), mean_loss[i].item(), len(data))
        except ValidationError as exc:
            raise EvaluatorError(f"evaluation failed for mixture {code_bits(n, int(codes[i]))}: {exc}") from exc
    return ScoreColumns(n, codes, accuracy, mean_loss, len(data))


def builtin_scores(bank: ModelBank, codes: np.ndarray, target: TargetRef) -> ScoreColumns:
    """Builtin scores of the merged surrogates of mixture codes, _SCORE_BLOCK mixtures at a time.

    Bit for bit the scores of evaluate_builtin on merge_uniform; the bank's
    schema and the target are checked once.
    """
    n = len(bank)
    data = _checked(code_bits(n, int(codes[0])), bank.models[0], target)

    def stacked(lo: int, hi: int) -> Iterable[np.ndarray]:
        merged = merge_block(bank, codes[lo:hi])
        return (merged[name] for name in TOY_TENSORS)

    return _block_scores(n, codes, data, stacked)


def checkpoint_scores(
    models: Mapping[str, np.ndarray], n: int, codes: np.ndarray, target: TargetRef
) -> ScoreColumns:
    """Builtin scores of toy models stacked as {tensor: float32 [len(codes), ...]}.

    Row i of each tensor belongs to mixture code codes[i] over n datasets.
    Bit for bit the scores of evaluate_builtin on each row's Checkpoint,
    _SCORE_BLOCK rows at a time; the first row and the target are checked once.
    """
    first = Checkpoint(tensors={name: arr[0] for name, arr in models.items()})
    data = _checked(code_bits(n, int(codes[0])), first, target)

    def stacked(lo: int, hi: int) -> Iterable[np.ndarray]:
        return (models[name][lo:hi] for name in TOY_TENSORS)

    return _block_scores(n, codes, data, stacked)


def _per_mixture_scores(
    bank: ModelBank, codes: np.ndarray, eval_fn: EvalFn, target: TargetRef, jobs: int
) -> ScoreColumns:
    """eval_fn's score of each mixture's merged Checkpoint, from up to jobs threads.

    Each thread walks its own slice of codes, formats each mixture's bits as
    it goes and writes the scores into the shared columns, so no object per
    mixture outlives its evaluation. Once a slice or the calling thread
    fails, the others stop before their next mixture.
    """
    n = len(bank)
    accuracy, mean_loss = np.empty(len(codes)), np.empty(len(codes))
    num_samples = np.empty(len(codes), dtype=np.int64)
    failed = threading.Event()

    def score_slice(lo: int, hi: int) -> None:
        order = (code_bits(n, code) for code in codes[lo:hi].tolist() if not failed.is_set())
        try:
            for i, (alpha, merged) in enumerate(subset_merges(bank, order), lo):
                try:
                    score = eval_fn(merged, target, alpha)
                except ExternalEvaluatorError as exc:
                    raise ExternalEvaluatorError(f"mixture {alpha}: {exc}") from exc
                except Exception as exc:
                    raise EvaluatorError(f"evaluation failed for mixture {alpha}: {exc}") from exc
                if not isinstance(score, Score):
                    returned = type(score).__name__
                    raise EvaluatorError(f"evaluation failed for mixture {alpha}: evaluator returned {returned}")
                accuracy[i], mean_loss[i], num_samples[i] = score.accuracy, score.mean_loss, score.num_samples
        except BaseException:
            failed.set()
            raise

    if jobs > 1 and len(codes) > 1:
        jobs = min(jobs, len(codes))
        step = (len(codes) + jobs - 1) // jobs
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            try:
                list(pool.map(lambda lo: score_slice(lo, lo + step), range(0, len(codes), step)))
            finally:  # before the pool waits on its slices, so an error here (KeyboardInterrupt) stops them
                failed.set()
    else:
        score_slice(0, len(codes))
    return ScoreColumns(n, codes, accuracy, mean_loss, num_samples)


def run_search(
    bank: ModelBank,
    eval_fn: EvalFn,
    target: TargetRef,
    config: SearchConfig | None = None,
) -> SearchReport:
    """Merge and score mixtures, returning all records and the best mixture.

    Without explicit candidates, all 2^N - 1 non-empty mixtures are
    enumerated in Gray-code order (requires N <= MAX_ENUMERATION_N).
    An evaluator failure aborts the search naming the offending mixture.
    """
    config = config or SearchConfig()
    n = len(bank)
    if config.candidates is not None:
        codes = np.array([bits_code(n, bits) for bits in config.candidates], dtype=np.int64)
    else:
        if n > MAX_ENUMERATION_N:
            raise ValidationError(
                f"exhaustive enumeration over N={n} exceeds MAX_ENUMERATION_N="
                f"{MAX_ENUMERATION_N}; pass explicit candidates"
            )
        codes = gray_codes(n)

    if eval_fn is builtin_eval_fn:
        records = builtin_scores(bank, codes, target)
    else:
        records = _per_mixture_scores(bank, codes, eval_fn, target, config.jobs)

    field, direction = ("accuracy", "maximize") if config.objective == "max_accuracy" else ("mean_loss", "minimize")
    best = best_row(codes, getattr(records, field), direction)
    if isinstance(target, EvalDataset):
        target_name = target.name
    else:
        target_name = str(target)
    return SearchReport(
        records=records,
        best_alpha=code_bits(n, int(codes[best])),
        objective=config.objective,
        target_name=target_name,
    )
