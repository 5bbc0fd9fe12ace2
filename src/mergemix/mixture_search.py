"""Exhaustive mixture search driven by merged-checkpoint surrogates.

Every non-empty mixture is merged and scored; the best mixture under the
objective is reported. One driver, _score_rows, fills the score columns from
SearchConfig.jobs contiguous slices of the mixtures; check_jobs holds that
count to an integer in [1, MAX_JOBS], wherever it comes from. The builtin
scorer's slices run in blocks: _SCORE_BLOCK mixtures per merge_block call and
per stacked forward pass. Any other evaluator's slices walk subset_merges, one
merged Checkpoint per mixture. Results are ScoreColumns: int mixture codes
and float64 score arrays, whose rows merge_engine.mixture_rows turns into
records and report rows. Mixtures enter and leave as bit strings, e.g.
"101" (see bits_code). best_row holds the tie-break that every selection
in the package uses: the best value, then the fewest datasets, then the
smaller code, so results are deterministic. It returns the winner's row.
"""

from __future__ import annotations

import functools
import numbers
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import EvaluatorError, ExternalEvaluatorError, ValidationError
from .evaluator import (
    TOY_TENSORS,
    EvalDataset,
    Score,
    check_toy_target,
    evaluate_builtin,
    kill_running_evaluators,
    toy_mlp_scores,
)
from .merge_engine import (
    MAX_ENUMERATION_N,
    ModelBank,
    bits_code,
    code_bits,
    gray_codes,
    merge_block,
    mixture_rows,
    subset_merges,
)
from .tensor_store import Checkpoint

OBJECTIVES = ("max_accuracy", "min_loss")

# mixtures per block on the builtin path. It bounds the [block, rows, hidden]
# float64 activations of one stacked forward pass: 1.6 MB at 200 rows and 32
# hidden units. Blocks of 128 raised the bench's peak RSS by 8 MB, and they
# were no faster.
_SCORE_BLOCK = 32

# the most threads one search starts; each can run an evaluator process, and N=14 has 16,383 mixtures
MAX_JOBS = 256

# eval_fn(merged checkpoint, target, mixture bits) -> Score; the bits, e.g.
# "101", exist for bookkeeping and mock evaluators, the builtin adapter ignores them.
TargetRef = Union[EvalDataset, str]
EvalFn = Callable[[Checkpoint, TargetRef, str], Score]


def _dataset(target: TargetRef) -> EvalDataset:
    if not isinstance(target, EvalDataset):
        raise ValidationError("builtin evaluation needs an EvalDataset target")
    return target


def check_jobs(jobs: int) -> None:
    """Reject a thread count that is no integer, below 1 or above MAX_JOBS."""
    if not isinstance(jobs, numbers.Integral):
        raise ValidationError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValidationError("jobs must be positive")
    if jobs > MAX_JOBS:
        raise ValidationError(f"jobs must be at most {MAX_JOBS}, got {jobs}")


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
    # threads that score slices of the mixtures, for the builtin blocks and any other eval_fn alike
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        check_jobs(self.jobs)
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
        for bits, _, *score in mixture_rows(self.n, self.codes, self.accuracy, self.mean_loss, self.num_samples):
            yield ScoreRecord(bits, Score(*score))

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
        rows = mixture_rows(records.n, records.codes, records.accuracy, records.mean_loss)
        return ([bits, n_selected, repr(accuracy), repr(loss), ""] for bits, n_selected, accuracy, loss in rows)

    def to_json_obj(self) -> dict:
        return {
            "objective": self.objective,
            "target_name": self.target_name,
            "best_alpha": self.best_alpha,
            "records": records_json(self.records),
        }


def records_json(merged: ScoreColumns, finetuned: ScoreColumns | None = None) -> list[dict]:
    """The JSON records of a report, one per row of merged, built from the columns.

    finetuned, when given, holds the fine-tuned scores of the same mixtures
    in the same rows; without it every "finetuned_score" is null.
    """
    tuned = () if finetuned is None else (finetuned.accuracy, finetuned.mean_loss, finetuned.num_samples)
    rows = mixture_rows(merged.n, merged.codes, merged.accuracy, merged.mean_loss, merged.num_samples, *tuned)
    keys = ("accuracy", "mean_loss", "num_samples")  # a score's fields, in the order of the columns
    return [
        {
            "mixture_bits": bits,
            "n_selected": n_selected,
            "merged_score": dict(zip(keys, values[:3])),
            "finetuned_score": dict(zip(keys, values[3:])) if tuned else None,
        }
        for bits, n_selected, *values in rows
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


def _score_rows(
    n: int, codes: np.ndarray, jobs: int, score_slice: Callable[..., None], num_samples
) -> ScoreColumns:
    """The scores of mixture codes over n datasets, from min(jobs, len(codes)) contiguous slices of rows.

    score_slice(lo, hi, columns, stop) writes rows [lo, hi) of the shared
    (accuracy, mean_loss, num_samples) columns; num_samples is one shared
    count or an array to fill. One slice runs inline, more run on threads.
    Once a slice or the calling thread fails, stop is set and the other
    slices end before their next block or mixture; when the calling thread
    fails, every running external evaluator is killed. Then the first row that
    is no valid Score fails the search with Score's message, at every jobs.
    """
    check_jobs(jobs)
    columns = (np.empty(len(codes)), np.empty(len(codes)), num_samples)
    stop = threading.Event()
    jobs = min(jobs, len(codes))
    if jobs == 1:
        score_slice(0, len(codes), columns, stop)
    else:
        bounds = [len(codes) * k // jobs for k in range(jobs + 1)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            try:
                slices = [pool.submit(score_slice, bounds[k], bounds[k + 1], columns, stop) for k in range(jobs)]
                wait(slices, return_when=FIRST_EXCEPTION)
            except BaseException:  # Ctrl-C: the evaluators run in their own sessions, so it never reached them
                stop.set()
                kill_running_evaluators()
                raise
            stop.set()  # before the pool waits on its slices, so they end at their next block or mixture
        for done in slices:  # the error of the first failed slice, in row order
            done.result()
    records = ScoreColumns(n, codes, *columns)
    accuracy, mean_loss, _ = columns
    valid = (accuracy >= 0.0) & (accuracy <= 1.0) & np.isfinite(mean_loss) & (mean_loss >= 0.0)
    if not valid.all():
        i = int(np.argmin(valid))
        try:
            Score(accuracy[i].item(), mean_loss[i].item(), records.num_samples[i].item())
        except ValidationError as exc:
            raise EvaluatorError(f"evaluation failed for mixture {code_bits(n, int(codes[i]))}: {exc}") from exc
    return records


def _block_slice(
    data: EvalDataset, stacked: Callable[[int, int], Mapping[str, np.ndarray]], lo: int, hi: int, columns, stop
) -> None:
    """Builtin scores of rows [lo, hi), from stacked(start, end): the toy models of rows [start, end)
    as {tensor: [end - start, ...]}, _SCORE_BLOCK models per forward pass."""
    accuracy, mean_loss, _ = columns
    for start in range(lo, hi, _SCORE_BLOCK):
        if stop.is_set():
            return
        end = min(start + _SCORE_BLOCK, hi)
        block = stacked(start, end)
        correct, loss = toy_mlp_scores(*(block[name] for name in TOY_TENSORS), data)
        accuracy[start:end] = correct / len(data)
        mean_loss[start:end] = loss


def _merged_rows(bank: ModelBank, codes: np.ndarray, lo: int, hi: int) -> Mapping[str, np.ndarray]:
    return merge_block(bank, codes[lo:hi])


def _model_rows(models: Mapping[str, np.ndarray], lo: int, hi: int) -> Mapping[str, np.ndarray]:
    return {name: arr[lo:hi] for name, arr in models.items()}


def builtin_scores(bank: ModelBank, codes: np.ndarray, target: TargetRef, jobs: int = 1) -> ScoreColumns:
    """Builtin scores of the merged surrogates of mixture codes, _SCORE_BLOCK mixtures at a time.

    Bit for bit the scores of evaluate_builtin on merge_uniform, at every
    jobs; the bank's schema and the target are checked once.
    """
    n = len(bank)
    data = _checked(code_bits(n, int(codes[0])), bank.models[0], target)
    scorer = functools.partial(_block_slice, data, functools.partial(_merged_rows, bank, codes))
    return _score_rows(n, codes, jobs, scorer, len(data))


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
    scorer = functools.partial(_block_slice, data, functools.partial(_model_rows, models))
    return _score_rows(n, codes, 1, scorer, len(data))


def _mixture_slice(
    bank: ModelBank, codes: np.ndarray, eval_fn: EvalFn, target: TargetRef, lo: int, hi: int, columns, stop
) -> None:
    """eval_fn's scores of rows [lo, hi), one merged Checkpoint per mixture from the subset_merges walk;
    no object per mixture outlives its evaluation."""
    accuracy, mean_loss, num_samples = columns
    order = (code_bits(len(bank), code) for code in codes[lo:hi].tolist() if not stop.is_set())
    for i, (alpha, merged) in enumerate(subset_merges(bank, order), lo):
        try:
            score = eval_fn(merged, target, alpha)
        except ExternalEvaluatorError as exc:
            raise ExternalEvaluatorError(f"mixture {alpha}: {exc}") from exc
        except Exception as exc:
            raise EvaluatorError(f"evaluation failed for mixture {alpha}: {exc}") from exc
        if not isinstance(score, Score):
            raise EvaluatorError(f"evaluation failed for mixture {alpha}: evaluator returned {type(score).__name__}")
        accuracy[i], mean_loss[i], num_samples[i] = score.accuracy, score.mean_loss, score.num_samples


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
        records = builtin_scores(bank, codes, target, config.jobs)
    else:
        scorer = functools.partial(_mixture_slice, bank, codes, eval_fn, target)
        records = _score_rows(n, codes, config.jobs, scorer, np.empty(len(codes), dtype=np.int64))

    field, direction = ("accuracy", "maximize") if config.objective == "max_accuracy" else ("mean_loss", "minimize")
    best = best_row(codes, getattr(records, field), direction)
    target_name = target.name if isinstance(target, EvalDataset) else str(target)
    best_alpha = code_bits(n, int(codes[best]))
    return SearchReport(records=records, best_alpha=best_alpha, objective=config.objective, target_name=target_name)
