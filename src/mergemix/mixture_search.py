"""Exhaustive mixture search driven by merged-checkpoint surrogates.

Every non-empty mixture is merged and scored; the best mixture under the
objective is reported. The builtin scorer runs in blocks: _SCORE_BLOCK
mixtures per merge_block call and per stacked forward pass. Any other
evaluator gets one merged Checkpoint per mixture from the subset_merges walk.
Results are ScoreColumns: int mixture codes and float64 score arrays, which
build a ScoreRecord only when one entry is read.
best_mixture holds the tie-break that every selection in the package uses:
the smaller selection first, then the lexicographically smallest bit string,
so results are deterministic.
"""

from __future__ import annotations

import operator
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
    MixtureVector,
    ModelBank,
    code_bits,
    code_mixture,
    gray_codes,
    merge_block,
    mixture_code,
    subset_merges,
)
from .tensor_store import Checkpoint

OBJECTIVES = ("max_accuracy", "min_loss")

# mixtures per block on the builtin path. It bounds the [block, rows, hidden]
# float64 activations of one stacked forward pass: 1.6 MB at 200 rows and 32
# hidden units. Blocks of 128 raised the bench's peak RSS by 8 MB, and they
# were no faster.
_SCORE_BLOCK = 32

# eval_fn(merged checkpoint, target, mixture) -> Score; the mixture argument
# exists for bookkeeping and mock evaluators, the builtin adapter ignores it.
TargetRef = Union[EvalDataset, str]
EvalFn = Callable[[Checkpoint, TargetRef, MixtureVector], Score]


def _dataset(target: TargetRef) -> EvalDataset:
    if not isinstance(target, EvalDataset):
        raise ValidationError("builtin evaluation needs an EvalDataset target")
    return target


def builtin_eval_fn(ckpt: Checkpoint, target: TargetRef, alpha: MixtureVector) -> Score:
    """Adapter running the builtin toy-MLP scorer.

    run_search recognizes this function and scores in blocks instead.
    """
    return evaluate_builtin(ckpt, _dataset(target))


@dataclass
class SearchConfig:
    objective: str = "max_accuracy"
    candidates: Sequence[MixtureVector] | None = None
    # worker threads for a per-mixture eval_fn; the builtin blocks run in one
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.jobs < 1:
            raise ValidationError("jobs must be positive")


@dataclass
class ScoreRecord:
    alpha: MixtureVector
    merged_score: Score
    finetuned_score: Score | None = None

    def to_json_obj(self) -> dict:
        return {
            "mixture_bits": str(self.alpha),
            "n_selected": self.alpha.n_selected,
            "merged_score": _score_json(self.merged_score),
            "finetuned_score": _score_json(self.finetuned_score),
        }


def _score_json(score: Score | None) -> dict | None:
    # a literal dict: dataclasses.asdict is about 40 times slower per Score
    if score is None:
        return None
    return {"accuracy": score.accuracy, "mean_loss": score.mean_loss, "num_samples": score.num_samples}


def _column(values, dtype, size: int) -> np.ndarray:
    """values as a read-only [size] view; a scalar is shared by every row and costs no memory per row."""
    return np.broadcast_to(np.asarray(values, dtype=dtype), (size,))


class ScoreColumns(Sequence[ScoreRecord]):
    """Merged scores as columns, a read-only Sequence[ScoreRecord].

    Entry i is the ScoreRecord of the mixture with code codes[i] (see
    mixture_code) over n datasets, scored Score(accuracy[i], mean_loss[i],
    num_samples[i]). It is built when read and never cached, so the columns
    hold 24 bytes per mixture when num_samples is one shared count.
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

    def _record(self, code: int, accuracy: float, mean_loss: float, num_samples: int) -> ScoreRecord:
        return ScoreRecord(code_mixture(self.n, code), Score(accuracy, mean_loss, num_samples))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScoreColumns(
                self.n, self.codes[index], self.accuracy[index], self.mean_loss[index], self.num_samples[index]
            )
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"score index {index} out of range for {len(self)} mixtures")
        columns = (self.codes, self.accuracy, self.mean_loss, self.num_samples)
        return self._record(*(column[i].item() for column in columns))

    def __iter__(self) -> Iterator[ScoreRecord]:
        columns = (self.codes, self.accuracy, self.mean_loss, self.num_samples)
        for row in zip(*(column.tolist() for column in columns)):
            yield self._record(*row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"ScoreColumns(n={self.n}, {len(self)} mixtures)"


@dataclass
class SearchReport:
    records: Sequence[ScoreRecord]
    best_alpha: MixtureVector
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

    def csv_rows(self) -> list[list]:
        rows = []
        for rec in self.records:
            fin = "" if rec.finetuned_score is None else repr(rec.finetuned_score.accuracy)
            rows.append(
                [
                    str(rec.alpha),
                    rec.alpha.n_selected,
                    repr(rec.merged_score.accuracy),
                    repr(rec.merged_score.mean_loss),
                    fin,
                ]
            )
        return rows

    def to_json_obj(self) -> dict:
        return {
            "objective": self.objective,
            "target_name": self.target_name,
            "best_alpha": str(self.best_alpha),
            "records": [rec.to_json_obj() for rec in self.records],
        }


def best_mixture(items: Iterable[tuple[str, float]], direction: str) -> tuple[str, float]:
    """The winning (bits, value) pair among (bits, value) pairs.

    direction is "maximize" or "minimize". Ties on the value resolve to the
    smaller selection first, then the lexicographically smallest bit string.
    """
    if direction not in ("maximize", "minimize"):
        raise ValidationError(f"direction must be 'maximize' or 'minimize', got {direction!r}")
    sign = -1.0 if direction == "maximize" else 1.0
    return min(items, key=lambda item: (sign * item[1], item[0].count("1"), item[0]))


def best_of_codes(n: int, codes: np.ndarray, values: np.ndarray, direction: str) -> tuple[str, float]:
    """best_mixture over mixture codes and their finite values, given as arrays.

    Only the entries that hold the best value can win, so only their bit
    strings are built; best_mixture breaks the tie among them.
    """
    rows = np.flatnonzero(values == (values.max() if direction == "maximize" else values.min()))
    return best_mixture(zip((code_bits(n, code) for code in codes[rows].tolist()), values[rows].tolist()), direction)


def _best_record(records: Sequence[ScoreRecord], objective: str) -> MixtureVector:
    """The mixture whose merged score wins under the search objective."""
    field, direction = ("accuracy", "maximize") if objective == "max_accuracy" else ("mean_loss", "minimize")
    if isinstance(records, ScoreColumns):
        bits, _ = best_of_codes(records.n, records.codes, getattr(records, field), direction)
    else:
        bits, _ = best_mixture(((str(r.alpha), getattr(r.merged_score, field)) for r in records), direction)
    return MixtureVector.from_string(bits)


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
    ckpts: Sequence[Checkpoint], n: int, codes: np.ndarray, target: TargetRef
) -> ScoreColumns:
    """Builtin scores of same-schema toy checkpoints, one per mixture code over n datasets.

    Bit for bit the scores of evaluate_builtin on each checkpoint, stacked
    _SCORE_BLOCK at a time; the first checkpoint and the target are checked once.
    """
    data = _checked(code_bits(n, int(codes[0])), ckpts[0], target)

    def stacked(lo: int, hi: int) -> Iterable[np.ndarray]:
        return (np.stack([c.tensors[name] for c in ckpts[lo:hi]]) for name in TOY_TENSORS)

    return _block_scores(n, codes, data, stacked)


def _score_chunk(
    bank: ModelBank, chunk: list[MixtureVector], eval_fn: EvalFn, target: TargetRef
) -> list[Score]:
    scores = []
    for alpha, merged in subset_merges(bank, chunk):
        try:
            score = eval_fn(merged, target, alpha)
        except ExternalEvaluatorError as exc:
            raise ExternalEvaluatorError(f"mixture {alpha}: {exc}") from exc
        except Exception as exc:
            raise EvaluatorError(f"evaluation failed for mixture {alpha}: {exc}") from exc
        if not isinstance(score, Score):
            raise EvaluatorError(f"evaluation failed for mixture {alpha}: evaluator returned {type(score).__name__}")
        scores.append(score)
    return scores


def _per_mixture_scores(
    bank: ModelBank, codes: np.ndarray, eval_fn: EvalFn, target: TargetRef, jobs: int
) -> ScoreColumns:
    """eval_fn's score of each mixture's merged Checkpoint, from up to jobs threads."""
    n = len(bank)
    alphas = [code_mixture(n, code) for code in codes.tolist()]
    if jobs > 1 and len(alphas) > 1:
        jobs = min(jobs, len(alphas))
        step = (len(alphas) + jobs - 1) // jobs
        chunks = [alphas[i : i + step] for i in range(0, len(alphas), step)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda c: _score_chunk(bank, c, eval_fn, target), chunks))
        scores = [score for part in parts for score in part]
    else:
        scores = _score_chunk(bank, alphas, eval_fn, target)
    fields = ([s.accuracy for s in scores], [s.mean_loss for s in scores], [s.num_samples for s in scores])
    return ScoreColumns(n, codes, *fields)


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
        codes = np.array([mixture_code(n, alpha) for alpha in config.candidates], dtype=np.int64)
        if not len(codes):
            raise ValidationError("candidate list must not be empty")
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

    if isinstance(target, EvalDataset):
        target_name = target.name
    else:
        target_name = str(target)
    return SearchReport(
        records=records,
        best_alpha=_best_record(records, config.objective),
        objective=config.objective,
        target_name=target_name,
    )


def select_best(report: SearchReport) -> MixtureVector:
    """Recompute the winner from a report's records (consistency check)."""
    if not report.records:
        raise ValidationError("report holds no records")
    return _best_record(report.records, report.objective)


def _score_items(scores: Mapping) -> list[tuple[str, float]]:
    """(bits, accuracy) pairs of a scores map, validated.

    Keys may be MixtureVector or bit strings; values may be Score or floats.
    Rejects an empty map, empty mixtures, duplicate mixtures, accuracies
    outside [0, 1] and mixtures of different lengths.
    """
    if not scores:
        raise ValidationError("scores map must not be empty")
    items: dict[str, float] = {}
    for key, value in scores.items():
        alpha = key if isinstance(key, MixtureVector) else MixtureVector.from_string(str(key))
        if alpha.n_selected == 0:
            raise ValidationError("empty mixture in scores map")
        bits = str(alpha)
        if bits in items:
            raise ValidationError(f"duplicate mixture {bits}")
        acc = value.accuracy if isinstance(value, Score) else float(value)
        if not 0.0 <= acc <= 1.0:
            raise ValidationError(f"accuracy out of range: {acc}")
        items[bits] = acc
    if len({len(bits) for bits in items}) != 1:
        raise ValidationError("scores map mixes mixture lengths")
    return list(items.items())


def oracle_select(scores: Mapping) -> MixtureVector:
    """Best mixture by known (validation) accuracy, same tie-break as search.

    Keys may be MixtureVector or bit strings; values may be Score or floats.
    """
    bits, _ = best_mixture(_score_items(scores), "maximize")
    return MixtureVector.from_string(bits)
