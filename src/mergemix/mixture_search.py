"""Exhaustive mixture search driven by merged-checkpoint surrogates.

Every non-empty mixture is merged and scored; the best mixture under the
objective is reported. The builtin scorer runs in blocks: _SCORE_BLOCK
mixtures per merge_block call and per stacked forward pass. Any other
evaluator gets one merged Checkpoint per mixture from the subset_merges walk.
best_mixture holds the tie-break that every selection in the package uses:
the smaller selection first, then the lexicographically smallest bit string,
so results are deterministic.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import EvaluatorError, ExternalEvaluatorError, ValidationError
from .evaluator import (
    TOY_TENSORS,
    EvalDataset,
    Score,
    builtin_score,
    check_toy_target,
    evaluate_builtin,
    toy_mlp_scores,
)
from .merge_engine import (
    MAX_ENUMERATION_N,
    MixtureVector,
    ModelBank,
    gray_code_order,
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
    return None if score is None else dataclasses.asdict(score)


@dataclass
class SearchReport:
    records: list[ScoreRecord]
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


def _best_record(records: Sequence[ScoreRecord], objective: str) -> MixtureVector:
    """The mixture whose merged score wins under the search objective."""
    if objective == "max_accuracy":
        items, direction = ((str(r.alpha), r.merged_score.accuracy) for r in records), "maximize"
    else:
        items, direction = ((str(r.alpha), r.merged_score.mean_loss) for r in records), "minimize"
    bits, _ = best_mixture(items, direction)
    return MixtureVector.from_string(bits)


def _scores(
    alphas: Sequence[MixtureVector], blocks: list[tuple[np.ndarray, np.ndarray]], data: EvalDataset
) -> list[Score]:
    """Scores from stacked (correct, mean loss) blocks; an invalid score names its mixture."""
    correct = np.concatenate([c for c, _ in blocks]).tolist()
    losses = np.concatenate([loss for _, loss in blocks]).tolist()
    scores = []
    for alpha, c, loss in zip(alphas, correct, losses):
        try:
            scores.append(builtin_score(c, loss, data))
        except ValidationError as exc:
            raise EvaluatorError(f"evaluation failed for mixture {alpha}: {exc}") from exc
    return scores


def _checked(first: MixtureVector, ckpt: Checkpoint, target: TargetRef) -> EvalDataset:
    """The target as a dataset the toy checkpoint fits; errors name the first mixture."""
    try:
        data = _dataset(target)
        check_toy_target(ckpt, data)
    except ValidationError as exc:
        raise EvaluatorError(f"evaluation failed for mixture {first}: {exc}") from exc
    return data


def builtin_scores(
    bank: ModelBank, candidates: Sequence[MixtureVector], target: TargetRef
) -> list[Score]:
    """Builtin scores of the candidates' merged surrogates, _SCORE_BLOCK mixtures at a time.

    Bit for bit the scores of evaluate_builtin on merge_uniform; the bank's
    schema and the target are checked once.
    """
    n = len(bank)
    data = _checked(candidates[0], bank.models[0], target)
    blocks = []
    for lo in range(0, len(candidates), _SCORE_BLOCK):
        merged = merge_block(bank, [mixture_code(n, a) for a in candidates[lo : lo + _SCORE_BLOCK]])
        blocks.append(toy_mlp_scores(*(merged[name] for name in TOY_TENSORS), data))
    return _scores(candidates, blocks, data)


def checkpoint_scores(
    ckpts: Sequence[Checkpoint], alphas: Sequence[MixtureVector], target: TargetRef
) -> list[Score]:
    """Builtin scores of same-schema toy checkpoints, one per mixture, _SCORE_BLOCK per stacked pass.

    Bit for bit the scores of evaluate_builtin on each checkpoint; the first
    checkpoint and the target are checked once.
    """
    data = _checked(alphas[0], ckpts[0], target)
    blocks = []
    for lo in range(0, len(ckpts), _SCORE_BLOCK):
        block = ckpts[lo : lo + _SCORE_BLOCK]
        stacked = (np.stack([c.tensors[name] for c in block]) for name in TOY_TENSORS)
        blocks.append(toy_mlp_scores(*stacked, data))
    return _scores(alphas, blocks, data)


def _score_chunk(
    bank: ModelBank, chunk: list[MixtureVector], eval_fn: EvalFn, target: TargetRef
) -> list[ScoreRecord]:
    records = []
    for alpha, merged in subset_merges(bank, chunk):
        try:
            score = eval_fn(merged, target, alpha)
        except ExternalEvaluatorError as exc:
            raise ExternalEvaluatorError(f"mixture {alpha}: {exc}") from exc
        except Exception as exc:
            raise EvaluatorError(f"evaluation failed for mixture {alpha}: {exc}") from exc
        if not isinstance(score, Score):
            raise EvaluatorError(f"evaluation failed for mixture {alpha}: evaluator returned {type(score).__name__}")
        records.append(ScoreRecord(alpha=alpha, merged_score=score))
    return records


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
        candidates = list(config.candidates)
        if not candidates:
            raise ValidationError("candidate list must not be empty")
    else:
        if n > MAX_ENUMERATION_N:
            raise ValidationError(
                f"exhaustive enumeration over N={n} exceeds MAX_ENUMERATION_N="
                f"{MAX_ENUMERATION_N}; pass explicit candidates"
            )
        candidates = list(gray_code_order(n))

    if eval_fn is builtin_eval_fn:
        scores = builtin_scores(bank, candidates, target)
        records = [ScoreRecord(alpha=a, merged_score=s) for a, s in zip(candidates, scores)]
    elif config.jobs > 1 and len(candidates) > 1:
        jobs = min(config.jobs, len(candidates))
        step = (len(candidates) + jobs - 1) // jobs
        chunks = [candidates[i : i + step] for i in range(0, len(candidates), step)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda c: _score_chunk(bank, c, eval_fn, target), chunks))
        records = [rec for part in parts for rec in part]
    else:
        records = _score_chunk(bank, candidates, eval_fn, target)

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
