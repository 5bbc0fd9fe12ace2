"""Mixture-selection baselines: embedding similarity, all-data, random mean.

Similarity metrics compare a target embedding set against the pooled
embeddings of a candidate mixture (the multiset union of the selected
datasets' rows). Cosine kinds are maximized, L2 kinds minimized. Raw
embeddings are not L2-normalized before distance computation; cosine kinds
normalize internally by definition.
"""

from __future__ import annotations

import enum
import math
from typing import Mapping, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ValidationError
from .evaluator import Score
from .merge_engine import MixtureVector, gray_code_order
from .mixture_search import best_mixture
from .tensor_store import EmbeddingSet


class SimilarityMetric(enum.Enum):
    """Six set-to-set similarity kinds over embedding rows."""

    AVG_MAX_COS = "avg_max_cos"
    AVG_MIN_L2 = "avg_min_l2"
    AVG_AVG_COS = "avg_avg_cos"
    AVG_AVG_L2 = "avg_avg_l2"
    MAX_MAX_COS = "max_max_cos"
    MIN_MIN_L2 = "min_min_l2"

    @property
    def direction(self) -> str:
        """"maximize" for cosine kinds, "minimize" for L2 kinds."""
        return "maximize" if self.value.endswith("_cos") else "minimize"

    @classmethod
    def from_name(cls, name: str) -> "SimilarityMetric":
        try:
            return cls(name)
        except ValueError:
            raise ValidationError(
                f"unknown similarity metric {name!r}; choose from "
                f"{[m.value for m in cls]}"
            ) from None


def _unit_rows(arr: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms == 0.0):
        raise ValidationError(f"zero-norm row in {what}: cosine similarity undefined")
    return arr / norms[:, None]


def _pairwise(target: EmbeddingSet, mixture: EmbeddingSet, metric: SimilarityMetric) -> np.ndarray:
    t = target.embeddings.astype(np.float64)
    s = mixture.embeddings.astype(np.float64)
    if t.shape[1] != s.shape[1]:
        raise ValidationError(
            f"embedding dims differ: target {t.shape[1]} vs mixture {s.shape[1]}"
        )
    if metric.direction == "maximize":
        return _unit_rows(t, "target embeddings") @ _unit_rows(s, "mixture embeddings").T
    return cdist(t, s)


def similarity_score(target: EmbeddingSet, mixture: EmbeddingSet, metric: SimilarityMetric) -> float:
    """Score one pooled mixture embedding set against the target."""
    pair = _pairwise(target, mixture, metric)
    if metric is SimilarityMetric.AVG_MAX_COS:
        return float(pair.max(axis=1).mean())
    if metric is SimilarityMetric.AVG_MIN_L2:
        return float(pair.min(axis=1).mean())
    if metric is SimilarityMetric.AVG_AVG_COS or metric is SimilarityMetric.AVG_AVG_L2:
        return float(pair.mean())
    if metric is SimilarityMetric.MAX_MAX_COS:
        return float(pair.max())
    return float(pair.min())


def similarity_table(
    target: EmbeddingSet, per_dataset: Sequence[EmbeddingSet], metric: SimilarityMetric
) -> dict[str, float]:
    """Score every non-empty mixture; keys are canonical bit strings.

    Per-dataset statistics are precomputed once, so each mixture's pooled
    score costs O(N) instead of re-scanning pooled rows.
    """
    if not per_dataset:
        raise ValidationError("need at least one dataset embedding set")
    n = len(per_dataset)
    pairs = [_pairwise(target, ds, metric) for ds in per_dataset]
    sizes = np.array([p.shape[1] for p in pairs], dtype=np.float64)

    # per-dataset reductions that compose across a mixture
    per_row = None
    per_row_sum = None
    scalars = None
    if metric is SimilarityMetric.AVG_MAX_COS:
        per_row = np.stack([p.max(axis=1) for p in pairs])  # [N, t]
    elif metric is SimilarityMetric.AVG_MIN_L2:
        per_row = np.stack([p.min(axis=1) for p in pairs])
    elif metric in (SimilarityMetric.AVG_AVG_COS, SimilarityMetric.AVG_AVG_L2):
        per_row_sum = np.stack([p.sum(axis=1) for p in pairs])  # [N, t]
    elif metric is SimilarityMetric.MAX_MAX_COS:
        scalars = np.array([p.max() for p in pairs])
    else:
        scalars = np.array([p.min() for p in pairs])

    table: dict[str, float] = {}
    for alpha in gray_code_order(n):
        sel = list(alpha.selected)
        if per_row is not None:
            rows = per_row[sel]
            value = rows.max(axis=0).mean() if metric.direction == "maximize" else rows.min(axis=0).mean()
        elif per_row_sum is not None:
            value = (per_row_sum[sel].sum(axis=0) / sizes[sel].sum()).mean()
        else:
            value = scalars[sel].max() if metric.direction == "maximize" else scalars[sel].min()
        table[str(alpha)] = float(value)
    return table


def select_from_table(table: Mapping[str, float], direction: str) -> tuple[MixtureVector, float]:
    """Best mixture in a bits->score table under best_mixture's tie-break.

    direction is "maximize" or "minimize".
    """
    if not table:
        raise ValidationError("empty score table")
    bits, value = best_mixture(table.items(), direction)
    return MixtureVector.from_string(bits), float(value)


def similarity_select(
    target: EmbeddingSet, per_dataset: Sequence[EmbeddingSet], metric: SimilarityMetric
) -> tuple[MixtureVector, float]:
    """Best mixture under the metric's direction, search tie-break rule."""
    table = similarity_table(target, per_dataset, metric)
    return select_from_table(table, metric.direction)


def all_datasets_vector(n: int) -> MixtureVector:
    """The all-ones mixture selecting every dataset."""
    if n < 1:
        raise ValidationError("N must be >= 1")
    return MixtureVector(tuple([1] * n))


def _accuracy_of(value) -> float:
    acc = value.accuracy if isinstance(value, Score) else float(value)
    if not 0.0 <= acc <= 1.0:
        raise ValidationError(f"accuracy out of range: {acc}")
    return acc


def random_selection_mean(scores: Mapping, exact: bool = True) -> float:
    """Expected accuracy of a uniformly random non-empty mixture.

    In exact mode the map must cover all 2^N - 1 mixtures; otherwise the
    provided entries are treated as a Monte Carlo sample and averaged as-is.
    """
    if not scores:
        raise ValidationError("scores map must not be empty")
    accs = []
    lengths = set()
    seen = set()
    for key, value in scores.items():
        alpha = key if isinstance(key, MixtureVector) else MixtureVector.from_string(str(key))
        if alpha.n_selected == 0:
            raise ValidationError("empty mixture in scores map")
        bits = str(alpha)
        if bits in seen:
            raise ValidationError(f"duplicate mixture {bits}")
        seen.add(bits)
        lengths.add(len(alpha))
        accs.append(_accuracy_of(value))
    if len(lengths) != 1:
        raise ValidationError("scores map mixes mixture lengths")
    if exact:
        n = lengths.pop()
        expected = (1 << n) - 1
        if len(accs) != expected:
            raise ValidationError(
                f"exact mode needs all {expected} mixtures for N={n}, got {len(accs)}"
            )
    return math.fsum(accs) / len(accs)
