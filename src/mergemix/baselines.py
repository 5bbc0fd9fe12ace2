"""Mixture-selection baselines: embedding similarity and all-data.

Similarity metrics compare a target embedding set against the pooled
embeddings of a candidate mixture (the multiset union of the selected
datasets' rows). Cosine kinds are maximized, L2 kinds minimized. Raw
embeddings are not L2-normalized before distance computation; cosine kinds
normalize internally by definition.
"""

from __future__ import annotations

import enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import MergeMixError, ValidationError
from .merge_engine import MixtureVector, code_bits, gray_codes, gray_rank
from .mixture_search import best_of_codes
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
    # scipy is loaded here, not at import: only the L2 kinds need it
    try:
        from scipy.spatial.distance import cdist
    except ImportError as exc:
        raise MergeMixError(f"similarity metric {metric.value} needs scipy: {exc}") from None
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


# the lattice pass holds one block of 2^LATTICE_BLOCK_BITS masks at a time
LATTICE_BLOCK_BITS = 10


def _lattice(rows: np.ndarray, op: np.ufunc) -> np.ndarray:
    """op folded over the rows of every subset, indexed by mask (bit b is rows[b]).

    Masks in [2^k, 2^(k+1)) are op(masks [0, 2^k), rows[k]), so each subset
    folds its rows in ascending order. Entry 0, the empty subset, is unset.
    """
    acc = np.empty((1 << len(rows), rows.shape[1]))
    for k, row in enumerate(rows):
        lo = 1 << k
        acc[lo] = row
        op(acc[1:lo], row, out=acc[lo + 1 : 2 * lo])
    return acc


def _mask_values(rows: np.ndarray, op: np.ufunc, finish) -> np.ndarray:
    """finish(folded rows, first mask) of every non-empty mask, indexed by mask.

    The masks split into a low part of at most LATTICE_BLOCK_BITS bits and a
    high part. Each high part starts from a copy of the low lattice and folds
    its own rows on top in ascending order, so every subset still folds its
    rows in ascending order while only one block is held at a time.
    """
    n = len(rows)
    low_bits = min(n, LATTICE_BLOCK_BITS)
    low = _lattice(rows[:low_bits], op)[1:]
    high = _lattice(rows[low_bits:], op)
    out = np.empty(1 << n)
    out[1 : 1 << low_bits] = finish(low, 1)
    for h in range(1, len(high)):
        base = h << low_bits
        out[base] = finish(high[h : h + 1], base)[0]
        block = low.copy()
        for b in range(n - low_bits):
            if h >> b & 1:
                op(block, rows[low_bits + b], out=block)
        out[base + 1 : base + (1 << low_bits)] = finish(block, base + 1)
    return out


class SimilarityTable(Mapping[str, float]):
    """A read-only Mapping from the bit strings of all 2^n - 1 non-empty mixtures to scores.

    scores[i] belongs to the mixture gray_codes(n)[i], and keys iterate in
    that order, formatted when read. A lookup parses its key to a code and
    finds the entry by its Gray rank. Values are Python floats, and
    copy.deepcopy gives the items as a plain dict, the form to edit.
    """

    __slots__ = ("n", "scores")

    def __init__(self, n: int, scores: np.ndarray) -> None:
        self.n = n
        self.scores = scores

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[str]:
        return (code_bits(self.n, code) for code in gray_codes(self.n).tolist())

    def __getitem__(self, key: str) -> float:
        if not isinstance(key, str) or len(key) != self.n or key.strip("01") or "1" not in key:
            raise KeyError(key)
        return self.scores[gray_rank(int(key, 2)) - 1].item()

    def __repr__(self) -> str:
        return f"SimilarityTable(n={self.n}, {len(self)} mixtures)"

    def __deepcopy__(self, memo: dict) -> dict[str, float]:
        return dict(self)


def similarity_table(
    target: EmbeddingSet, per_dataset: Sequence[EmbeddingSet], metric: SimilarityMetric
) -> SimilarityTable:
    """Score every non-empty mixture; keys are canonical bit strings in Gray-code order.

    Per-dataset statistics are precomputed once and composed over the
    subset lattice, so each mixture's pooled score costs no pooled-row scan.
    """
    if not per_dataset:
        raise ValidationError("need at least one dataset embedding set")
    n = len(per_dataset)
    codes = gray_codes(n)
    # a code holds dataset 0 as its most significant bit; a lattice mask holds dataset b in bit b
    masks = sum(((codes >> (n - 1 - b)) & 1) << b for b in range(n))
    pairs = [_pairwise(target, ds, metric) for ds in per_dataset]
    op = np.maximum if metric.direction == "maximize" else np.minimum
    reduce = np.max if metric.direction == "maximize" else np.min
    if metric in (SimilarityMetric.AVG_MAX_COS, SimilarityMetric.AVG_MIN_L2):
        rows = np.stack([reduce(p, axis=1) for p in pairs])  # [N, t]

        def finish(block, first):
            return block.mean(axis=1)

    elif metric in (SimilarityMetric.AVG_AVG_COS, SimilarityMetric.AVG_AVG_L2):
        op = np.add
        rows = np.stack([p.sum(axis=1) for p in pairs])  # [N, t]
        sizes = np.array([[p.shape[1]] for p in pairs], dtype=np.float64)
        pooled = _lattice(sizes, np.add)[:, 0]  # pooled row count per mask

        def finish(block, first):
            return (block / pooled[first : first + len(block), None]).mean(axis=1)

    else:
        rows = np.array([[reduce(p)] for p in pairs])  # [N, 1]

        def finish(block, first):
            return block[:, 0]

    scores = _mask_values(rows, op, finish)[masks]
    scores.setflags(write=False)
    return SimilarityTable(n, scores)


def select_from_table(table: SimilarityTable, direction: str) -> tuple[MixtureVector, float]:
    """Best mixture in a similarity table under best_of_codes's tie-break.

    direction is "maximize" or "minimize".
    """
    if not table:
        raise ValidationError("empty score table")
    bits, value = best_of_codes(table.n, gray_codes(table.n), table.scores, direction)
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
