"""Mixture-selection baseline by embedding similarity.

Similarity metrics compare a target embedding set against the pooled
embeddings of a candidate mixture (the multiset union of the selected
datasets' rows). Cosine kinds are maximized, L2 kinds minimized. Raw
embeddings are not L2-normalized before distance computation; cosine kinds
normalize internally by definition. A SimilarityTable holds every mixture's
score under one metric, selects in that metric's direction and serializes
itself as a report, like SearchReport and CorrelationReport.
"""

from __future__ import annotations

import enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .merge_engine import bits_code, code_bits, gray_codes, gray_rank, mixture_rows
from .mixture_search import best_row
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
    return _euclidean(t, s)


def _euclidean(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """L2 distances [len(t), len(s)] between float64 rows, with the bits of a euclidean cdist.

    Each distance starts at 0.0, adds (t_j - s_j)**2 for the dimensions j in
    order and takes one square root, the order cdist sums in. numpy's own
    reductions (sum, norm, einsum, vecdot) sum in another order and can
    differ in the last bits.

    The differences t_j - s_j come from the rank-2 product [t_j, 1] @ [1, -s_j].
    Both products are exact, so in any order the two-term sum is t_j - s_j
    rounded once, as a subtraction rounds it (up to the sign of a zero, which
    the square drops). BLAS writes it several times faster than a broadcast subtract.
    """
    dim = t.shape[1]
    left = np.ones((dim, len(t), 2))
    left[:, :, 0] = t.T
    right = np.ones((dim, 2, len(s)))
    np.negative(s.T, out=right[:, 1])
    acc = np.zeros((len(t), len(s)))
    diff = np.empty_like(acc)
    for left_j, right_j in zip(left, right):
        np.matmul(left_j, right_j, out=diff)
        np.square(diff, out=diff)
        acc += diff
    return np.sqrt(acc, out=acc)


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
    """A read-only Mapping from the bit strings of all 2^n - 1 non-empty mixtures to their metric scores.

    scores[i] belongs to the mixture gray_codes(n)[i], and keys iterate in
    that order, formatted when read. A lookup parses its key with bits_code,
    so a bad key raises KeyError, and finds the entry by its Gray rank.
    Values are Python floats, and dict(table), like copy.deepcopy, gives the
    items as a plain dict, the form to edit. As a report, its CSV rows are
    in ascending bit order and its JSON names the metric and the best mixture.
    """

    __slots__ = ("n", "scores", "metric")

    def __init__(self, n: int, scores: np.ndarray, metric: SimilarityMetric) -> None:
        self.n = n
        self.scores = scores
        self.metric = metric

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self) -> Iterator[str]:
        return (code_bits(self.n, code) for code in gray_codes(self.n).tolist())

    def __getitem__(self, key: str) -> float:
        try:
            code = bits_code(self.n, key)
        except ValidationError:
            raise KeyError(key) from None
        return self.scores[gray_rank(code) - 1].item()

    def __repr__(self) -> str:
        return f"SimilarityTable(n={self.n}, {len(self)} mixtures)"

    def __deepcopy__(self, memo: dict) -> dict[str, float]:
        return dict(self)

    def csv_header(self) -> list[str]:
        return ["mixture_bits", "metric", "score"]

    def csv_rows(self) -> Iterator[list]:
        """One row per mixture in ascending bit order, made as it is written; bit strings of one length
        sort as their codes, and the sorted codes are 1 .. 2^n - 1."""
        rows = mixture_rows(self.n, np.arange(1, 1 << self.n), self.scores[np.argsort(gray_codes(self.n))])
        return ([bits, self.metric.value, repr(s)] for bits, _, s in rows)

    def to_json_obj(self) -> dict:
        best_alpha, best_score = select_from_table(self)
        return {
            "metric": self.metric.value,
            "direction": self.metric.direction,
            "best_alpha": best_alpha,
            "best_score": best_score,
            "scores": {bits: s for bits, _, s in mixture_rows(self.n, gray_codes(self.n), self.scores)},
        }


def similarity_table(
    target: EmbeddingSet, per_dataset: Sequence[EmbeddingSet], metric: SimilarityMetric
) -> SimilarityTable:
    """Score every non-empty mixture; keys are canonical bit strings in Gray-code order.

    Per-dataset statistics are precomputed once and composed over the
    subset lattice, so each mixture's pooled score costs no pooled-row scan.
    """
    return similarity_tables(target, per_dataset, [metric])[0]


def similarity_tables(
    target: EmbeddingSet, per_dataset: Sequence[EmbeddingSet], metrics: Sequence[SimilarityMetric]
) -> list[SimilarityTable]:
    """similarity_table of each of metrics, in their order, from one distance matrix per dataset and kind.

    The cosine metrics share one matrix per dataset and the L2 metrics
    another, and only one kind's matrices are held at a time.
    """
    if not per_dataset:
        raise ValidationError("need at least one dataset embedding set")
    n = len(per_dataset)
    codes = gray_codes(n)
    # a code holds dataset 0 as its most significant bit; a lattice mask holds dataset b in bit b
    masks = sum(((codes >> (n - 1 - b)) & 1) << b for b in range(n))
    tables = {}
    for direction in ("maximize", "minimize"):
        kind = [metric for metric in metrics if metric.direction == direction]
        if not kind:
            continue
        pairs = [_pairwise(target, ds, kind[0]) for ds in per_dataset]
        for metric in kind:
            scores = _mask_scores(pairs, metric)[masks]
            scores.setflags(write=False)
            tables[metric] = SimilarityTable(n, scores, metric)
        del pairs  # freed before the other kind's matrices are built
    return [tables[metric] for metric in metrics]


def _mask_scores(pairs: list[np.ndarray], metric: SimilarityMetric) -> np.ndarray:
    """metric's score of every non-empty mixture, indexed by lattice mask, from its kind's matrices."""
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

    return _mask_values(rows, op, finish)


def select_from_table(table: SimilarityTable) -> tuple[str, float]:
    """The bits and the score of the best mixture in a similarity table, by best_row's tie-break.

    The table's metric sets the direction. The score is the winner's own
    entry, so a -0.0 keeps its sign.
    """
    if not table:
        raise ValidationError("empty score table")
    codes = gray_codes(table.n)
    row = best_row(codes, table.scores, table.metric.direction)
    return code_bits(table.n, int(codes[row])), table.scores[row].item()
