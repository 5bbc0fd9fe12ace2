"""Uniform and weighted checkpoint merging over dataset mixtures.

A mixture selects datasets (and their fine-tuned checkpoints) by position.
Inside the package it is an int code of N bits, dataset 1 the most
significant. At the edges it is the code's text, e.g. "10110": code_bits
writes it, and bits_code, the one validator of a mixture's text, reads it.

The uniform merge of k selected models is, per parameter, float32(s / k),
where s is the exact sum of the k float32 values rounded once to float64
and the division is a float64 division.

A bank certifies once which parameters sum exactly in float64 over any
subset of its models, in any order: those whose exponent spread over the N
models is at most 29 - ceil(log2 N). The other parameters take math.fsum.
Every merge lays the P parameters out flat, tensors in schema order. One
walk, subset_merges, keeps a running float64 [P] sum from the empty mixture
to each mixture in turn; merge_uniform is its one step from the empty
mixture, and the merge_block kernel sums by BLAS. All three share one
exact-sum fix-up and agree bit for bit, however a mixture was reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .tensor_store import Checkpoint, TensorSchema, validate_bank

# the one limit on N wherever all 2^N - 1 mixtures are enumerated
MAX_ENUMERATION_N = 20

# parameters per column chunk of the exactness check; bounds its temporaries
_CERTIFY_CHUNK = 1 << 16

# float32 significand bits (24) plus the exponent spread and the carry bits
# of an N-term sum must fit float64's 53
_EXACT_SPREAD = 29


@dataclass(eq=False)
class ModelBank:
    """N same-schema checkpoints, one per dataset, in dataset order; the schema is read from them."""

    models: tuple[Checkpoint, ...]
    names: list[str] = field(default_factory=list)
    schema: TensorSchema = field(init=False)

    def __post_init__(self) -> None:
        self.models = tuple(self.models)  # frozen, so the caches below cannot go stale
        self.schema = validate_bank(self.models)
        if not self.names:
            self.names = [f"dataset_{i + 1}" for i in range(len(self.models))]
        if len(self.names) != len(self.models):
            raise ValidationError("bank names must match the number of models")

    def __len__(self) -> int:
        return len(self.models)

    @cached_property
    def inexact(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat indices whose float64 sums may round, and their [N, u] values.

        Computed once, per tensor in column chunks, so a large bank needs no
        full-size temporaries; usually there are none.
        """
        idx, values = zip(*(_certify(self.models, name, lo) for name, lo in zip(self.schema, _bounds(self.schema))))
        return np.concatenate(idx), np.concatenate(values, axis=1)

    @cached_property
    def flat64(self) -> np.ndarray:
        """The bank as one [N, P] float64 array (built on first use)."""
        rows = [np.concatenate([m.tensors[name].reshape(-1) for name in self.schema]) for m in self.models]
        return np.stack(rows).astype(np.float64)


def _bounds(schema: TensorSchema) -> list[int]:
    """The flat index where each tensor starts, in schema order, then the parameter count."""
    return [0, *accumulate(math.prod(shape) for shape in schema.values())]


def _split(schema: TensorSchema, flat: np.ndarray) -> dict[str, np.ndarray]:
    """A [..., P] array as {name: [..., *shape]} views, in schema order."""
    b, lead = _bounds(schema), flat.shape[:-1]
    return {name: flat[..., lo:hi].reshape(*lead, *schema[name]) for name, lo, hi in zip(schema, b, b[1:])}


def _certify(models: Sequence[Checkpoint], name: str, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """One tensor's parameters that fail the exact-sum bound: their flat indices from offset, and values.

    A nonzero float32 with biased exponent e (1 for subnormals) is a multiple
    of 2^(e - 150) below 2^(e - 126), so a sum of N of them is exact in
    float64 when max e - min e <= 29 - ceil(log2 N). Zeros are exact anyway;
    an Inf or NaN (e = 255) never certifies.
    """
    limit = _EXACT_SPREAD - (len(models) - 1).bit_length()
    flats = [m.tensors[name].reshape(-1) for m in models]
    bad = []
    for lo in range(0, flats[0].size, _CERTIFY_CHUNK):
        top = low = None
        for flat in flats:
            chunk = flat[lo : lo + _CERTIFY_CHUNK]
            e = np.maximum((chunk.view(np.uint32) >> 23) & 0xFF, 1).astype(np.int16)
            e_low = np.where(chunk != 0, e, 255)
            top = e if top is None else np.maximum(top, e, out=top)
            low = e_low if low is None else np.minimum(low, e_low, out=low)
        bad.append(np.flatnonzero((top == 255) | (top - low > limit)) + lo)
    idx = np.concatenate(bad)
    return idx + offset, np.stack([flat[idx] for flat in flats]).astype(np.float64)


def _fsum(values: np.ndarray) -> float:
    """math.fsum, with IEEE's NaN where it refuses Inf + -Inf."""
    try:
        return math.fsum(values.tolist())
    except ValueError:
        return math.nan


def _exact_sums(values: np.ndarray, selected: Sequence[int] | np.ndarray) -> np.ndarray:
    """Per column of [N, u] values, the fsum of the selected rows."""
    rows = values[np.asarray(selected, dtype=np.intp)]
    return np.array([_fsum(rows[:, j]) for j in range(rows.shape[1])], dtype=np.float64)


def code_bits(n: int, code: int) -> str:
    """The text form of the mixture with this code over n datasets, e.g. "10110"."""
    return format(code, f"0{n}b")


def bits_code(n: int, bits: str) -> int:
    """The code of a mixture's text form over n datasets; the inverse of code_bits.

    bits must be a str of n characters, each "0" or "1", with at least one
    "1". The characters are checked here, since int(bits, 2) alone accepts
    "1_01", "+101", " 101" and non-ASCII digits.
    """
    if not isinstance(bits, str) or not bits or bits.strip("01"):
        raise ValidationError(f"invalid mixture string {bits!r}")
    if len(bits) != n:
        raise ValidationError(f"mixture length {len(bits)} does not match bank size {n}")
    if "1" not in bits:
        raise ValidationError("empty mixture: at least one dataset must be selected")
    return int(bits, 2)


def code_datasets(n: int, code: int) -> list[int]:
    """0-based positions of the datasets a mixture code over n datasets selects, ascending."""
    return [i for i in range(n) if code >> (n - 1 - i) & 1]


def _mean32(total: np.ndarray, k) -> np.ndarray:
    """float32(total / k): a float64 division rounded once to float32, with no float64 temporary."""
    return np.divide(total, k, out=np.empty(np.shape(total), dtype=np.float32), casting="same_kind")


def _fix_inexact(bank: ModelBank, mean: np.ndarray, selected: Sequence[int] | np.ndarray) -> None:
    """Write float32(fsum / k) of the k selected models into a flat [P] mean's uncertified parameters."""
    idx, values = bank.inexact
    mean[idx] = _mean32(_exact_sums(values, selected), len(selected))


def merge_uniform(bank: ModelBank, bits: str) -> Checkpoint:
    """Parameter-wise arithmetic mean of the checkpoints a mixture selects, e.g. "101".

    It is the subset_merges walk's one step from the empty mixture.
    """
    return next(subset_merges(bank, [bits]))[1]


def merge_block(bank: ModelBank, codes: Sequence[int]) -> dict[str, np.ndarray]:
    """Uniform merges of many mixtures at once, as [B, *shape] float32 views of one [B, P] block.

    codes are valid mixture codes (see code_bits). The sums are one BLAS
    call, masks @ bank.flat64: the mask entries are 0 or 1, so every product
    is exact, and so is every certified sum, in whatever order it runs. Each
    row's uncertified parameters, if any, take merge_uniform's fix-up.
    """
    n = len(bank)
    masks = (np.asarray(codes, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    counts = masks.sum(axis=1)
    merged = _mean32(masks.astype(np.float64) @ bank.flat64, counts[:, None])
    if bank.inexact[0].size:
        for row, mask in zip(merged, masks):
            _fix_inexact(bank, row, np.flatnonzero(mask))
    return _split(bank.schema, merged)


def merge_weighted(bank: ModelBank, weights: Sequence[float]) -> Checkpoint:
    """Convex combination with the given non-negative weights (normalized).

    Equal positive weights are the uniform merge of their support, so they
    reproduce merge_uniform bit for bit.
    """
    if len(weights) != len(bank):
        raise ValidationError(f"got {len(weights)} weights for bank of size {len(bank)}")
    ws = [float(w) for w in weights]
    if any(not np.isfinite(w) or w < 0.0 for w in ws):
        raise ValidationError("weights must be finite and non-negative")
    total = sum(ws)
    if total == math.inf:  # finite weights whose sum overflows: rescale, keeping their ratios
        ws = (np.array(ws) / max(ws)).tolist()
        total = sum(ws)
    if total <= 0.0:
        raise ValidationError("weights must not be all zero")
    positive = [w for w in ws if w > 0.0]
    if all(w == positive[0] for w in positive):
        return merge_uniform(bank, "".join("1" if w > 0.0 else "0" for w in ws))
    acc = np.zeros(bank.models[0].n_parameters, dtype=np.float64)
    for name, part in _split(bank.schema, acc).items():
        for i, w in enumerate(ws):
            if w != 0.0:
                part += (w / total) * bank.models[i].tensors[name].astype(np.float64)
    return Checkpoint(tensors=_split(bank.schema, acc.astype(np.float32)))


def gray_codes(n: int) -> np.ndarray:
    """The 2^n - 1 non-empty mixture codes (see code_bits) in Gray-code order.

    The i-th code is the binary-reflected Gray code i ^ (i >> 1), i >= 1:
    consecutive codes differ in exactly one bit, and the first has exactly
    one bit set. Every enumeration of mixtures reads this array.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValidationError(f"enumeration supports 1 <= N <= {MAX_ENUMERATION_N}, got {n}")
    i = np.arange(1, 1 << n, dtype=np.int64)
    return i ^ (i >> 1)


def gray_rank(code: int) -> int:
    """The position of a mixture code in gray_codes order, counted from 1: the inverse Gray code.

    The rank is the XOR of code >> k over all k, folded in doubling shifts.
    """
    rank, shift = code, 1
    while shift < code.bit_length():
        rank ^= rank >> shift
        shift <<= 1
    return rank


def gray_code_order(n: int) -> Iterator[str]:
    """The bit strings of gray_codes(n), in that order."""
    for code in gray_codes(n).tolist():
        yield code_bits(n, code)


def subset_merges(bank: ModelBank, order: Iterable[str]) -> Iterator[tuple[str, Checkpoint]]:
    """Stream (bits, merged checkpoint) pairs over an arbitrary order of mixture bit strings.

    One flat float64 [P] sum starts at zero, the empty mixture. At each
    mixture its per-tensor views first subtract the models that leave, then
    add the models that join, each in dataset order: one model on a one-bit
    flip, none on a repeat, several on a jump. Every intermediate is a sum
    over a subset of the bank, exact for a certified parameter, so the
    running sum is the mixture's exact sum however it was reached; the fix-up
    writes the uncertified ones. Each emission's tensors are views of one
    float32 [P] buffer, the merge_uniform of its mixture bit for bit.
    """
    n = len(bank)
    total = np.zeros(bank.models[0].n_parameters, dtype=np.float64)
    views = _split(bank.schema, total)
    prev_code = 0
    for bits in order:
        code = bits_code(n, bits)
        for moved, update in ((prev_code & ~code, np.subtract), (code & ~prev_code, np.add)):
            for j in code_datasets(n, moved):
                for name, view in views.items():
                    update(view, bank.models[j].tensors[name], out=view)
        prev_code = code
        selected = code_datasets(n, code)
        mean = _mean32(total, len(selected))
        _fix_inexact(bank, mean, selected)
        yield bits, Checkpoint(tensors=_split(bank.schema, mean))
