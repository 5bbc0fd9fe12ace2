"""Uniform and weighted checkpoint merging over dataset mixtures.

A mixture is a fixed-length 0/1 vector selecting datasets (and their
fine-tuned checkpoints) by position. Merging averages the selected
checkpoints parameter-wise, accumulating in float64 and rounding to float32
on output; the summation order is fixed (ascending dataset index) so results
are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .tensor_store import Checkpoint, TensorSchema, validate_bank

# full recomputation interval for incremental subset merging
REFRESH_INTERVAL = 1 << 12

MAX_ENUMERATION_N = 30

# bits as bytes 0/1 -> ASCII "0"/"1", for reading a mixture as an int code
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class MixtureVector:
    """Selection vector over N datasets; bits[k] selects dataset k+1.

    The canonical text form writes index 1 leftmost, e.g. "10110".
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.bits, tuple):
            object.__setattr__(self, "bits", tuple(self.bits))
        if len(self.bits) < 1:
            raise ValidationError("mixture must have length >= 1")
        if any(b not in (0, 1) for b in self.bits):
            raise ValidationError("mixture bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "MixtureVector":
        if not text or any(c not in "01" for c in text):
            raise ValidationError(f"invalid mixture string {text!r}")
        return cls(tuple(int(c) for c in text))

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "MixtureVector":
        """Build from 0-based dataset positions."""
        bits = [0] * n
        for i in indices:
            if not 0 <= i < n:
                raise ValidationError(f"dataset index {i} out of range for N={n}")
            bits[i] = 1
        return cls(tuple(bits))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def n_selected(self) -> int:
        return sum(self.bits)

    @property
    def selected(self) -> tuple[int, ...]:
        """0-based positions of selected datasets, ascending."""
        return tuple(i for i, b in enumerate(self.bits) if b)


@dataclass
class ModelBank:
    """N same-schema checkpoints, one per dataset, in dataset order."""

    models: list[Checkpoint]
    names: list[str] = field(default_factory=list)
    schema: TensorSchema = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.schema = validate_bank(self.models)
        if not self.names:
            self.names = [f"dataset_{i + 1}" for i in range(len(self.models))]
        if len(self.names) != len(self.models):
            raise ValidationError("bank names must match the number of models")

    def __len__(self) -> int:
        return len(self.models)


def _check_alpha(bank_size: int, alpha: MixtureVector) -> None:
    if len(alpha) != bank_size:
        raise ValidationError(f"mixture length {len(alpha)} does not match bank size {bank_size}")
    if alpha.n_selected == 0:
        raise ValidationError("empty mixture: at least one dataset must be selected")


def _combine(bank: ModelBank, weights: Sequence[float]) -> Checkpoint:
    """Linear combination of bank models; float64 accumulation, float32 output.

    Summation runs left to right over ascending dataset index; zero-weight
    models are skipped entirely.
    """
    out: dict[str, np.ndarray] = {}
    for name in bank.models[0].tensors:
        acc = np.zeros(bank.schema[name], dtype=np.float64)
        for i, w in enumerate(weights):
            if w != 0.0:
                acc += w * bank.models[i].tensors[name].astype(np.float64)
        out[name] = acc.astype(np.float32)
    return Checkpoint(tensors=out)


def merge_uniform(bank: ModelBank, alpha: MixtureVector) -> Checkpoint:
    """Parameter-wise arithmetic mean of the checkpoints selected by alpha."""
    _check_alpha(len(bank), alpha)
    k = alpha.n_selected
    w = 1.0 / k
    return _combine(bank, [w if b else 0.0 for b in alpha.bits])


def merge_weighted(bank: ModelBank, weights: Sequence[float]) -> Checkpoint:
    """Convex combination with the given non-negative weights (normalized).

    Equal positive weights normalize to exactly 1/k, so uniform weights
    reproduce merge_uniform bit-for-bit.
    """
    if len(weights) != len(bank):
        raise ValidationError(f"got {len(weights)} weights for bank of size {len(bank)}")
    ws = [float(w) for w in weights]
    if any(not np.isfinite(w) or w < 0.0 for w in ws):
        raise ValidationError("weights must be finite and non-negative")
    total = sum(ws)
    if total <= 0.0:
        raise ValidationError("weights must not be all zero")
    positive = [w for w in ws if w > 0.0]
    if all(w == positive[0] for w in positive):
        share = 1.0 / len(positive)
        norm = [share if w > 0.0 else 0.0 for w in ws]
    else:
        norm = [w / total for w in ws]
    return _combine(bank, norm)


def _bit_tuples(width: int) -> list[tuple[int, ...]]:
    """The bits of every width-bit value, most significant first, indexed by value."""
    return [tuple((v >> s) & 1 for s in reversed(range(width))) for v in range(1 << width)]


def gray_code_order(n: int) -> Iterator[MixtureVector]:
    """All 2^n - 1 non-empty mixtures in binary-reflected Gray-code order.

    Consecutive mixtures differ in exactly one bit; the first has exactly one
    bit set. The all-zero prefix of the raw code is skipped.
    """
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValidationError(f"enumeration supports 1 <= N <= {MAX_ENUMERATION_N}, got {n}")
    # a code's bits are the bits of its high part, then of its low part
    low = n // 2
    high_bits, low_bits = _bit_tuples(n - low), _bit_tuples(low)
    for i in range(1, 1 << n):
        g = i ^ (i >> 1)
        yield MixtureVector(high_bits[g >> low] + low_bits[g & ((1 << low) - 1)])


def subset_merges(
    bank: ModelBank, order: Iterable[MixtureVector]
) -> Iterator[tuple[MixtureVector, Checkpoint]]:
    """Stream (alpha, merged checkpoint) pairs over an arbitrary mixture order.

    Between consecutive mixtures differing in one bit, a running float64
    parameter sum is updated by adding or subtracting a single model; any
    multi-bit jump, the first item, and every REFRESH_INTERVAL-th emission
    fall back to full recomputation to cap drift.
    """
    names = list(bank.models[0].tensors)
    sums: dict[str, np.ndarray] = {}
    prev_code: int | None = None
    since_refresh = 0

    def as64(i: int, name: str) -> np.ndarray:
        return bank.models[i].tensors[name].astype(np.float64)

    for alpha in order:
        _check_alpha(len(bank), alpha)
        code = int(bytes(alpha.bits).translate(_ASCII_BITS), 2)
        flipped = 0 if prev_code is None else code ^ prev_code
        if flipped.bit_count() != 1 or since_refresh >= REFRESH_INTERVAL:
            sums = {name: sum((as64(i, name) for i in alpha.selected), start=np.zeros(bank.schema[name])) for name in names}
            merged = merge_uniform(bank, alpha)
            since_refresh = 0
        else:
            j = len(bank) - flipped.bit_length()
            sign = 1.0 if alpha.bits[j] else -1.0
            for name in names:
                sums[name] = sums[name] + sign * as64(j, name)
            k = alpha.n_selected
            merged = Checkpoint(tensors={name: (sums[name] / k).astype(np.float32) for name in names})
        prev_code = code
        since_refresh += 1
        yield alpha, merged
