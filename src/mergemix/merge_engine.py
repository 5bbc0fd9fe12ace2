"""Uniform and weighted checkpoint merging over dataset mixtures.

A mixture is a fixed-length 0/1 vector selecting datasets (and their
fine-tuned checkpoints) by position. The uniform merge of k selected models
is, per parameter, float32(s / k), where s is the exact sum of the k float32
values rounded once to float64 and the division is a float64 division.

A bank certifies once which parameters sum exactly in float64 whatever the
order: those whose exponent spread over the N models is at most
29 - ceil(log2 N). The other parameters take math.fsum. merge_uniform, the
subset_merges walk and the merge_block kernel therefore agree bit for bit,
however a mixture was reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .tensor_store import Checkpoint, TensorSchema, validate_bank

# the one limit on N wherever all 2^N - 1 mixtures are enumerated
MAX_ENUMERATION_N = 20

# bits as bytes 0/1 -> ASCII "0"/"1": the text form of a mixture, and back
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")

# parameters per column chunk of the exactness check; bounds its temporaries
_CERTIFY_CHUNK = 1 << 16

# float32 significand bits (24) plus the exponent spread and the carry bits
# of an N-term sum must fit float64's 53
_EXACT_SPREAD = 29


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
        if not set(self.bits) <= {0, 1}:
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
        return bytes(self.bits).translate(_ASCII_BITS).decode()

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
    _inexact: dict[str, tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _flat64: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.schema = validate_bank(self.models)
        if not self.names:
            self.names = [f"dataset_{i + 1}" for i in range(len(self.models))]
        if len(self.names) != len(self.models):
            raise ValidationError("bank names must match the number of models")

    def __len__(self) -> int:
        return len(self.models)

    @property
    def inexact(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per tensor: the flat indices whose float64 sums may round, and their [N, u] values.

        Computed once, in column chunks, so a large bank needs no full-size
        temporaries; usually every index array is empty.
        """
        if self._inexact is None:
            self._inexact = {name: _certify(self.models, name) for name in self.schema}
        return self._inexact

    @property
    def flat64(self) -> np.ndarray:
        """The bank as one [N, P] float64 array, tensors in schema order (built on first use)."""
        if self._flat64 is None:
            rows = [np.concatenate([m.tensors[name].reshape(-1) for name in self.schema]) for m in self.models]
            self._flat64 = np.stack(rows).astype(np.float64)
        return self._flat64


def _certify(models: list[Checkpoint], name: str) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of one tensor that fail the exact-sum bound, and their values.

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
    return idx, np.stack([flat[idx] for flat in flats]).astype(np.float64)


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


def _check_alpha(bank_size: int, alpha: MixtureVector) -> None:
    if len(alpha) != bank_size:
        raise ValidationError(f"mixture length {len(alpha)} does not match bank size {bank_size}")
    if alpha.n_selected == 0:
        raise ValidationError("empty mixture: at least one dataset must be selected")


def mixture_code(bank_size: int, alpha: MixtureVector) -> int:
    """A valid mixture as an int: dataset 1 is the most significant of N bits."""
    _check_alpha(bank_size, alpha)
    return int(str(alpha), 2)


def code_bits(n: int, code: int) -> str:
    """The text form of the mixture with this code (see mixture_code), e.g. "10110"."""
    return format(code, f"0{n}b")


def code_mixture(n: int, code: int) -> MixtureVector:
    """The mixture with this code over n datasets; the inverse of mixture_code."""
    if not 0 < code < 1 << n:
        raise ValidationError(f"mixture code {code} out of range for N={n}")
    return MixtureVector(tuple(code_bits(n, code).encode().translate(_BITS_FROM_ASCII)))


def _sums(bank: ModelBank, selected: Sequence[int]) -> dict[str, np.ndarray]:
    """Per tensor, the float64 sum of the selected models in ascending dataset order."""
    sums = {}
    for name, shape in bank.schema.items():
        acc = np.zeros(shape, dtype=np.float64)
        for i in selected:
            np.add(acc, bank.models[i].tensors[name], out=acc)
        sums[name] = acc
    return sums


def _mean32(total: np.ndarray, k) -> np.ndarray:
    """float32(total / k): a float64 division rounded once to float32, with no float64 temporary."""
    return np.divide(total, k, out=np.empty(np.shape(total), dtype=np.float32), casting="same_kind")


def _merged(bank: ModelBank, sums: dict[str, np.ndarray], selected: Sequence[int]) -> Checkpoint:
    """float32(sum / k) per tensor, with the uncertified parameters summed by fsum."""
    k = len(selected)
    out = {}
    for name, total in sums.items():
        mean = _mean32(total, k)
        idx, values = bank.inexact[name]
        if idx.size:
            mean.reshape(-1)[idx] = _mean32(_exact_sums(values, selected), k)
        out[name] = mean
    return Checkpoint(tensors=out)


def merge_uniform(bank: ModelBank, alpha: MixtureVector) -> Checkpoint:
    """Parameter-wise arithmetic mean of the checkpoints selected by alpha."""
    _check_alpha(len(bank), alpha)
    return _merged(bank, _sums(bank, alpha.selected), alpha.selected)


def merge_block(bank: ModelBank, codes: Sequence[int]) -> dict[str, np.ndarray]:
    """Uniform merges of many mixtures at once, as [B, *shape] float32 tensors.

    codes are valid mixture codes (see mixture_code). The sums are one BLAS
    call, masks @ bank.flat64: the mask entries are 0 or 1, so every product
    is exact, and so is every certified sum, in whatever order it runs. An
    uncertified parameter takes float32(fsum / k), as in merge_uniform.
    """
    n = len(bank)
    masks = (np.asarray(codes, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    counts = masks.sum(axis=1)
    merged = _mean32(masks.astype(np.float64) @ bank.flat64, counts[:, None])
    out, offset = {}, 0
    for name, shape in bank.schema.items():
        size = math.prod(shape)
        part = merged[:, offset : offset + size]
        idx, values = bank.inexact[name]
        if idx.size:
            for row, mask, k in zip(part, masks, counts):
                row[idx] = _mean32(_exact_sums(values, np.flatnonzero(mask)), k)
        out[name] = part.reshape(len(masks), *shape)
        offset += size
    return out


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
    if total <= 0.0:
        raise ValidationError("weights must not be all zero")
    positive = [w for w in ws if w > 0.0]
    if all(w == positive[0] for w in positive):
        return merge_uniform(bank, MixtureVector(tuple(int(w > 0.0) for w in ws)))
    out: dict[str, np.ndarray] = {}
    for name, shape in bank.schema.items():
        acc = np.zeros(shape, dtype=np.float64)
        for i, w in enumerate(ws):
            if w != 0.0:
                acc += (w / total) * bank.models[i].tensors[name].astype(np.float64)
        out[name] = acc.astype(np.float32)
    return Checkpoint(tensors=out)


def gray_codes(n: int) -> np.ndarray:
    """The 2^n - 1 non-empty mixture codes (see mixture_code) in Gray-code order.

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


def gray_code_order(n: int) -> Iterator[MixtureVector]:
    """All 2^n - 1 non-empty mixtures in the order of gray_codes(n)."""
    for code in gray_codes(n).tolist():
        yield code_mixture(n, code)


def subset_merges(
    bank: ModelBank, order: Iterable[MixtureVector]
) -> Iterator[tuple[MixtureVector, Checkpoint]]:
    """Stream (alpha, merged checkpoint) pairs over an arbitrary mixture order.

    Between consecutive mixtures differing in one bit, a running float64
    parameter sum adds or subtracts a single model; the first item, a repeat
    and any multi-bit jump sum the selected models afresh. Each emission is
    the merge_uniform of its mixture, bit for bit.
    """
    sums: dict[str, np.ndarray] = {}
    prev_code: int | None = None
    for alpha in order:
        code = mixture_code(len(bank), alpha)
        flipped = 0 if prev_code is None else code ^ prev_code
        if flipped.bit_count() != 1:
            sums = _sums(bank, alpha.selected)
        else:
            j = len(bank) - flipped.bit_length()
            update = np.add if alpha.bits[j] else np.subtract
            for name, total in sums.items():
                update(total, bank.models[j].tensors[name], out=total)
        prev_code = code
        yield alpha, _merged(bank, sums, alpha.selected)
