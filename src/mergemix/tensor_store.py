"""Self-describing binary container for float32 checkpoints and embedding sets.

File layout (version 1):
  bytes [0, 8)        u64 little-endian header length N
  bytes [8, 8+N)      UTF-8 JSON header: tensor name -> {"dtype": "F32",
                      "shape": [...], "data_offsets": [begin, end]}, plus an
                      optional "__metadata__" string-to-string map
  bytes [8+N, end)    data region; offsets are relative to its start,
                      ascending and gap-free

Values are little-endian IEEE-754 float32 in row-major order. Version 1
stores float32 only. Canonical files order header keys lexicographically so
identical checkpoints serialize to identical bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .errors import FormatError, ValidationError

DTYPE_TAG = "F32"
METADATA_KEY = "__metadata__"
_ITEM_SIZE = 4

# name -> shape for a whole checkpoint
TensorSchema = dict[str, tuple[int, ...]]


def tensor(values, shape=None) -> np.ndarray:
    """Build a C-contiguous float32 array, the tensor representation used here."""
    arr = np.asarray(values, dtype=np.float32)
    if shape is not None:
        arr = arr.reshape(shape)
    return np.ascontiguousarray(arr)


def _check_tensor(name: str, arr: np.ndarray) -> None:
    if not isinstance(arr, np.ndarray) or arr.dtype != np.float32:
        raise ValidationError(f"tensor '{name}': element type must be float32")
    if arr.ndim == 0:
        raise ValidationError(f"tensor '{name}': shape must be non-empty")
    if any(int(e) <= 0 for e in arr.shape):
        raise ValidationError(f"tensor '{name}': extents must be positive, got {tuple(arr.shape)}")


def _check_metadata(metadata) -> None:
    if metadata is None:
        return
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ValidationError("metadata must map strings to strings")


@dataclass(eq=False)
class Checkpoint:
    """An ordered map of named float32 tensors plus optional string metadata.

    == is identity; checkpoint_equal compares contents. The checkpoint holds
    its own dict, so the caller's dict is never rewritten.
    """

    tensors: dict[str, np.ndarray]
    metadata: dict[str, str] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tensors, dict) or not self.tensors:
            raise ValidationError("checkpoint must hold at least one tensor")
        tensors = {}
        for name, arr in self.tensors.items():
            if not isinstance(name, str) or not name:
                raise ValidationError("tensor names must be non-empty strings")
            _check_tensor(name, arr)
            tensors[name] = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        _check_metadata(self.metadata)
        self.tensors = tensors

    @property
    def schema(self) -> TensorSchema:
        return {name: tuple(arr.shape) for name, arr in self.tensors.items()}

    @property
    def n_parameters(self) -> int:
        return sum(arr.size for arr in self.tensors.values())


def checkpoint_equal(a: Checkpoint, b: Checkpoint) -> bool:
    """Field-for-field equality: same names, shapes, bit-identical values, same metadata."""
    if set(a.tensors) != set(b.tensors):
        return False
    for name, arr in a.tensors.items():
        other = b.tensors[name]
        if arr.shape != other.shape or arr.tobytes() != other.tobytes():
            return False
    return (a.metadata or {}) == (b.metadata or {})


@dataclass(eq=False)
class EmbeddingSet:
    """A [num_samples, dim] float32 matrix of embeddings from one source."""

    embeddings: np.ndarray
    source_name: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.embeddings)
        if arr.ndim != 2 or arr.dtype != np.float32:
            raise ValidationError("embeddings must be a 2-D float32 array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("embeddings must have at least one row and one column")
        if not np.isfinite(arr).all():
            raise ValidationError("non-finite value in embeddings")
        self.embeddings = np.ascontiguousarray(arr)
        if not isinstance(self.source_name, str) or not self.source_name:
            raise ValidationError("source_name must be a non-empty string")


def _canonical_header_bytes(ckpt: Checkpoint) -> tuple[bytes, list[str]]:
    names = sorted(ckpt.tensors)
    header: dict = {}
    offset = 0
    for name in names:
        arr = ckpt.tensors[name]
        nbytes = arr.size * _ITEM_SIZE
        header[name] = {
            "dtype": DTYPE_TAG,
            "shape": [int(e) for e in arr.shape],
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    if ckpt.metadata is not None:
        header[METADATA_KEY] = dict(ckpt.metadata)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return raw, names


@contextlib.contextmanager
def atomic_open(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a new file beside path for writing; rename it over path on success.

    A write that fails leaves path as it was and no temp file behind. Text
    files are opened without newline translation.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Serialize a checkpoint canonically and atomically. Rejects non-finite values."""
    for name, arr in ckpt.tensors.items():
        if not np.isfinite(arr).all():
            raise ValidationError(f"non-finite value in tensor '{name}'")
    header, names = _canonical_header_bytes(ckpt)
    with atomic_open(path, binary=True) as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for name in names:
            fh.write(np.ascontiguousarray(ckpt.tensors[name], dtype="<f4").tobytes())


def _parse_header(raw: bytes) -> dict:
    def reject_duplicates(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise FormatError(f"duplicate tensor name '{key}'")
            seen[key] = value
        return seen

    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=reject_duplicates)
    except FormatError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"invalid header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")
    return header


def _parse_entry(name: str, entry) -> tuple[tuple[int, ...], int, int]:
    if not isinstance(entry, dict):
        raise FormatError(f"tensor '{name}': entry must be an object")
    dtype = entry.get("dtype")
    if dtype != DTYPE_TAG:
        raise FormatError(f"tensor '{name}': unsupported element type '{dtype}'")
    shape = entry.get("shape")
    if (
        not isinstance(shape, list)
        or not shape
        or not all(isinstance(e, int) and not isinstance(e, bool) and e > 0 for e in shape)
    ):
        raise FormatError(f"tensor '{name}': shape must be a non-empty list of positive integers")
    offsets = entry.get("data_offsets")
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or not all(isinstance(o, int) and not isinstance(o, bool) and o >= 0 for o in offsets)
        or offsets[1] < offsets[0]
    ):
        raise FormatError(f"tensor '{name}': data_offsets must be [begin, end] with 0 <= begin <= end")
    begin, end = offsets
    if end - begin != math.prod(shape) * _ITEM_SIZE:
        raise FormatError(f"tensor '{name}': shape mismatch between extents and data_offsets")
    return tuple(shape), begin, end


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Parse and validate a container file.

    Malformed files raise FormatError, as do NaN or Inf values, which
    write_checkpoint never writes.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 8:
        raise FormatError("truncated header")
    (header_len,) = struct.unpack("<Q", blob[:8])
    if 8 + header_len > len(blob):
        raise FormatError("header length exceeds file size")
    header = _parse_header(blob[8 : 8 + header_len])

    metadata = header.pop(METADATA_KEY, None)
    if metadata is not None and (
        not isinstance(metadata, dict)
        or not all(isinstance(k, str) and isinstance(v, str) for k, v in metadata.items())
    ):
        raise FormatError("__metadata__ must map strings to strings")
    if not header:
        raise FormatError("container holds no tensors")

    entries = {name: _parse_entry(name, entry) for name, entry in header.items()}
    region_size = len(blob) - 8 - header_len

    # the declared extents must tile the data region exactly
    cursor = 0
    for name, (_, begin, end) in sorted(entries.items(), key=lambda kv: kv[1][1]):
        if begin < cursor:
            raise FormatError(f"overlapping data offsets at tensor '{name}'")
        if begin > cursor:
            raise FormatError(f"gapped data offsets before tensor '{name}'")
        cursor = end
    if cursor != region_size:
        raise FormatError("data region size does not match declared offsets")

    tensors: dict[str, np.ndarray] = {}
    base = 8 + header_len
    for name, (shape, begin, end) in entries.items():
        flat = np.frombuffer(blob, dtype="<f4", count=(end - begin) // _ITEM_SIZE, offset=base + begin)
        arr = flat.astype(np.float32).reshape(shape)
        if not np.isfinite(arr).all():
            raise FormatError(f"non-finite value in tensor '{name}'")
        tensors[name] = arr
    return Checkpoint(tensors=tensors, metadata=dict(metadata) if metadata else None)


def write_embeddings(embs: EmbeddingSet, path: str | Path) -> None:
    """Store an embedding set as a container with the single tensor "embeddings"."""
    ckpt = Checkpoint(
        tensors={"embeddings": embs.embeddings},
        metadata={"source_name": embs.source_name},
    )
    write_checkpoint(ckpt, path)


def read_embeddings(path: str | Path) -> EmbeddingSet:
    ckpt = read_checkpoint(path)
    if set(ckpt.tensors) != {"embeddings"}:
        raise FormatError("embedding container must hold exactly one tensor named 'embeddings'")
    arr = ckpt.tensors["embeddings"]
    if arr.ndim != 2:
        raise FormatError("'embeddings' tensor must be 2-D")
    name = (ckpt.metadata or {}).get("source_name") or Path(path).stem
    return EmbeddingSet(embeddings=arr, source_name=name)


def validate_bank(checkpoints: list[Checkpoint]) -> TensorSchema:
    """Check that all checkpoints share one schema; return it.

    Raises ValidationError naming the first mismatch (names compared in
    lexicographic order).
    """
    if not checkpoints:
        raise ValidationError("bank must hold at least one checkpoint")
    schema = checkpoints[0].schema
    names = sorted(schema)
    for idx, ckpt in enumerate(checkpoints[1:], start=1):
        other = ckpt.schema
        if set(other) != set(schema):
            missing = sorted(set(schema) ^ set(other))
            raise ValidationError(f"tensor name mismatch at checkpoint {idx}: '{missing[0]}'")
        for name in names:
            if other[name] != schema[name]:
                raise ValidationError(
                    f"shape mismatch at {name}: checkpoint 0 has {schema[name]}, "
                    f"checkpoint {idx} has {other[name]}"
                )
    return schema
