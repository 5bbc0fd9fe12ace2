"""Tests for the MTM container format and checkpoint/embedding containers.

The byte-level cases build expected files with an independent reference
serializer (struct + json only, no package code) and compare raw bytes.
"""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergemix import (
    BenchConfig,
    Checkpoint,
    EmbeddingSet,
    EvalDataset,
    FormatError,
    ModelBank,
    ValidationError,
    checkpoint_equal,
    generate_universe,
    read_checkpoint,
    read_embeddings,
    read_eval_dataset,
    validate_bank,
    write_checkpoint,
    write_embeddings,
    write_eval_dataset,
)
from mergemix import tensor_store
from mergemix.tensor_store import tensor


# ============================================================================
# Independent reference serializer
# ============================================================================


def reference_container(named_arrays, metadata=None):
    """Serialize name -> float32 array the way the format doc describes.

    Kept deliberately separate from the package implementation: header JSON
    via json.dumps with sorted keys and compact separators, length prefix
    via struct, data in name order.
    """
    header = {}
    offset = 0
    payload = b""
    for name in sorted(named_arrays):
        arr = np.ascontiguousarray(named_arrays[name], dtype=np.float32)
        raw = arr.tobytes()
        header[name] = {
            "dtype": "F32",
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + len(raw)],
        }
        offset += len(raw)
        payload += raw
    if metadata is not None:
        header["__metadata__"] = metadata
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob + payload


def raw_container(header_obj, payload):
    """Assemble arbitrary (possibly malformed) header + data bytes."""
    blob = json.dumps(header_obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob + payload


# ============================================================================
# Write path
# ============================================================================


def test_write_bytes_match_reference(tmp_path):
    """Single tensor "w" [1.0, 2.0]: bytes equal the reference serializer."""
    ckpt = Checkpoint(tensors={"w": tensor([1.0, 2.0])})
    path = tmp_path / "w.mtm"
    write_checkpoint(ckpt, path)
    data = path.read_bytes()
    assert data == reference_container({"w": np.array([1.0, 2.0], dtype=np.float32)})
    # last 8 bytes are the little-endian float32 encodings of 1.0 and 2.0
    assert data[-8:] == bytes.fromhex("0000803f00000040")
    # first 8 bytes are the header length, little-endian
    n_h = struct.unpack("<Q", data[:8])[0]
    assert 8 + n_h <= len(data)
    json.loads(data[8 : 8 + n_h])


def test_write_multi_tensor_bytes(tmp_path):
    arrays = {
        "b1": np.arange(3, dtype=np.float32),
        "a2": np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
        "zz": np.array([[2.5]], dtype=np.float32),
    }
    ckpt = Checkpoint(tensors={k: v.copy() for k, v in arrays.items()})
    path = tmp_path / "multi.mtm"
    write_checkpoint(ckpt, path)
    assert path.read_bytes() == reference_container(arrays)


def test_write_rejects_nan(tmp_path):
    ckpt = Checkpoint(tensors={"w": tensor([1.0, float("nan")])})
    with pytest.raises(ValidationError, match="non-finite value in tensor 'w'"):
        write_checkpoint(ckpt, tmp_path / "bad.mtm")


def test_write_rejects_inf(tmp_path):
    ckpt = Checkpoint(tensors={"w": tensor([float("inf")])})
    with pytest.raises(ValidationError, match="non-finite"):
        write_checkpoint(ckpt, tmp_path / "bad.mtm")


def test_failed_write_keeps_old_container(tmp_path, monkeypatch):
    """A write that fails after its header and first tensor leaves the old
    file readable and no temp file beside it."""
    path = tmp_path / "m.mtm"
    old = Checkpoint(tensors={"a": tensor([1.0, 2.0])})
    write_checkpoint(old, path)
    new = Checkpoint(tensors={"a": tensor([3.0]), "b": tensor([4.0])})
    real = np.ascontiguousarray
    written = []

    def fail_on_second_tensor(arr, dtype=None):
        written.append(arr)
        if len(written) == 2:
            raise OSError("disk full")
        return real(arr, dtype=dtype)

    monkeypatch.setattr(tensor_store.np, "ascontiguousarray", fail_on_second_tensor)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(new, path)
    monkeypatch.undo()
    assert len(written) == 2
    assert checkpoint_equal(read_checkpoint(path), old)
    assert [p.name for p in tmp_path.iterdir()] == ["m.mtm"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_read_rejects_non_finite(tmp_path, bad):
    # hand-built, since write_checkpoint refuses to write such a file
    ok = np.array([1.0, 2.0], dtype="<f4").tobytes()
    header = {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [8, 16]},
    }
    p = tmp_path / "t.mtm"
    p.write_bytes(raw_container(header, ok + np.array([0.5, bad], dtype="<f4").tobytes()))
    with pytest.raises(FormatError, match="non-finite value in tensor 'b'"):
        read_checkpoint(p)


def test_write_with_metadata_roundtrip(tmp_path):
    ckpt = Checkpoint(tensors={"w": tensor([0.5])}, metadata={"k": "v"})
    path = tmp_path / "m.mtm"
    write_checkpoint(ckpt, path)
    assert path.read_bytes() == reference_container(
        {"w": np.array([0.5], dtype=np.float32)}, metadata={"k": "v"}
    )
    back = read_checkpoint(path)
    assert back.metadata == {"k": "v"}


# ============================================================================
# Read path and round trips
# ============================================================================


def test_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(0)
    ckpt = Checkpoint(
        tensors={
            "w1": rng.standard_normal((4, 3)).astype(np.float32),
            "b1": rng.standard_normal(4).astype(np.float32),
        }
    )
    path = tmp_path / "rt.mtm"
    write_checkpoint(ckpt, path)
    back = read_checkpoint(path)
    assert checkpoint_equal(ckpt, back)
    assert back.tensors["w1"].shape == (4, 3)


def test_read_write_read_byte_identity(tmp_path):
    """read then write reproduces the file byte for byte (canonical order)."""
    arrays = {"b": np.array([1.5, -2.0], dtype=np.float32), "a": np.zeros((2, 2), np.float32)}
    p1 = tmp_path / "one.mtm"
    p1.write_bytes(reference_container(arrays))
    ckpt = read_checkpoint(p1)
    p2 = tmp_path / "two.mtm"
    write_checkpoint(ckpt, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_header(tmp_path):
    p = tmp_path / "t.mtm"
    p.write_bytes(b"\x01\x02\x03\x04")
    with pytest.raises(FormatError, match="truncated header"):
        read_checkpoint(p)


def test_header_length_exceeds_file(tmp_path):
    p = tmp_path / "t.mtm"
    p.write_bytes(struct.pack("<Q", 1000) + b"{}")
    with pytest.raises(FormatError, match="header length exceeds file size"):
        read_checkpoint(p)


def test_overlapping_offsets(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
    }
    p = tmp_path / "t.mtm"
    p.write_bytes(raw_container(header, b"\x00" * 12))
    with pytest.raises(FormatError, match="overlapping data offsets"):
        read_checkpoint(p)


def test_gapped_offsets(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
        "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
    }
    p = tmp_path / "t.mtm"
    p.write_bytes(raw_container(header, b"\x00" * 12))
    with pytest.raises(FormatError, match="gapped data offsets"):
        read_checkpoint(p)


def test_trailing_bytes_rejected(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}
    p = tmp_path / "t.mtm"
    p.write_bytes(raw_container(header, b"\x00" * 8))
    with pytest.raises(FormatError, match="does not match declared offsets"):
        read_checkpoint(p)


def test_unknown_dtype_rejected(tmp_path):
    header = {"a": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}}
    p = tmp_path / "t.mtm"
    p.write_bytes(raw_container(header, b"\x00" * 8))
    with pytest.raises(FormatError, match="unsupported element type"):
        read_checkpoint(p)


def test_extent_offset_mismatch_rejected(tmp_path):
    # declares 3 elements but reserves 8 bytes
    header = {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
    p = tmp_path / "t.mtm"
    p.write_bytes(raw_container(header, b"\x00" * 8))
    with pytest.raises(FormatError, match="shape mismatch between extents and data_offsets"):
        read_checkpoint(p)


def test_duplicate_names_rejected(tmp_path):
    blob = b'{"a":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},"a":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
    p = tmp_path / "t.mtm"
    p.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 8)
    with pytest.raises(FormatError, match="duplicate tensor name"):
        read_checkpoint(p)


def test_header_not_object_rejected(tmp_path):
    blob = b"[1,2]"
    p = tmp_path / "t.mtm"
    p.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(FormatError, match="header must be a JSON object"):
        read_checkpoint(p)


_ENTRY = {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}


@pytest.mark.parametrize(
    "blob, message",
    [
        (b'{"a": ', "invalid header JSON: "),
        (b'{"a": "\xff"}', "invalid header JSON: "),
        (json.dumps({"a": [0, 4]}).encode(), "tensor 'a': entry must be an object"),
        (json.dumps({"a": {**_ENTRY, "data_offsets": [4, 0]}}).encode(), "tensor 'a': data_offsets must be"),
        (json.dumps({"a": {**_ENTRY, "data_offsets": [0]}}).encode(), "tensor 'a': data_offsets must be"),
        (json.dumps({"a": {**_ENTRY, "data_offsets": [0, True]}}).encode(), "tensor 'a': data_offsets must be"),
        (json.dumps({"a": _ENTRY, "__metadata__": {"k": 1}}).encode(), "__metadata__ must map strings to strings"),
        (json.dumps({"a": _ENTRY, "__metadata__": ["k"]}).encode(), "__metadata__ must map strings to strings"),
    ],
    ids=["cut_json", "not_utf8", "entry_list", "offsets_reversed", "one_offset", "bool_offset",
         "metadata_number", "metadata_list"],
)
def test_read_rejects_a_malformed_header(tmp_path, blob, message):
    p = tmp_path / "t.mtm"
    p.write_bytes(struct.pack("<Q", len(blob)) + blob + b"\x00" * 4)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
        read_checkpoint(p)


def test_empty_container_rejected(tmp_path):
    p = tmp_path / "t.mtm"
    p.write_bytes(raw_container({}, b""))
    with pytest.raises(FormatError, match="no tensors"):
        read_checkpoint(p)


def test_negative_extent_rejected(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [-1], "data_offsets": [0, 4]}}
    p = tmp_path / "t.mtm"
    p.write_bytes(raw_container(header, b"\x00" * 4))
    with pytest.raises(FormatError, match="shape must be a non-empty list"):
        read_checkpoint(p)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abcdefgh_", min_size=1, max_size=6),
            st.lists(st.integers(1, 4), min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[0],
    ),
    st.integers(0, 2**31 - 1),
)
def test_roundtrip_property(tmp_path_factory, specs, seed):
    """write then read is the identity for arbitrary valid tensor maps."""
    rng = np.random.default_rng(seed)
    tensors = {
        name: rng.standard_normal(shape).astype(np.float32) for name, shape in specs
    }
    ckpt = Checkpoint(tensors=tensors)
    path = tmp_path_factory.mktemp("prop") / "p.mtm"
    write_checkpoint(ckpt, path)
    assert checkpoint_equal(ckpt, read_checkpoint(path))


def valid_containers(tmp_path):
    """The bytes of one valid checkpoint, embedding set and dataset container."""
    writes = {
        "checkpoint": lambda p: write_checkpoint(
            Checkpoint(tensors={"b": tensor([0.5, -1.0]), "w": tensor([[1.0, 2.0]] * 2)}, metadata={"k": "v"}), p
        ),
        "embeddings": lambda p: write_embeddings(EmbeddingSet(tensor([[1.0, 2.0], [3.0, 4.0]]), "e"), p),
        "dataset": lambda p: write_eval_dataset(EvalDataset(tensor([[1.0], [2.0]]), [0, 1], 2, "d"), p),
    }
    for name, write in writes.items():
        write(tmp_path / name)
    return [(tmp_path / name).read_bytes() for name in writes]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_container(draw, valid):
    """A valid container with one header value replaced, its bytes overwritten or cut, or its length prefix
    rewritten; or arbitrary bytes."""
    blob = draw(st.sampled_from(valid))
    length = struct.unpack("<Q", blob[:8])[0]
    header, payload = json.loads(blob[8 : 8 + length]), blob[8 + length :]
    how = draw(st.sampled_from(["value", "bytes", "cut", "length", "arbitrary"]))
    if how == "value":
        entry = draw(st.sampled_from(sorted(header)))
        field = draw(st.sampled_from([None, *sorted(header[entry])]))
        if field is None:
            header[entry] = draw(JSON_VALUES)
        else:
            header[entry][field] = draw(JSON_VALUES)
        return raw_container(header, payload)
    if how == "bytes":
        out = bytearray(blob)
        for at, value in draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=4)):
            out[at] = value
        return bytes(out)
    if how == "cut":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "length":
        return struct.pack("<Q", draw(st.integers(0, 2**64 - 1))) + blob[8:]
    return draw(st.binary(max_size=200))


def test_readers_raise_only_format_or_validation_errors(tmp_path):
    """Untrusted container bytes end in a value or in FormatError or
    ValidationError from each of the three readers, never in another error."""
    valid = valid_containers(tmp_path)
    path = tmp_path / "fuzz.mtm"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(mutated_container(valid))
    def check(blob):
        path.write_bytes(blob)
        for read in (read_checkpoint, read_embeddings, read_eval_dataset):
            try:
                read(path)
            except (FormatError, ValidationError):
                pass

    check()


# ============================================================================
# Checkpoint / EmbeddingSet invariants
# ============================================================================


def test_checkpoint_rejects_float64():
    with pytest.raises(ValidationError, match="float32"):
        Checkpoint(tensors={"w": np.zeros(2, dtype=np.float64)})


def test_checkpoint_rejects_scalar_shape():
    with pytest.raises(ValidationError, match="shape must be non-empty"):
        Checkpoint(tensors={"w": np.zeros((), dtype=np.float32)})


def test_checkpoint_rejects_empty_map():
    with pytest.raises(ValidationError, match="at least one tensor"):
        Checkpoint(tensors={})


def test_checkpoint_schema_and_param_count():
    ckpt = Checkpoint(tensors={"w": tensor([[1, 2], [3, 4]]), "b": tensor([5, 6])})
    assert ckpt.schema == {"w": (2, 2), "b": (2,)}
    assert ckpt.n_parameters == 6


def test_checkpoint_equal_is_bitwise():
    a = Checkpoint(tensors={"w": tensor([1.0])})
    b = Checkpoint(tensors={"w": tensor([1.0])})
    c = Checkpoint(tensors={"w": tensor([1.0 + 1e-7])})
    assert checkpoint_equal(a, b)
    assert not checkpoint_equal(a, c)


def test_checkpoint_leaves_the_callers_dict_as_it_was():
    """A strided tensor is stored as a contiguous copy in the checkpoint's own dict, not the caller's."""
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    strided = arr.T
    d = {"w": strided, "b": arr}
    ckpt = Checkpoint(tensors=d)
    assert d["w"] is strided and not d["w"].flags.c_contiguous
    assert ckpt.tensors is not d and list(ckpt.tensors) == ["w", "b"]
    assert ckpt.tensors["w"].flags.c_contiguous and np.array_equal(ckpt.tensors["w"], strided)
    assert ckpt.tensors["b"] is arr  # a contiguous tensor is not copied


_SHARED = np.arange(6, dtype=np.float32).reshape(3, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Checkpoint(tensors={"w": _SHARED}),
        lambda: EmbeddingSet(embeddings=_SHARED, source_name="e"),
        lambda: EvalDataset(features=_SHARED, labels=np.arange(3), num_classes=3, name="d"),
        lambda: ModelBank(models=[Checkpoint(tensors={"w": _SHARED})]),
        lambda: generate_universe(
            BenchConfig(
                num_datasets=2, num_clusters=2, clusters_per_dataset=1, samples_per_dataset=10,
                num_targets=1, clusters_per_target=1,
            )
        ),
    ],
    ids=["Checkpoint", "EmbeddingSet", "EvalDataset", "ModelBank", "Universe"],
)
def test_array_holders_compare_by_identity(build):
    """== and in never ask an array for its truth value: two holders of the same arrays are still two."""
    a, b = build(), build()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]


def test_embeddings_roundtrip(tmp_path):
    emb = EmbeddingSet(
        embeddings=np.arange(6, dtype=np.float32).reshape(3, 2), source_name="D1"
    )
    path = tmp_path / "e.mtm"
    write_embeddings(emb, path)
    back = read_embeddings(path)
    assert back.source_name == "D1"
    assert np.array_equal(back.embeddings, emb.embeddings)


def test_embeddings_must_be_2d():
    with pytest.raises(ValidationError, match="2-D"):
        EmbeddingSet(embeddings=np.zeros(3, dtype=np.float32), source_name="x")


def test_embedding_container_needs_embeddings_tensor(tmp_path):
    ckpt = Checkpoint(tensors={"weights": tensor([[1.0]])})
    path = tmp_path / "notemb.mtm"
    write_checkpoint(ckpt, path)
    with pytest.raises(FormatError, match="exactly one tensor named 'embeddings'"):
        read_embeddings(path)


def test_embedding_container_needs_a_2d_tensor(tmp_path):
    path = tmp_path / "flat.mtm"
    write_checkpoint(Checkpoint(tensors={"embeddings": tensor([1.0, 2.0])}), path)
    with pytest.raises(FormatError, match="'embeddings' tensor must be 2-D"):
        read_embeddings(path)


# ============================================================================
# validate_bank
# ============================================================================


def test_validate_bank_common_schema():
    a = Checkpoint(tensors={"w": tensor([[1, 2], [3, 4]])})
    b = Checkpoint(tensors={"w": tensor([[0, 0], [0, 0]])})
    assert validate_bank([a, b]) == {"w": (2, 2)}


def test_validate_bank_shape_mismatch():
    a = Checkpoint(tensors={"w": tensor([1, 2])})
    b = Checkpoint(tensors={"w": tensor([1, 2, 3])})
    with pytest.raises(ValidationError, match="shape mismatch at w"):
        validate_bank([a, b])


def test_validate_bank_name_mismatch():
    a = Checkpoint(tensors={"w": tensor([1, 2])})
    b = Checkpoint(tensors={"v": tensor([1, 2])})
    with pytest.raises(ValidationError, match="tensor name mismatch"):
        validate_bank([a, b])


def test_validate_bank_empty():
    with pytest.raises(ValidationError, match="at least one checkpoint"):
        validate_bank([])
