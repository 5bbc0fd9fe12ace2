"""Merge algebra tests: uniform/weighted averaging, Gray-code enumeration,
and the incremental subset-merge stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergemix import (
    Checkpoint,
    MixtureVector,
    ModelBank,
    ValidationError,
    checkpoint_equal,
    gray_code_order,
    merge_uniform,
    merge_weighted,
    subset_merges,
)
from mergemix.merge_engine import MAX_ENUMERATION_N
from mergemix.tensor_store import tensor


def make_bank(n, shapes=None, seed=0, scale=1.0):
    shapes = shapes or {"w": (3, 2), "b": (3,)}
    rng = np.random.default_rng(seed)
    models = [
        Checkpoint(
            tensors={
                name: (scale * rng.standard_normal(shape)).astype(np.float32)
                for name, shape in shapes.items()
            }
        )
        for _ in range(n)
    ]
    return ModelBank(models=models)


# ============================================================================
# MixtureVector
# ============================================================================


def test_mixture_vector_text_form():
    v = MixtureVector.from_string("10110")
    assert str(v) == "10110"
    assert v.n_selected == 3
    assert v.selected == (0, 2, 3)


def test_mixture_vector_from_indices():
    assert str(MixtureVector.from_indices([0, 2], 3)) == "101"


def test_mixture_vector_rejects_junk():
    with pytest.raises(ValidationError):
        MixtureVector.from_string("10a")
    with pytest.raises(ValidationError):
        MixtureVector.from_string("")


# ============================================================================
# merge_uniform
# ============================================================================


def test_singleton_identity_bitwise():
    bank = make_bank(3)
    for i in range(3):
        alpha = MixtureVector.from_indices([i], 3)
        merged = merge_uniform(bank, alpha)
        assert checkpoint_equal(merged, bank.models[i])


def test_pair_mean_example():
    """Two models with "w" = [1,3] and [3,5] average to [2,4]."""
    a = Checkpoint(tensors={"w": tensor([1.0, 3.0])})
    b = Checkpoint(tensors={"w": tensor([3.0, 5.0])})
    bank = ModelBank(models=[a, b])
    merged = merge_uniform(bank, MixtureVector.from_string("11"))
    assert np.array_equal(merged.tensors["w"], np.array([2.0, 4.0], dtype=np.float32))


def test_permutation_invariance():
    bank = make_bank(4, seed=3)
    alpha = MixtureVector.from_string("1011")
    direct = merge_uniform(bank, alpha)
    perm = [2, 0, 3, 1]
    bank_p = ModelBank(models=[bank.models[p] for p in perm])
    bits_p = [0] * 4
    for new_pos, old_pos in enumerate(perm):
        bits_p[new_pos] = alpha.bits[old_pos]
    merged_p = merge_uniform(bank_p, MixtureVector(bits=tuple(bits_p)))
    assert checkpoint_equal(direct, merged_p)


def test_merge_rejects_empty_mixture():
    bank = make_bank(2)
    with pytest.raises(ValidationError):
        merge_uniform(bank, MixtureVector(bits=(0, 0)))


def test_merge_rejects_length_mismatch():
    bank = make_bank(2)
    with pytest.raises(ValidationError, match="length"):
        merge_uniform(bank, MixtureVector.from_string("111"))


def test_convexity_elementwise():
    bank = make_bank(5, seed=11, scale=100.0)
    alpha = MixtureVector.from_string("11101")
    merged = merge_uniform(bank, alpha)
    sel = [bank.models[i] for i in alpha.selected]
    for name in merged.tensors:
        stack = np.stack([m.tensors[name] for m in sel]).astype(np.float64)
        lo, hi = stack.min(axis=0), stack.max(axis=0)
        got = merged.tensors[name].astype(np.float64)
        eps = 1e-6 * np.maximum(1.0, np.abs(got))
        assert np.all(got >= lo - eps) and np.all(got <= hi + eps)


# ============================================================================
# merge_weighted
# ============================================================================


def test_weighted_scalar_example():
    """Models 0.0 and 4.0 with weights (0.25, 0.75) average to 3.0."""
    a = Checkpoint(tensors={"w": tensor([0.0])})
    b = Checkpoint(tensors={"w": tensor([4.0])})
    merged = merge_weighted(ModelBank(models=[a, b]), [0.25, 0.75])
    assert merged.tensors["w"][0] == np.float32(3.0)


def test_weighted_degenerate_selects_first():
    bank = make_bank(2, seed=5)
    merged = merge_weighted(bank, [1.0, 0.0])
    assert checkpoint_equal(merged, bank.models[0])


def test_weighted_uniform_support_equals_merge_uniform():
    """Equal weights over a support reduce to the uniform merge, bitwise."""
    bank = make_bank(4, seed=9)
    merged_w = merge_weighted(bank, [0.7, 0.0, 0.7, 0.7])
    merged_u = merge_uniform(bank, MixtureVector.from_string("1011"))
    assert checkpoint_equal(merged_w, merged_u)


def test_weighted_normalizes():
    a = Checkpoint(tensors={"w": tensor([0.0])})
    b = Checkpoint(tensors={"w": tensor([6.0])})
    merged = merge_weighted(ModelBank(models=[a, b]), [2.0, 4.0])
    assert merged.tensors["w"][0] == pytest.approx(4.0, rel=1e-6)


def test_weighted_error_cases():
    bank = make_bank(2)
    with pytest.raises(ValidationError):
        merge_weighted(bank, [0.0, 0.0])
    with pytest.raises(ValidationError):
        merge_weighted(bank, [-0.1, 1.0])
    with pytest.raises(ValidationError):
        merge_weighted(bank, [1.0])


# ============================================================================
# gray_code_order
# ============================================================================


def reference_gray(n):
    """Independent oracle: g(i) = i XOR (i >> 1), MSB-first text form."""
    out = []
    for i in range(1, 2**n):
        g = i ^ (i >> 1)
        out.append(format(g, f"0{n}b"))
    return out


def test_gray_n1():
    assert [str(v) for v in gray_code_order(1)] == ["1"]


def test_gray_n2_pinned():
    assert [str(v) for v in gray_code_order(2)] == ["01", "11", "10"]


def test_gray_n3_pinned():
    assert [str(v) for v in gray_code_order(3)] == [
        "001",
        "011",
        "010",
        "110",
        "111",
        "101",
        "100",
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_gray_matches_reference(n):
    seq = list(gray_code_order(n))
    assert [str(v) for v in seq] == reference_gray(n)
    assert seq == [MixtureVector.from_string(bits) for bits in reference_gray(n)]
    assert all(type(b) is int for v in seq for b in v.bits)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_gray_properties(n):
    seq = list(gray_code_order(n))
    assert len(seq) == 2**n - 1
    assert len({str(v) for v in seq}) == len(seq)
    assert seq[0].n_selected == 1
    for a, b in zip(seq, seq[1:]):
        diff = sum(x != y for x, y in zip(a.bits, b.bits))
        assert diff == 1
    for v in seq:
        assert v.n_selected >= 1


def test_gray_out_of_range():
    with pytest.raises(ValidationError):
        list(gray_code_order(0))
    with pytest.raises(ValidationError):
        list(gray_code_order(MAX_ENUMERATION_N + 1))


# ============================================================================
# subset_merges
# ============================================================================


def test_subset_merges_matches_direct_n3():
    bank = make_bank(3, seed=21)
    for alpha, merged in subset_merges(bank, gray_code_order(3)):
        direct = merge_uniform(bank, alpha)
        for name in direct.tensors:
            a = merged.tensors[name].astype(np.float64)
            d = direct.tensors[name].astype(np.float64)
            rel = np.abs(a - d) / np.maximum(1e-12, np.abs(d))
            assert rel.max() <= 1e-6


def test_subset_merges_singleton_emissions_bitwise():
    """Length-1 orders must reproduce merge_uniform exactly."""
    bank = make_bank(4, seed=2)
    alpha = MixtureVector.from_string("0100")
    items = list(subset_merges(bank, [alpha]))
    assert len(items) == 1
    assert checkpoint_equal(items[0][1], bank.models[1])


def test_subset_merges_handles_jumps():
    """Two-bit jumps force the recompute path; results stay correct."""
    bank = make_bank(4, seed=8)
    order = [
        MixtureVector.from_string("1000"),
        MixtureVector.from_string("0011"),
        MixtureVector.from_string("1111"),
        MixtureVector.from_string("0100"),
    ]
    for alpha, merged in subset_merges(bank, order):
        direct = merge_uniform(bank, alpha)
        for name in direct.tensors:
            np.testing.assert_allclose(
                merged.tensors[name], direct.tensors[name], rtol=1e-6, atol=1e-7
            )


def test_subset_merges_recomputes_unless_one_bit_flips():
    """The first item, a repeat and a two-bit jump are full merges, bit for bit;
    a one-bit flip updates the running sum (dataset 1 leaves, dataset 3 joins)."""
    bank = make_bank(4, seed=5)
    order = [MixtureVector.from_string(b) for b in ("0110", "0110", "1010", "1011", "1001")]
    items = list(subset_merges(bank, order))
    assert [a for a, _ in items] == order
    for alpha, merged in items[:3]:
        assert checkpoint_equal(merged, merge_uniform(bank, alpha))
    for alpha, merged in items[3:]:
        direct = merge_uniform(bank, alpha)
        for name in direct.tensors:
            np.testing.assert_allclose(merged.tensors[name], direct.tensors[name], rtol=1e-6, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_subset_merges_property(n, seed):
    """Every Gray-order emission agrees with direct recomputation."""
    bank = make_bank(n, shapes={"w": (2, 2)}, seed=seed)
    for alpha, merged in subset_merges(bank, gray_code_order(n)):
        direct = merge_uniform(bank, alpha)
        np.testing.assert_allclose(
            merged.tensors["w"], direct.tensors["w"], rtol=1e-6, atol=1e-7
        )


def test_bank_names_default_and_custom():
    bank = make_bank(2)
    assert bank.names == ["dataset_1", "dataset_2"]
    named = ModelBank(models=bank.models, names=["a", "b"])
    assert named.names == ["a", "b"]
    with pytest.raises(ValidationError):
        ModelBank(models=bank.models, names=["only_one"])
