"""Merge algebra tests: uniform/weighted averaging, Gray-code enumeration,
and the incremental subset-merge stream."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergemix import (
    Checkpoint,
    ModelBank,
    ValidationError,
    checkpoint_equal,
    gray_code_order,
    merge_uniform,
    merge_weighted,
    subset_merges,
)
from mergemix.baselines import SimilarityMetric, SimilarityTable
from mergemix.merge_engine import (
    MAX_ENUMERATION_N,
    bits_code,
    code_bits,
    code_datasets,
    gray_codes,
    gray_rank,
    merge_block,
    mixture_rows,
)
from mergemix.mixture_search import SearchConfig
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


def selected(bits):
    """0-based positions of the datasets a mixture's bits select."""
    return [i for i, bit in enumerate(bits) if bit == "1"]


# ============================================================================
# a mixture's text: code_bits and bits_code
# ============================================================================


def test_bits_code_inverts_code_bits():
    assert bits_code(5, "10110") == 0b10110
    assert code_bits(5, 0b10110) == "10110"
    assert code_bits(3, 1) == "001"


@pytest.mark.parametrize("n", range(1, 6))
def test_mixture_rows_are_code_bits_and_bit_count(n):
    """Every report row starts with its code's text and size, then the
    columns' values of the same row, as Python objects."""
    codes = gray_codes(n)
    scores = np.linspace(0.0, 1.0, len(codes))
    rows = list(mixture_rows(n, codes, scores, -scores))
    assert rows == [
        (code_bits(n, code), code.bit_count(), s, -s) for code, s in zip(codes.tolist(), scores.tolist())
    ]
    assert all(type(n_selected) is int and type(s) is float for _, n_selected, s, _ in rows)


def test_mixture_rows_reject_a_column_of_another_length():
    with pytest.raises(ValueError):
        list(mixture_rows(2, gray_codes(2), np.zeros(2)))
    with pytest.raises(ValueError):
        list(mixture_rows(2, gray_codes(2), np.zeros(3), np.zeros(4)))


def test_mixture_rows_of_no_codes_yield_nothing():
    assert list(mixture_rows(3, np.array([], dtype=np.int64), np.array([]))) == []
    assert list(mixture_rows(3, [])) == []


# each bad text with the message every edge raises for it, at n = 3
BAD_MIXTURES = [
    ("", "invalid mixture string"),
    ("1", "length"),
    ("000", "empty mixture"),
    ("012", "invalid mixture string"),
    ("1_01", "invalid mixture string"),
    ("+101", "invalid mixture string"),
    (" 101", "invalid mixture string"),
    ("\u0661\u0660\u0661", "invalid mixture string"),  # Arabic-Indic digits: int(s, 2) reads 5
    (101, "invalid mixture string"),
]
BAD_IDS = ["empty", "short", "zeros", "digit-2", "underscore", "plus", "space", "arabic-indic", "int"]


@pytest.mark.parametrize("bits, message", BAD_MIXTURES, ids=BAD_IDS)
def test_bad_mixture_text_is_rejected_at_every_edge(bits, message):
    """bits_code is the one validator: merge_uniform, subset_merges and
    SearchConfig raise its ValidationError, and a similarity table's lookup
    its KeyError."""
    bank = make_bank(3)
    with pytest.raises(ValidationError, match=message):
        bits_code(3, bits)
    with pytest.raises(ValidationError, match=message):
        merge_uniform(bank, bits)
    with pytest.raises(ValidationError, match=message):
        list(subset_merges(bank, ["101", bits]))
    with pytest.raises(ValidationError, match=message):
        SearchConfig(candidates=["101", bits])
    table = SimilarityTable(3, np.arange(7.0), SimilarityMetric.AVG_MAX_COS)
    with pytest.raises(KeyError):
        table[bits]
    assert bits not in table


# ============================================================================
# merge_uniform
# ============================================================================


def test_singleton_identity_bitwise():
    bank = make_bank(3)
    for i in range(3):
        merged = merge_uniform(bank, code_bits(3, 1 << (2 - i)))
        assert checkpoint_equal(merged, bank.models[i])


def test_pair_mean_example():
    """Two models with "w" = [1,3] and [3,5] average to [2,4]."""
    a = Checkpoint(tensors={"w": tensor([1.0, 3.0])})
    b = Checkpoint(tensors={"w": tensor([3.0, 5.0])})
    bank = ModelBank(models=[a, b])
    merged = merge_uniform(bank, "11")
    assert np.array_equal(merged.tensors["w"], np.array([2.0, 4.0], dtype=np.float32))


def test_permutation_invariance():
    bank = make_bank(4, seed=3)
    alpha = "1011"
    direct = merge_uniform(bank, alpha)
    perm = [2, 0, 3, 1]
    bank_p = ModelBank(models=[bank.models[p] for p in perm])
    merged_p = merge_uniform(bank_p, "".join(alpha[p] for p in perm))
    assert checkpoint_equal(direct, merged_p)


def test_merge_rejects_empty_mixture():
    bank = make_bank(2)
    with pytest.raises(ValidationError, match="empty mixture"):
        merge_uniform(bank, "00")


def test_merge_rejects_length_mismatch():
    bank = make_bank(2)
    with pytest.raises(ValidationError, match="length"):
        merge_uniform(bank, "111")


def test_convexity_elementwise():
    bank = make_bank(5, seed=11, scale=100.0)
    alpha = "11101"
    merged = merge_uniform(bank, alpha)
    sel = [bank.models[i] for i in selected(alpha)]
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
    """Equal weights over a support reduce to the uniform merge, bitwise,
    including for supports whose size is not a power of two."""
    bank = make_bank(6, shapes={"w": (8, 8)}, seed=9)
    cases = [
        ([0.7, 0.0, 0.7, 0.7, 0.0, 0.0], "101100"),
        ([2.0] * 6, "111111"),
        ([0, 5, 0, 5, 5, 5], "010111"),
    ]
    for weights, bits in cases:
        merged_w = merge_weighted(bank, weights)
        merged_u = merge_uniform(bank, bits)
        assert checkpoint_equal(merged_w, merged_u)


def test_weighted_normalizes():
    a = Checkpoint(tensors={"w": tensor([0.0])})
    b = Checkpoint(tensors={"w": tensor([6.0])})
    merged = merge_weighted(ModelBank(models=[a, b]), [2.0, 4.0])
    assert merged.tensors["w"][0] == pytest.approx(4.0, rel=1e-6)


def test_weights_whose_sum_overflows_keep_their_ratios():
    """Finite weights whose float64 sum is inf: rescaled by their maximum, not divided by inf to zero."""
    bank = ModelBank(models=[Checkpoint(tensors={"w": tensor(v)}) for v in ([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])])
    assert merge_weighted(bank, [1.7e308, 1.7e308, 1.0]).tensors["w"].tolist() == [2.0, 3.0]
    assert checkpoint_equal(merge_weighted(bank, [1e308] * 3), merge_uniform(bank, "111"))


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
    assert list(gray_code_order(1)) == ["1"]


def test_gray_n2_pinned():
    assert list(gray_code_order(2)) == ["01", "11", "10"]


def test_gray_n3_pinned():
    assert list(gray_code_order(3)) == [
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
    assert seq == reference_gray(n)
    assert all(type(bits) is str for bits in seq)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_gray_properties(n):
    seq = list(gray_code_order(n))
    assert len(seq) == 2**n - 1
    assert len(set(seq)) == len(seq)
    assert seq[0].count("1") == 1
    for a, b in zip(seq, seq[1:]):
        diff = sum(x != y for x, y in zip(a, b))
        assert diff == 1
    for v in seq:
        assert v.count("1") >= 1


def test_gray_codes_pinned():
    assert gray_codes(3).tolist() == [1, 3, 2, 6, 7, 5, 4]


@pytest.mark.parametrize("n", range(1, 11))
def test_gray_code_order_follows_gray_codes(n):
    assert [bits_code(n, bits) for bits in gray_code_order(n)] == gray_codes(n).tolist()


def test_gray_codes_out_of_range():
    with pytest.raises(ValidationError):
        gray_codes(0)
    with pytest.raises(ValidationError, match=f"N <= {MAX_ENUMERATION_N}"):
        gray_codes(MAX_ENUMERATION_N + 1)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_codes_round_trip_through_mixtures(n):
    """bits_code inverts code_bits, the text form, and gray_rank gives each
    code's 1-based position in gray_codes."""
    for rank, code in enumerate(gray_codes(n).tolist(), start=1):
        bits = code_bits(n, code)
        assert bits == format(code, f"0{n}b")
        assert bits_code(n, bits) == code
        assert gray_rank(code) == rank


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
        assert checkpoint_equal(merged, merge_uniform(bank, alpha))


def test_subset_merges_singleton_emissions_bitwise():
    """Length-1 orders must reproduce merge_uniform exactly."""
    bank = make_bank(4, seed=2)
    items = list(subset_merges(bank, ["0100"]))
    assert len(items) == 1
    assert checkpoint_equal(items[0][1], bank.models[1])


def test_subset_merges_handles_jumps():
    """Multi-bit jumps subtract the models that leave and add the ones that
    join the running sum; every emission is still the direct merge."""
    bank = make_bank(4, seed=8)
    order = ["1000", "0011", "1111", "0100"]
    for alpha, merged in subset_merges(bank, order):
        assert checkpoint_equal(merged, merge_uniform(bank, alpha))


def test_subset_merges_recomputes_unless_one_bit_flips():
    """The first item adds its models to the zero sum, a repeat changes
    nothing, a two-bit jump moves two models (dataset 1 joins, dataset 2
    leaves) and a one-bit flip moves one. The running sum is never
    recomputed, and every emission is the direct merge, bit for bit."""
    bank = make_bank(4, seed=5)
    order = ["0110", "0110", "1010", "1011", "1001"]
    items = list(subset_merges(bank, order))
    assert [a for a, _ in items] == order
    for alpha, merged in items:
        assert checkpoint_equal(merged, merge_uniform(bank, alpha))


def test_walk_in_and_out_of_a_nan_model_is_the_fsum_merge():
    """Dataset 3 holds a NaN. Jumps bring it into the running sum and take it
    out again, and the sum is never reset, so that parameter's running sum
    stays NaN; it is uncertified, so every emission overwrites it with its
    fsum and stays the fsum merge."""
    models = make_bank(4, seed=13).models
    models[2].tensors["w"][1, 0] = np.nan
    bank = ModelBank(models=models)
    order = ["1100", "0111", "1001", "1111", "0011", "1100", "0100"]
    for alpha, merged in subset_merges(bank, order):
        assert checkpoint_equal(merged, fsum_merge(bank, alpha)), alpha
        assert np.isnan(merged.tensors["w"][1, 0]) == (alpha[2] == "1"), alpha


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_subset_merges_property(n, seed):
    """Every Gray-order emission is the direct merge, bit for bit."""
    bank = make_bank(n, shapes={"w": (2, 2)}, seed=seed)
    for alpha, merged in subset_merges(bank, gray_code_order(n)):
        assert checkpoint_equal(merged, merge_uniform(bank, alpha))


# ============================================================================
# one merge definition: float32(exact sum / k)
# ============================================================================


def fsum_merge(bank, alpha):
    """Reference: per parameter, float32(math.fsum of the selected values / k)."""
    out = {}
    for name, shape in bank.schema.items():
        rows = np.stack([bank.models[i].tensors[name].reshape(-1) for i in selected(alpha)])
        means = [math.fsum(col) / alpha.count("1") for col in rows.T.astype(np.float64).tolist()]
        out[name] = np.array(means).astype(np.float32).reshape(shape)
    return Checkpoint(tensors=out)


def block_checkpoints(bank, alphas):
    merged = merge_block(bank, [bits_code(len(bank), a) for a in alphas])
    return [Checkpoint(tensors={name: t[r] for name, t in merged.items()}) for r in range(len(alphas))]


@st.composite
def wide_banks(draw):
    """Banks of N <= 8 whose values span up to 2^-60..2^60, so some columns
    exceed the exact-sum bound and take the fsum fallback."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31 - 1))
    span = draw(st.sampled_from([0, 8, 24, 30, 60]))
    rng = np.random.default_rng(seed)

    def values(shape):
        scale = np.exp2(rng.integers(-span, span + 1, size=shape))
        x = rng.standard_normal(shape) * scale
        x[rng.random(shape) < 0.1] = 0.0
        return x.astype(np.float32)

    return ModelBank(models=[Checkpoint(tensors={"w": values((3, 2)), "b": values((5,))}) for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(wide_banks(), st.randoms(use_true_random=False))
def test_every_merge_path_is_the_fsum_merge(bank, rnd):
    """merge_uniform, the walk (Gray order and a shuffled order) and merge_block
    equal float32(fsum / k) bit for bit, inside and outside the exact-sum bound."""
    n = len(bank)
    gray = list(gray_code_order(n))
    shuffled = rnd.sample(gray, len(gray))
    blocks = block_checkpoints(bank, shuffled)
    for order in (gray, shuffled):
        for alpha, merged in subset_merges(bank, order):
            ref = fsum_merge(bank, alpha)
            assert checkpoint_equal(merged, ref), alpha
            assert checkpoint_equal(merge_uniform(bank, alpha), ref), alpha
    for alpha, merged in zip(shuffled, blocks):
        assert checkpoint_equal(merged, fsum_merge(bank, alpha)), alpha
    # a certified parameter's float64 sums are exact in any order
    idx, _ = bank.inexact
    certified = np.setdiff1d(np.arange(bank.flat64.shape[1]), idx)
    for alpha in gray:
        rows = bank.flat64[selected(alpha)][:, certified]
        exact = [math.fsum(col) for col in rows.T.tolist()]
        assert rows.sum(axis=0).tolist() == exact
        assert rows[::-1].cumsum(axis=0)[-1].tolist() == exact


@pytest.mark.parametrize(
    "values, certified",
    [
        ([1.0, 2.0**-27, 0.0, 0.0], True),  # spread 27 = 29 - ceil(log2 4)
        ([1.0, 2.0**-28, 0.0, 0.0], False),
        ([-(2.0**100), 2.0**73, 3.0 * 2.0**80, 0.0], True),
        ([2.0**-126, 2.0**-149, 0.0, -(2.0**-140)], True),  # subnormals count as exponent -126
        ([2.0**-99, 2.0**-149, 0.0, 0.0], True),  # spread 27 from -126, not 50 from -149
        ([2.0**-98, 2.0**-149, 0.0, 0.0], False),
        ([0.0, -0.0, 0.0, 0.0], True),
        ([1.0, np.nan, 1.0, 1.0], False),
    ],
)
def test_exact_sum_bound(values, certified):
    models = [Checkpoint(tensors={"w": np.array([v, 1.0], dtype=np.float32)}) for v in values]
    idx, values64 = ModelBank(models=models).inexact
    assert idx.tolist() == ([] if certified else [0])
    assert values64.shape == (4, len(idx))


def test_column_outside_the_bound_takes_the_exact_fallback():
    """One parameter of w and one of b mix 1e30, 1.0 and 1e-10: their float64
    sums would round, so only they are flagged, at their flat indices in
    schema order, and every path still gives the fsum merge."""
    models = make_bank(3, {"w": (4,), "b": (2, 3)}, seed=4).models
    for model, v in zip(models, (1e30, 1.0, 1e-10)):
        model.tensors["w"][2] = model.tensors["b"][1, 0] = v
    bank = ModelBank(models=models)
    idx, values = bank.inexact
    assert idx.tolist() == [2, 4 + 3]
    assert values.tolist() == [[float(np.float32(v))] * 2 for v in (1e30, 1.0, 1e-10)]
    order = list(gray_code_order(3))
    blocks = block_checkpoints(bank, order)
    for (alpha, walked), block in zip(subset_merges(bank, order), blocks):
        ref = fsum_merge(bank, alpha)
        assert checkpoint_equal(walked, ref) and checkpoint_equal(block, ref)
        assert checkpoint_equal(merge_uniform(bank, alpha), ref)


def test_non_finite_parameters_are_never_certified():
    models = [Checkpoint(tensors={"w": np.array([1.0, v], dtype=np.float32)}) for v in (np.inf, -np.inf)]
    bank = ModelBank(models=models)
    assert bank.inexact[0].tolist() == [1]
    with np.errstate(invalid="ignore"):
        merged = merge_uniform(bank, "11").tensors["w"]
    assert merged[0] == 1.0 and np.isnan(merged[1])
    assert merge_uniform(bank, "10").tensors["w"][1] == np.inf


def test_bank_caches_cannot_go_stale():
    """The bank keeps its own tuple of models: after its caches are built, a
    change to the caller's list, or an assignment into bank.models, changes
    no merge."""
    models = [Checkpoint(tensors={"w": np.array(v, dtype=np.float32)}) for v in ([1.0, 2.0], [3.0, 6.0])]
    bank = ModelBank(models=models)
    merge_block(bank, [3])
    other = Checkpoint(tensors={"w": np.array([5.0, 10.0], dtype=np.float32)})
    models[1] = other
    with pytest.raises(TypeError):
        bank.models[1] = other
    mean = [2.0, 4.0]
    assert merge_uniform(bank, "11").tensors["w"].tolist() == mean
    assert next(subset_merges(bank, ["11"]))[1].tensors["w"].tolist() == mean
    assert merge_block(bank, [3])["w"].tolist() == [mean]


def test_bank_names_default_and_custom():
    bank = make_bank(2)
    assert bank.names == ["dataset_1", "dataset_2"]
    named = ModelBank(models=bank.models, names=["a", "b"])
    assert named.names == ["a", "b"]
    with pytest.raises(ValidationError):
        ModelBank(models=bank.models, names=["only_one"])


def test_bank_schema_is_read_from_its_models():
    """The schema is no argument, so a bank never carries one its models do not have."""
    bank = make_bank(2)
    assert bank.schema == bank.models[0].schema == {"w": (3, 2), "b": (3,)}
    with pytest.raises(TypeError, match="schema"):
        ModelBank(models=bank.models, schema={"w": (99,)})


def test_code_datasets_lists_the_selected_positions():
    """A code's datasets are the positions of the 1s in its text, dataset 1 first."""
    for n in range(1, 6):
        for code in gray_codes(n).tolist():
            assert code_datasets(n, code) == selected(code_bits(n, code)), (n, code)
    assert code_datasets(3, 0) == []
