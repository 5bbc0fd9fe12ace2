"""Baseline selector tests: the six similarity metrics against a double-loop
reference, mixture composition, and the all-data selector."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergemix import baselines
from mergemix import (
    EmbeddingSet,
    SimilarityMetric,
    ValidationError,
    all_datasets_vector,
    similarity_score,
    similarity_select,
    similarity_table,
)
from mergemix.merge_engine import MAX_ENUMERATION_N, gray_code_order, gray_codes

ALL_METRICS = list(SimilarityMetric)


def emb(rows, name="E"):
    return EmbeddingSet(
        embeddings=np.asarray(rows, dtype=np.float32), source_name=name
    )


# ============================================================================
# Double-loop reference (independent oracle)
# ============================================================================


def reference_score(target, mixture, metric):
    """O(|T| |S|) reference: explicit python loops over rows."""
    t = target.embeddings.astype(np.float64)
    s = mixture.embeddings.astype(np.float64)

    def cos(x, y):
        return float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))

    def l2(x, y):
        return float(np.linalg.norm(x - y))

    per_row = []
    for x in t:
        vals = [cos(x, y) if "cos" in metric.value else l2(x, y) for y in s]
        if metric in (SimilarityMetric.AVG_MAX_COS, SimilarityMetric.MAX_MAX_COS):
            per_row.append(max(vals))
        elif metric in (SimilarityMetric.AVG_MIN_L2, SimilarityMetric.MIN_MIN_L2):
            per_row.append(min(vals))
        else:
            per_row.append(sum(vals) / len(vals))
    if metric is SimilarityMetric.MAX_MAX_COS:
        return max(per_row)
    if metric is SimilarityMetric.MIN_MIN_L2:
        return min(per_row)
    return sum(per_row) / len(per_row)


# ============================================================================
# similarity_score
# ============================================================================


def test_avg_max_cos_orthogonal_pair():
    t = emb([[1.0, 0.0], [0.0, 1.0]])
    s = emb([[1.0, 0.0]])
    got = similarity_score(t, s, SimilarityMetric.AVG_MAX_COS)
    assert got == pytest.approx(0.5, abs=1e-9)


def test_min_min_l2_345_triangle():
    t = emb([[0.0, 0.0]])
    s = emb([[3.0, 4.0], [6.0, 8.0]])
    got = similarity_score(t, s, SimilarityMetric.MIN_MIN_L2)
    assert got == pytest.approx(5.0, abs=1e-9)


def test_avg_avg_cos_example():
    t = emb([[1.0, 0.0]])
    s = emb([[1.0, 0.0], [0.0, 1.0]])
    got = similarity_score(t, s, SimilarityMetric.AVG_AVG_COS)
    assert got == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("metric", ALL_METRICS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_double_loop(metric, seed):
    rng = np.random.default_rng(seed)
    t = emb(rng.standard_normal((10, 4)))
    s = emb(rng.standard_normal((20, 4)))
    got = similarity_score(t, s, metric)
    want = reference_score(t, s, metric)
    assert got == pytest.approx(want, abs=1e-9)


def test_ordering_invariants_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = emb(rng.standard_normal((6, 3)))
        s = emb(rng.standard_normal((9, 3)))
        amc = similarity_score(t, s, SimilarityMetric.AVG_MAX_COS)
        aac = similarity_score(t, s, SimilarityMetric.AVG_AVG_COS)
        mml = similarity_score(t, s, SimilarityMetric.MIN_MIN_L2)
        aml = similarity_score(t, s, SimilarityMetric.AVG_MIN_L2)
        aal = similarity_score(t, s, SimilarityMetric.AVG_AVG_L2)
        assert amc >= aac - 1e-12
        assert mml <= aml + 1e-12
        assert aml <= aal + 1e-12


def test_cosine_scale_invariance():
    rng = np.random.default_rng(9)
    t_rows = rng.standard_normal((5, 3))
    s_rows = rng.standard_normal((7, 3))
    for metric in (
        SimilarityMetric.AVG_MAX_COS,
        SimilarityMetric.AVG_AVG_COS,
        SimilarityMetric.MAX_MAX_COS,
    ):
        base = similarity_score(emb(t_rows), emb(s_rows), metric)
        scaled = similarity_score(emb(t_rows * 13.0), emb(s_rows * 0.01), metric)
        assert scaled == pytest.approx(base, abs=1e-6)


def test_l2_translation_invariance():
    rng = np.random.default_rng(11)
    t_rows = rng.standard_normal((5, 3))
    s_rows = rng.standard_normal((7, 3))
    shift = rng.standard_normal(3)
    for metric in (
        SimilarityMetric.AVG_MIN_L2,
        SimilarityMetric.AVG_AVG_L2,
        SimilarityMetric.MIN_MIN_L2,
    ):
        base = similarity_score(emb(t_rows), emb(s_rows), metric)
        moved = similarity_score(emb(t_rows + shift), emb(s_rows + shift), metric)
        assert moved == pytest.approx(base, abs=1e-5)


def test_dim_mismatch_rejected():
    with pytest.raises(ValidationError, match="dim"):
        similarity_score(emb([[1.0, 0.0]]), emb([[1.0, 0.0, 0.0]]), SimilarityMetric.AVG_MAX_COS)


def test_zero_norm_row_rejected_for_cosine():
    t = emb([[0.0, 0.0]])
    s = emb([[1.0, 0.0]])
    with pytest.raises(ValidationError, match="zero-norm"):
        similarity_score(t, s, SimilarityMetric.AVG_MAX_COS)
    # the same rows are fine under an L2 kind
    similarity_score(t, s, SimilarityMetric.MIN_MIN_L2)


def test_metric_direction_and_from_name():
    assert SimilarityMetric.AVG_MAX_COS.direction == "maximize"
    assert SimilarityMetric.AVG_MIN_L2.direction == "minimize"
    assert SimilarityMetric.from_name("min_min_l2") is SimilarityMetric.MIN_MIN_L2
    with pytest.raises(ValidationError):
        SimilarityMetric.from_name("nope")


# ============================================================================
# similarity_table / similarity_select
# ============================================================================


def test_table_matches_pooled_direct():
    """Every mixture's table entry equals scoring the pooled union directly."""
    rng = np.random.default_rng(3)
    target = emb(rng.standard_normal((6, 4)), "T")
    per_dataset = [emb(rng.standard_normal((4 + i, 4)), f"D{i}") for i in range(3)]
    for metric in ALL_METRICS:
        table = similarity_table(target, per_dataset, metric)
        assert set(table) == {str(v) for v in gray_code_order(3)}
        for alpha in gray_code_order(3):
            pooled = np.concatenate(
                [per_dataset[i].embeddings for i in alpha.selected], axis=0
            )
            want = similarity_score(target, emb(pooled), metric)
            assert table[str(alpha)] == pytest.approx(want, abs=1e-9)


def test_select_matches_brute_force():
    rng = np.random.default_rng(17)
    target = emb(rng.standard_normal((5, 3)), "T")
    per_dataset = [emb(rng.standard_normal((6, 3)), f"D{i}") for i in range(3)]
    for metric in ALL_METRICS:
        best_alpha, best_val = similarity_select(target, per_dataset, metric)
        table = similarity_table(target, per_dataset, metric)
        sign = -1.0 if metric.direction == "maximize" else 1.0
        want_bits = min(
            table, key=lambda b: (sign * table[b], b.count("1"), b)
        )
        assert str(best_alpha) == want_bits
        assert best_val == pytest.approx(table[want_bits], abs=1e-12)


def test_select_n1():
    target = emb([[1.0, 0.0]])
    best_alpha, _ = similarity_select(target, [emb([[0.5, 0.5]])], SimilarityMetric.AVG_MAX_COS)
    assert str(best_alpha) == "1"


def test_duplicate_target_row_wins_singleton():
    """A dataset holding an exact copy of a target row maxes max_max_cos;
    the tie-break picks the smallest mixture containing it."""
    target = emb([[2.0, 0.0], [0.0, 3.0]], "T")
    per_dataset = [
        emb([[1.0, 1.0]], "D0"),
        emb([[4.0, 0.0], [1.0, 2.0]], "D1"),  # first row parallel to target row 0
        emb([[-1.0, 1.0]], "D2"),
    ]
    best_alpha, best_val = similarity_select(
        target, per_dataset, SimilarityMetric.MAX_MAX_COS
    )
    assert best_val == pytest.approx(1.0, abs=1e-7)
    assert str(best_alpha) == "010"


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_select_property_matches_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    target = emb(rng.standard_normal((4, 3)) + 0.1, "T")
    per_dataset = [emb(rng.standard_normal((5, 3)) + 0.1, f"D{i}") for i in range(n)]
    for metric in (SimilarityMetric.AVG_MIN_L2, SimilarityMetric.AVG_MAX_COS):
        got_alpha, got_val = similarity_select(target, per_dataset, metric)
        best = None
        for alpha in gray_code_order(n):
            pooled = np.concatenate(
                [per_dataset[i].embeddings for i in alpha.selected], axis=0
            )
            val = reference_score(target, emb(pooled), metric)
            sign = -1.0 if metric.direction == "maximize" else 1.0
            key = (sign * val, alpha.n_selected, str(alpha))
            if best is None or key < best[0]:
                best = (key, alpha, val)
        assert got_alpha == best[1]
        assert got_val == pytest.approx(best[2], abs=1e-9)


# ============================================================================
# similarity_table: the blocked lattice pass against the per-mixture loop
# ============================================================================


def per_mixture_table(target, per_dataset, metric):
    """The per-mixture loop similarity_table ran before its lattice pass.

    Each mixture reduces its own selected rows of the per-dataset
    statistics; keys follow i ^ (i >> 1), most significant bit first.
    """
    n = len(per_dataset)
    pairs = [baselines._pairwise(target, ds, metric) for ds in per_dataset]
    sizes = np.array([p.shape[1] for p in pairs], dtype=np.float64)
    per_row = per_row_sum = scalars = None
    if metric is SimilarityMetric.AVG_MAX_COS:
        per_row = np.stack([p.max(axis=1) for p in pairs])
    elif metric is SimilarityMetric.AVG_MIN_L2:
        per_row = np.stack([p.min(axis=1) for p in pairs])
    elif metric in (SimilarityMetric.AVG_AVG_COS, SimilarityMetric.AVG_AVG_L2):
        per_row_sum = np.stack([p.sum(axis=1) for p in pairs])
    elif metric is SimilarityMetric.MAX_MAX_COS:
        scalars = np.array([p.max() for p in pairs])
    else:
        scalars = np.array([p.min() for p in pairs])
    table = {}
    for i in range(1, 1 << n):
        bits = format(i ^ (i >> 1), f"0{n}b")
        sel = [k for k, c in enumerate(bits) if c == "1"]
        if per_row is not None:
            rows = per_row[sel]
            value = rows.max(axis=0).mean() if metric.direction == "maximize" else rows.min(axis=0).mean()
        elif per_row_sum is not None:
            value = (per_row_sum[sel].sum(axis=0) / sizes[sel].sum()).mean()
        else:
            value = scalars[sel].max() if metric.direction == "maximize" else scalars[sel].min()
        table[bits] = float(value)
    return table


def float_bits(table):
    return [struct.pack("<d", v) for v in table.values()]


@st.composite
def embedding_universes(draw):
    """A target and 1..7 datasets of unequal row counts, drawn from a shared
    pool of rows, so rows repeat and cosines reach -1, 0 and 1."""
    dim = draw(st.integers(1, 3))
    coords = st.one_of(
        st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
        st.floats(-4.0, 4.0, allow_nan=False, width=32),
    )
    row = st.lists(coords, min_size=dim, max_size=dim).filter(lambda r: any(r))
    pool = draw(st.lists(row, min_size=1, max_size=6))
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=5)
    target = emb(draw(pick), "T")
    n = draw(st.integers(1, 7))
    return target, [emb(draw(pick), f"D{i}") for i in range(n)]


@pytest.mark.parametrize("block_bits", [baselines.LATTICE_BLOCK_BITS, 2])
@settings(max_examples=60, deadline=None)
@given(universe=embedding_universes())
def test_table_is_bitwise_the_per_mixture_loop(block_bits, universe):
    """Same keys, same order and the same float bits, for all six metrics;
    block_bits=2 splits masks into low and high parts from N=3 on."""
    target, per_dataset = universe
    with mock.patch.object(baselines, "LATTICE_BLOCK_BITS", block_bits):
        for metric in ALL_METRICS:
            got = similarity_table(target, per_dataset, metric)
            want = per_mixture_table(target, per_dataset, metric)
            assert list(got) == list(want)
            assert float_bits(got) == float_bits(want), metric


def test_table_is_bitwise_the_per_mixture_loop_past_one_block():
    """N=11 with the shipped block size: one low block and two high bits."""
    rng = np.random.default_rng(11)
    target = emb(rng.standard_normal((7, 3)), "T")
    per_dataset = [emb(rng.standard_normal((1 + i % 4, 3)), f"D{i}") for i in range(11)]
    assert baselines.LATTICE_BLOCK_BITS < 11
    for metric in ALL_METRICS:
        got = similarity_table(target, per_dataset, metric)
        want = per_mixture_table(target, per_dataset, metric)
        assert list(got) == list(want)
        assert float_bits(got) == float_bits(want), metric


@pytest.mark.parametrize("n", range(1, 11))
def test_table_keys_follow_gray_codes(n):
    rng = np.random.default_rng(n)
    per_dataset = [emb(rng.standard_normal((2, 3)), f"D{i}") for i in range(n)]
    table = similarity_table(emb(rng.standard_normal((2, 3))), per_dataset, SimilarityMetric.MIN_MIN_L2)
    assert list(table) == [format(c, f"0{n}b") for c in gray_codes(n).tolist()]


def similarity_score_loop(target, per_dataset, metric):
    """Per mixture in Gray order: similarity_score on the pooled rows of its datasets."""
    table = {}
    for alpha in gray_code_order(len(per_dataset)):
        pooled = np.concatenate([per_dataset[i].embeddings for i in alpha.selected])
        table[str(alpha)] = similarity_score(target, emb(pooled, "pooled"), metric)
    return table


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_table_mapping_reads_back_as_the_similarity_score_loop(metric):
    """The read-only mapping has the loop's keys in order, its len, its
    lookups through [], in and .get, and its values: equal for the L2 minimum
    kinds, and within rounding for the kinds whose pooled products or sums
    run in another order. Keys that name no mixture raise KeyError."""
    rng = np.random.default_rng(5)
    n = 5
    target = emb(rng.standard_normal((4, 3)), "T")
    per_dataset = [emb(rng.standard_normal((1 + i % 3, 3)), f"D{i}") for i in range(n)]
    table = similarity_table(target, per_dataset, metric)
    want = similarity_score_loop(target, per_dataset, metric)
    assert len(table) == len(want) == 2**n - 1
    assert list(table) == list(want) and list(table.keys()) == list(want)
    assert dict(table) == pytest.approx(want, rel=1e-12, abs=1e-15)
    if metric in (SimilarityMetric.AVG_MIN_L2, SimilarityMetric.MIN_MIN_L2):
        assert table == want
    for bits in want:
        assert bits in table
        assert type(table[bits]) is float and table.get(bits) == table[bits]
    for key in ("0" * n, "1" * (n - 1), "1" * (n + 1), "10201", "1_011", "+1011", " 1011", 11, all_datasets_vector(n)):
        assert key not in table and table.get(key) is None
        with pytest.raises(KeyError):
            table[key]


def test_table_rejects_n_above_the_enumeration_limit():
    per_dataset = [emb([[1.0, float(i)]], f"D{i}") for i in range(MAX_ENUMERATION_N + 1)]
    with pytest.raises(ValidationError, match=f"N <= {MAX_ENUMERATION_N}"):
        similarity_table(emb([[1.0, 0.0]]), per_dataset, SimilarityMetric.AVG_MAX_COS)


# ============================================================================
# all_datasets_vector
# ============================================================================


def test_all_datasets_vector():
    assert str(all_datasets_vector(1)) == "1"
    assert str(all_datasets_vector(3)) == "111"
    assert all_datasets_vector(6).n_selected == 6
    with pytest.raises(ValidationError):
        all_datasets_vector(0)
