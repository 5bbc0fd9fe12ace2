"""Correlation analytics tests: pearson, singleton exclusion, the bench's
surrogate plot points, and deterministic report emission."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergemix import (
    CorrelationInput,
    ValidationError,
    correlate_tasks,
    emit_report,
    logit_improvement,
    pearson,
)
from mergemix.analytics import write_plot_csv
from mergemix.merge_engine import gray_codes
from mergemix.mixture_search import ScoreColumns
from mergemix.toy_bench import TargetTable

LN3 = 1.0986122886681098


# ============================================================================
# pearson
# ============================================================================


def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1, 1e-200, 1e100, 1e155, 1e200, 1e308])
def test_pearson_perfect_negative(s):
    """Sums of squares that overflow or underflow float64 still give r = -1, silently."""
    assert pearson([s, -s, 0], [-s, s, 0]) == -1.0


def test_pearson_point_six():
    """cov 3.0 over sqrt(5*5): the pinned 0.6 fixture."""
    assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)


def test_pearson_self_correlation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(50)
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(ValidationError, match="degenerate: constant series"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValidationError, match="degenerate: constant series"):
        pearson([1, 2, 3], [5, 5, 5])
    with pytest.raises(ValidationError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValidationError):
        pearson([1], [2])
    with pytest.raises(ValidationError, match="non-finite"):
        pearson([1, 2, float("nan")], [1, 2, 3])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(min_value=0.1, max_value=50),
    st.floats(min_value=-10, max_value=10),
)
def test_pearson_affine_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(12)
    y = rng.standard_normal(12)
    base = pearson(x, y)
    assert pearson(a * x + b, y) == pytest.approx(base, abs=1e-9)


def test_pearson_clamped_to_unit_interval():
    x = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9])
    r = pearson(x, x * 3.0)
    assert -1.0 <= r <= 1.0


# ============================================================================
# correlate_tasks
# ============================================================================


def test_two_linear_tasks_average_one():
    inputs = [
        CorrelationInput("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)]),
        CorrelationInput("B", [(0.5, 0.1, 2), (0.6, 0.2, 2), (0.7, 0.3, 4)]),
    ]
    report = correlate_tasks(inputs)
    assert report.per_task == {"A": pytest.approx(1.0), "B": pytest.approx(1.0)}
    assert report.average_r == pytest.approx(1.0)
    assert report.excluded_count == 0
    assert report.skipped_tasks == []


def test_singleton_inflation_guard():
    """Multi-dataset pairs constant in x, singletons on the diagonal.

    With exclusion the task is skipped (no variance left); without it the
    diagonal singletons manufacture a strong positive r out of nothing.
    """
    pairs = [
        (0.2, 0.2, 1),
        (0.8, 0.8, 1),
        (0.5, 0.31, 2),
        (0.5, 0.62, 2),
        (0.5, 0.45, 3),
    ]
    good = CorrelationInput("good", [(0.1, 0.1, 2), (0.2, 0.25, 2), (0.3, 0.31, 3)])
    inflated = CorrelationInput("inflated", pairs)

    with_exclusion = correlate_tasks([good, inflated], exclude_singletons=True)
    assert "inflated" in with_exclusion.skipped_tasks
    assert set(with_exclusion.per_task) == {"good"}
    assert with_exclusion.excluded_count == 2

    without = correlate_tasks([good, inflated], exclude_singletons=False)
    assert without.per_task["inflated"] > 0.5


def test_short_task_skipped_with_warning():
    inputs = [
        CorrelationInput("ok", [(0.1, 0.1, 2), (0.2, 0.3, 2), (0.3, 0.2, 3)]),
        CorrelationInput("short", [(0.1, 0.2, 2), (0.2, 0.3, 2)]),
    ]
    report = correlate_tasks(inputs)
    assert report.skipped_tasks == ["short"]
    assert report.n_pairs == {"ok": 3}


def test_all_tasks_skipped_is_error():
    inputs = [CorrelationInput("only", [(0.1, 0.2, 1), (0.2, 0.3, 1)])]
    with pytest.raises(ValidationError, match="no task has enough usable pairs"):
        correlate_tasks(inputs)


def test_duplicate_task_rejected():
    item = CorrelationInput("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)])
    with pytest.raises(ValidationError, match="duplicate task"):
        correlate_tasks([item, item])


def test_average_is_unweighted_mean():
    inputs = [
        CorrelationInput("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)]),
        CorrelationInput("B", [(0.5, 0.3, 2), (0.6, 0.2, 2), (0.7, 0.1, 4)]),
    ]
    report = correlate_tasks(inputs)
    want = (report.per_task["A"] + report.per_task["B"]) / 2
    assert report.average_r == pytest.approx(want, abs=1e-15)


# ============================================================================
# TargetTable.surrogate_pairs: the bench's plot points
# ============================================================================


def pair_table(bits, merged_acc, ft_acc, base_acc=0.5):
    """A hand-built TargetTable whose mixtures have these merged and fine-tuned accuracies."""
    codes = [int(b, 2) for b in bits]
    merged = ScoreColumns(len(bits[0]), codes, merged_acc, 0.0, 0)
    tuned = ScoreColumns(len(bits[0]), codes, ft_acc, 0.0, 0)
    return TargetTable("T", base_acc, base_acc, merged, merged, tuned, tuned)


def test_plot_origin_when_nothing_improves():
    pairs = pair_table(["11"], [0.5], [0.5]).surrogate_pairs(logit_improvement)
    assert (pairs.task_name, pairs.pairs) == ("T", [(0.0, 0.0, 2)])


def test_plot_ln3_point():
    ((x, y, n),) = pair_table(["11"], [0.75], [0.75]).surrogate_pairs(logit_improvement).pairs
    assert x == pytest.approx(LN3, abs=1e-12)
    assert y == pytest.approx(LN3, abs=1e-12)
    assert n == 2


def test_plot_singletons_on_diagonal():
    table = pair_table(["10", "01", "11"], [0.62, 0.43, 0.9], [0.62, 0.43, 0.7])
    pts = table.surrogate_pairs(logit_improvement).pairs
    assert [(x == y, n) for x, y, n in pts] == [(True, 1), (True, 1), (False, 2)]


def test_surrogate_pairs_n_selected_is_the_bit_count():
    codes = gray_codes(4).tolist()
    acc = [0.1 + 0.05 * i for i in range(len(codes))]
    table = pair_table([format(code, "04b") for code in codes], acc, acc[::-1])
    pts = table.surrogate_pairs(lambda acc, base_acc: acc).pairs
    assert pts == [(m, f, code.bit_count()) for m, f, code in zip(acc, acc[::-1], codes)]


# ============================================================================
# emit_report / write_plot_csv
# ============================================================================


def test_emit_json_roundtrip_and_determinism(tmp_path):
    inputs = [
        CorrelationInput("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)]),
    ]
    report = correlate_tasks(inputs)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    emit_report(report, "json", p1)
    emit_report(report, "json", p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = json.loads(p1.read_text())
    assert back["per_task"]["A"] == pytest.approx(1.0)
    assert back["average_r"] == pytest.approx(1.0)


def test_emit_csv_row_count(tmp_path):
    inputs = [
        CorrelationInput("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)]),
        CorrelationInput("B", [(0.5, 0.3, 2), (0.6, 0.2, 2), (0.7, 0.1, 4)]),
    ]
    report = correlate_tasks(inputs)
    path = tmp_path / "r.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "task,n_pairs,r"
    assert len(lines) == 3


def test_emit_rejects_unknown_format(tmp_path):
    report = correlate_tasks(
        [CorrelationInput("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)])]
    )
    with pytest.raises(ValidationError, match="format"):
        emit_report(report, "yaml", tmp_path / "r.yaml")


def test_write_plot_csv_shape(tmp_path):
    per_task = {
        "T1": [("01", 0.1, 0.2, 1), ("11", 0.3, 0.4, 2)],
        "T0": [("10", 0.5, 0.6, 1)],
    }
    path = tmp_path / "plot.csv"
    write_plot_csv(path, per_task)
    lines = path.read_text().splitlines()
    assert lines[0] == "task,mixture_bits,n_selected,x,y,is_singleton"
    # tasks sorted, singleton flag set from n_selected
    assert lines[1].startswith("T0,10,1,") and lines[1].endswith(",1")
    assert lines[3].startswith("T1,11,2,") and lines[3].endswith(",0")
    assert len(lines) == 4


def test_failed_emit_leaves_old_report_untouched(tmp_path):
    class Broken:
        def csv_header(self):
            return ["task", "n_pairs", "r"]

        def csv_rows(self):
            yield ["B", 3, "0.5"]
            raise RuntimeError("rows unavailable")

    path = tmp_path / "r.csv"
    path.write_bytes(b"task,n_pairs,r\nA,3,1.0\n")
    with pytest.raises(RuntimeError, match="rows unavailable"):
        emit_report(Broken(), "csv", path)
    assert path.read_bytes() == b"task,n_pairs,r\nA,3,1.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
