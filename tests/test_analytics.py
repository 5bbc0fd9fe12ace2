"""Correlation analytics tests: pearson, singleton exclusion, the bench's
surrogate plot points, and deterministic report emission."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergemix import (
    CorrelationInput,
    CorrelationReport,
    ValidationError,
    correlate_tasks,
    emit_report,
    logit_improvement,
    pearson,
)
from mergemix.analytics import write_json, write_plot_csv
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


def task(name, triples):
    """A CorrelationInput from (x, y, n_selected) triples, one per mixture."""
    x, y, n_selected = zip(*triples)
    return CorrelationInput(name, x, y, n_selected)


def test_two_linear_tasks_average_one():
    inputs = [
        task("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)]),
        task("B", [(0.5, 0.1, 2), (0.6, 0.2, 2), (0.7, 0.3, 4)]),
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
    good = task("good", [(0.1, 0.1, 2), (0.2, 0.25, 2), (0.3, 0.31, 3)])
    inflated = task("inflated", pairs)

    with_exclusion = correlate_tasks([good, inflated], exclude_singletons=True)
    assert "inflated" in with_exclusion.skipped_tasks
    assert set(with_exclusion.per_task) == {"good"}
    assert with_exclusion.excluded_count == 2

    without = correlate_tasks([good, inflated], exclude_singletons=False)
    assert without.per_task["inflated"] > 0.5


def test_short_task_skipped_with_warning():
    inputs = [
        task("ok", [(0.1, 0.1, 2), (0.2, 0.3, 2), (0.3, 0.2, 3)]),
        task("short", [(0.1, 0.2, 2), (0.2, 0.3, 2)]),
    ]
    report = correlate_tasks(inputs)
    assert report.skipped_tasks == ["short"]
    assert report.n_pairs == {"ok": 3}


def test_all_tasks_skipped_is_an_empty_report():
    inputs = [
        task("only", [(0.1, 0.2, 1), (0.2, 0.3, 1)]),
        task("flat", [(0.1, 0.2, 2), (0.1, 0.3, 2), (0.1, 0.4, 3), (0.5, 0.5, 1)]),
    ]
    report = correlate_tasks(inputs)
    assert (report.per_task, report.n_pairs) == ({}, {})
    assert math.isnan(report.average_r)
    assert report.skipped_tasks == ["only", "flat"]
    assert report.excluded_count == 3
    assert report.to_json_obj()["average_r"] is None


def test_correlation_report_needs_its_skipped_tasks_and_pair_counts():
    """A report without n_pairs could not write its CSV rows, so both fields are required."""
    with pytest.raises(TypeError, match="skipped_tasks.*n_pairs"):
        CorrelationReport(per_task={"T1": 0.5}, average_r=0.5, excluded_count=0)


def test_duplicate_task_rejected():
    item = task("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)])
    with pytest.raises(ValidationError, match="duplicate task"):
        correlate_tasks([item, item])


def test_average_is_unweighted_mean():
    inputs = [
        task("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)]),
        task("B", [(0.5, 0.3, 2), (0.6, 0.2, 2), (0.7, 0.1, 4)]),
    ]
    report = correlate_tasks(inputs)
    want = (report.per_task["A"] + report.per_task["B"]) / 2
    assert report.average_r == pytest.approx(want, abs=1e-15)


# ============================================================================
# TargetTable.logit_pairs: the bench's plot points
# ============================================================================


def pair_table(bits, merged_acc, ft_acc, base_acc=0.5):
    """A hand-built TargetTable whose mixtures have these merged and fine-tuned accuracies."""
    codes = [int(b, 2) for b in bits]
    merged = ScoreColumns(len(bits[0]), codes, merged_acc, 0.0, 0)
    tuned = ScoreColumns(len(bits[0]), codes, ft_acc, 0.0, 0)
    sizes = np.array([b.count("1") for b in bits], dtype=np.int64)
    return TargetTable("T", base_acc, base_acc, merged, merged, tuned, tuned, sizes)


def rows(item):
    """A CorrelationInput's columns as (x, y, n_selected) triples, one per mixture."""
    return list(zip(item.x.tolist(), item.y.tolist(), item.n_selected.tolist()))


def test_plot_origin_when_nothing_improves():
    pairs = pair_table(["11"], [0.5], [0.5]).logit_pairs()
    assert (pairs.task_name, rows(pairs)) == ("T", [(0.0, 0.0, 2)])


def test_plot_ln3_point():
    ((x, y, n),) = rows(pair_table(["11"], [0.75], [0.75]).logit_pairs())
    assert x == pytest.approx(LN3, abs=1e-12)
    assert y == pytest.approx(LN3, abs=1e-12)
    assert n == 2


def test_plot_singletons_on_diagonal():
    table = pair_table(["10", "01", "11"], [0.62, 0.43, 0.9], [0.62, 0.43, 0.7])
    pts = rows(table.logit_pairs())
    assert [(x == y, n) for x, y, n in pts] == [(True, 1), (True, 1), (False, 2)]


def test_logit_pairs_n_selected_is_the_bit_count():
    codes = gray_codes(4).tolist()
    acc = [0.1 + 0.05 * i for i in range(len(codes))]
    table = pair_table([format(code, "04b") for code in codes], acc, acc[::-1], base_acc=0.3)
    pts = rows(table.logit_pairs())
    assert pts == [
        (logit_improvement(m, 0.3), logit_improvement(f, 0.3), code.bit_count())
        for m, f, code in zip(acc, acc[::-1], codes)
    ]


# ============================================================================
# emit_report / write_plot_csv
# ============================================================================


def test_emit_json_roundtrip_and_determinism(tmp_path):
    inputs = [
        task("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)]),
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
        task("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)]),
        task("B", [(0.5, 0.3, 2), (0.6, 0.2, 2), (0.7, 0.1, 4)]),
    ]
    report = correlate_tasks(inputs)
    path = tmp_path / "r.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "task,n_pairs,r"
    assert len(lines) == 3


def test_emit_rejects_unknown_format(tmp_path):
    report = correlate_tasks(
        [task("A", [(0.1, 0.2, 2), (0.2, 0.4, 2), (0.3, 0.6, 3)])]
    )
    with pytest.raises(ValidationError, match="format"):
        emit_report(report, "yaml", tmp_path / "r.yaml")


def test_write_plot_csv_shape(tmp_path):
    codes = np.array([0b10, 0b11])
    inputs = [task("T1", [(0.1, 0.2, 1), (0.3, 0.4, 2)]), task("T0", [(0.5, 0.6, 1), (0.7, 0.8, 2)])]
    path = tmp_path / "plot.csv"
    write_plot_csv(path, 2, codes, inputs)
    lines = path.read_text().splitlines()
    assert lines[0] == "task,mixture_bits,n_selected,x,y,is_singleton"
    # tasks sorted, one row per mixture code, singleton flag set from n_selected
    assert lines[1].startswith("T0,10,1,") and lines[1].endswith(",1")
    assert lines[4] == "T1,11,2,0.3,0.4,0"
    assert len(lines) == 5


def test_write_plot_csv_needs_a_row_per_mixture(tmp_path):
    with pytest.raises(ValueError):
        write_plot_csv(tmp_path / "plot.csv", 2, np.array([0b10, 0b11]), [task("T", [(0.1, 0.2, 1)])])


@pytest.mark.parametrize(
    "columns, message",
    [
        (([0.1, 0.2], [0.1], [2, 2]), "one length"),
        (([0.1, 0.2], [0.1, 0.2], [2]), "one length"),
        (([[0.1, 0.2]], [[0.1, 0.2]], [[2, 2]]), "1-D"),
        (([0.1, 0.2], [0.1, 0.2], [2, 0]), "n_selected must be >= 1"),
        (([0.1], [0.1], [-3]), "n_selected must be >= 1"),
        (([0.1], [0.1], [2**70]), "int64"),
    ],
)
def test_correlation_input_rejects_bad_columns(columns, message):
    with pytest.raises(ValidationError, match=message):
        CorrelationInput("T", *columns)


def test_correlation_input_rejects_an_empty_task_name():
    with pytest.raises(ValidationError, match="task_name"):
        CorrelationInput("", [0.1], [0.2], [2])


def test_correlation_input_holds_float64_and_int64_columns():
    item = CorrelationInput("T", [1, 2], (0.5, 0.25), np.array([2, 3], dtype=np.uint8))
    assert (item.x.dtype, item.y.dtype, item.n_selected.dtype) == (np.float64, np.float64, np.int64)
    assert rows(item) == [(1.0, 0.5, 2), (2.0, 0.25, 3)]


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


# ============================================================================
# write_json
# ============================================================================

JSON_VALUES = [
    {},
    [],
    {"a": {}, "b": [], "c": [[], [{}]]},
    {"zeta": [1, {"y": [2, 3], "x": None}], "alpha": {"nested": {"deep": [True, False]}}},
    "caf\u00e9 \u2603 \U0001f600 \"quoted\" \\ \n\t",
    {"\u00fcber": "\u65e5\u672c", "ascii": "plain"},
    [0.1, 1e-300, -0.0, 0.0, 1.5e300, 5e-324, 123456789.123456789],
    [2**64 + 1, -(2**100), 0, -1],
    [True, False, None],
    None,
    "top-level string",
    3.0,
]


@pytest.mark.parametrize("obj", JSON_VALUES, ids=range(len(JSON_VALUES)))
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path, obj):
    path = tmp_path / "r.json"
    write_json(path, obj)
    want = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == want.encode("ascii")


def test_write_json_failure_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(b'{"old": 1}\n')
    # the encoder has written the first records before it reaches the bad value
    obj = {"a": list(range(10000)), "b": object()}
    with pytest.raises(TypeError):
        write_json(path, obj)
    assert path.read_bytes() == b'{"old": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
