"""Correlation analytics tests: pearson, singleton exclusion, plot
coordinates, and deterministic report emission."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergemix import (
    CorrelationInput,
    MixtureVector,
    Score,
    ValidationError,
    correlate_tasks,
    emit_report,
    pearson,
    plot_coordinates,
)
from mergemix.analytics import write_plot_csv
from mergemix.mixture_search import ScoreRecord

LN3 = 1.0986122886681098


def record(bits, merged_acc, ft_acc):
    return ScoreRecord(
        alpha=MixtureVector.from_string(bits),
        merged_score=Score(accuracy=merged_acc, mean_loss=0.0, num_samples=0),
        finetuned_score=Score(accuracy=ft_acc, mean_loss=0.0, num_samples=0),
    )


# ============================================================================
# pearson
# ============================================================================


def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative():
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


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
# plot_coordinates
# ============================================================================


def test_plot_origin_when_nothing_improves():
    recs = [record("11", 0.5, 0.5)]
    pts = plot_coordinates(recs, base_acc=0.5)
    assert pts == [(0.0, 0.0, 2)]


def test_plot_ln3_point():
    recs = [record("11", 0.75, 0.75)]
    ((x, y, n),) = plot_coordinates(recs, base_acc=0.5)
    assert x == pytest.approx(LN3, abs=1e-12)
    assert y == pytest.approx(LN3, abs=1e-12)
    assert n == 2


def test_plot_singletons_on_diagonal():
    recs = [record("10", 0.62, 0.62), record("01", 0.43, 0.43), record("11", 0.9, 0.7)]
    pts = plot_coordinates(recs, base_acc=0.5)
    for x, y, n in pts:
        if n == 1:
            assert x == pytest.approx(y, abs=1e-9)


def test_plot_similarity_mode_uses_raw_scores():
    recs = [record("10", 0.6, 0.7), record("01", 0.5, 0.6)]
    sims = {"10": 0.91, "01": 0.12}
    pts = plot_coordinates(recs, base_acc=0.5, surrogate="similarity", similarity_scores=sims)
    assert pts[0][0] == pytest.approx(0.91)
    assert pts[1][0] == pytest.approx(0.12)


def test_plot_missing_finetuned_rejected():
    rec = ScoreRecord(
        alpha=MixtureVector.from_string("11"),
        merged_score=Score(accuracy=0.5, mean_loss=0.0, num_samples=0),
    )
    with pytest.raises(ValidationError, match="missing a fine-tuned score"):
        plot_coordinates([rec], base_acc=0.5)


def test_plot_similarity_mode_needs_scores():
    with pytest.raises(ValidationError, match="similarity_scores"):
        plot_coordinates([record("11", 0.5, 0.6)], base_acc=0.5, surrogate="similarity")


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
