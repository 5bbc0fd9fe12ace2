"""Correlation analytics and report serialization.

Correlations are computed per task and averaged unweighted across tasks.
Single-dataset mixtures are excluded by default: their surrogate and
fine-tuned models coincide, so the (x, y) pair sits on the diagonal by
construction and would inflate the correlation. When no task is left with
enough usable pairs, the report is empty and its average is NaN (null in JSON).
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .merge_engine import mixture_rows
from .tensor_store import atomic_open

log = logging.getLogger("mergemix.analytics")

REPORT_FORMATS = ("csv", "json")

MIN_PAIRS_PER_TASK = 3


def _centered_products(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """sum(dx * dy) and sqrt(sum(dx * dx) * sum(dy * dy)), dx and dy taken about the means."""
    dx = x - x.mean()
    dy = y - y.mean()
    return (dx * dy).sum(), math.sqrt((dx * dx).sum() * (dy * dy).sum())


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Requires equal lengths >= 2 and non-constant series.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValidationError("series must be 1-D and of equal length")
    if x.size < 2:
        raise ValidationError("need at least 2 pairs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("non-finite value in series")
    # min == max rather than np.ptp == 0: max - min overflows for spreads beyond the float64 range
    if x.min() == x.max() or y.min() == y.max():
        raise ValidationError("degenerate: constant series")
    with np.errstate(over="ignore", invalid="ignore"):
        cov, norm = _centered_products(x, y)
    if not 0.0 < norm < math.inf:
        # the sums of squares overflowed or underflowed; r is scale-invariant, so scale both to max |value| 1
        cov, norm = _centered_products(x / np.abs(x).max(), y / np.abs(y).max())
    r = float(cov / norm)
    return max(-1.0, min(1.0, r))


def finite_or_none(r: float) -> float | None:
    """r, or None where r is NaN or infinite, so a JSON report stays strictly parseable."""
    return r if math.isfinite(r) else None


@dataclass(eq=False)
class CorrelationInput:
    """One task's columns, one row per scored mixture: x, y and the mixture's size n_selected."""

    task_name: str
    x: np.ndarray
    y: np.ndarray
    n_selected: np.ndarray

    def __post_init__(self) -> None:
        if not self.task_name:
            raise ValidationError("task_name must be non-empty")
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        try:
            self.n_selected = np.asarray(self.n_selected, dtype=np.int64)
        except OverflowError:
            raise ValidationError("n_selected must fit in int64") from None
        if self.x.ndim != 1 or len({self.x.shape, self.y.shape, self.n_selected.shape}) != 1:
            raise ValidationError("x, y and n_selected must be 1-D columns of one length")
        if (self.n_selected < 1).any():
            raise ValidationError("n_selected must be >= 1")


@dataclass
class CorrelationReport:
    per_task: dict[str, float]
    average_r: float
    excluded_count: int
    skipped_tasks: list[str]
    n_pairs: dict[str, int]

    def csv_header(self) -> list[str]:
        return ["task", "n_pairs", "r"]

    def csv_rows(self) -> list[list]:
        return [
            [task, self.n_pairs[task], repr(r)]
            for task, r in sorted(self.per_task.items())
        ]

    def to_json_obj(self) -> dict:
        return {
            "per_task": dict(sorted(self.per_task.items())),
            "average_r": finite_or_none(self.average_r),
            "excluded_count": self.excluded_count,
            "skipped_tasks": sorted(self.skipped_tasks),
            "n_pairs": dict(sorted(self.n_pairs.items())),
        }


def correlate_tasks(
    inputs: Sequence[CorrelationInput], exclude_singletons: bool = True
) -> CorrelationReport:
    """Per-task Pearson r, then the unweighted average across tasks.

    With exclusion on, pairs whose mixture selects exactly one dataset are
    dropped first. Tasks left with fewer than MIN_PAIRS_PER_TASK pairs or a
    constant series are skipped with a warning. If every task is skipped,
    the report has no per-task r and a NaN average.
    """
    if not inputs:
        raise ValidationError("no correlation inputs")
    per_task: dict[str, float] = {}
    n_pairs: dict[str, int] = {}
    skipped: list[str] = []
    excluded = 0
    for item in inputs:
        if item.task_name in per_task or item.task_name in skipped:
            raise ValidationError(f"duplicate task {item.task_name!r}")
        x, y = item.x, item.y
        if exclude_singletons:
            keep = item.n_selected != 1
            x, y = x[keep], y[keep]
            excluded += len(item.x) - len(x)
        if len(x) < MIN_PAIRS_PER_TASK:
            log.warning("task %s skipped: %d pairs after exclusion", item.task_name, len(x))
            skipped.append(item.task_name)
            continue
        try:
            r = pearson(x, y)
        except ValidationError as exc:
            log.warning("task %s skipped: %s", item.task_name, exc)
            skipped.append(item.task_name)
            continue
        per_task[item.task_name] = r
        n_pairs[item.task_name] = len(x)
    average = math.fsum(per_task.values()) / len(per_task) if per_task else math.nan
    return CorrelationReport(
        per_task=per_task,
        average_r=average,
        excluded_count=excluded,
        skipped_tasks=skipped,
        n_pairs=n_pairs,
    )


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV with "\\n" line ends, atomically."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, obj) -> None:
    """Write obj as sorted, indented JSON plus a newline, atomically.

    Each chunk of the encoder is written as it is made, so the text is never
    held whole. json.dumps joins these same chunks, so the bytes are its bytes.
    """
    with atomic_open(path) as fh:
        fh.writelines(json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj))
        fh.write("\n")


def write_plot_csv(path: str | Path, n: int, codes, inputs: Iterable[CorrelationInput]) -> None:
    """Write plot data rows: task, mixture_bits, n_selected, x, y, is_singleton.

    Every input holds one row per mixture code over n datasets, in the order
    of codes, whose bits and size mixture_rows writes; tasks are sorted by name.
    """
    write_csv(
        path,
        ["task", "mixture_bits", "n_selected", "x", "y", "is_singleton"],
        (
            [item.task_name, bits, k, repr(x), repr(y), int(k == 1)]
            for item in sorted(inputs, key=lambda item: item.task_name)
            for bits, k, x, y in mixture_rows(n, codes, item.x, item.y)
        ),
    )


def emit_report(report, format: str, path: str | Path) -> None:
    """Serialize a report deterministically as CSV or JSON.

    Any report object exposing csv_header()/csv_rows() and to_json_obj()
    (SearchReport, CorrelationReport, BenchReport, SimilarityTable) is accepted.
    """
    if format not in REPORT_FORMATS:
        raise ValidationError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    if format == "json":
        if not hasattr(report, "to_json_obj"):
            raise ValidationError(f"cannot serialize {type(report).__name__} as a report")
        write_json(path, report.to_json_obj())
        return
    if not hasattr(report, "csv_rows"):
        raise ValidationError(f"cannot serialize {type(report).__name__} as a report")
    write_csv(path, report.csv_header(), report.csv_rows())
