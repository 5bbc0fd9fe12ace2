"""tools/same_bytes.py: two trees that write the same reports and print the
same demo output compare clean, and a tree that differs is named file by file."""

import shutil
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import same_bytes  # noqa: E402


def test_this_tree_writes_its_own_bytes_at_the_smallest_setting(tmp_path):
    lines, compared = same_bytes.compare(
        ROOT, ROOT, tmp_path, same_bytes.BENCH_SETTINGS[-1:], ("merge_basics.py",)
    )
    assert lines == []
    searches = sum(command == "search" for command, _ in same_bytes.REPORT_GOLDEN) * len(same_bytes.SEARCH_JOBS)
    reports = (len(same_bytes.REPORT_GOLDEN) + searches) * 2 + len(same_bytes.MERGE_GOLDEN)
    assert compared == len(same_bytes.BENCH_SETTINGS[-1:]) * 5 + reports + 1


def test_a_tree_with_other_json_is_named_file_by_file(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    analytics = other / "src" / "mergemix" / "analytics.py"
    text = analytics.read_text()
    assert text.count("indent=2") == 1
    analytics.write_text(text.replace("indent=2", "indent=3"))
    golden = {("search", "accuracy"): None, ("similarity", "min_min_l2"): None}
    with mock.patch.object(same_bytes, "REPORT_GOLDEN", golden):
        lines, compared = same_bytes.compare(
            ROOT, other, tmp_path / "work", same_bytes.BENCH_SETTINGS[-1:], demos=()
        )
    assert compared == 5 + (2 + 2) * 2 + len(same_bytes.MERGE_GOLDEN)
    assert lines == [
        "bench --seed 3 --num-datasets 2: report.json differs",
        "search accuracy: report.json differs",
        "search accuracy --jobs 2: report.json differs",
        "search accuracy --jobs 3: report.json differs",
        "similarity min_min_l2: report.json differs",
    ]


def test_a_tree_with_other_weighted_merges_is_named_file_by_file(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    merge_engine = other / "src" / "mergemix" / "merge_engine.py"
    text = merge_engine.read_text()
    assert text.count("acc.astype(np.float32)") == 1
    merge_engine.write_text(text.replace("acc.astype(np.float32)", "(acc * (1 + 1e-6)).astype(np.float32)"))
    with mock.patch.object(same_bytes, "REPORT_GOLDEN", {}):
        lines, compared = same_bytes.compare(ROOT, other, tmp_path / "work", (), demos=())
    assert compared == len(same_bytes.MERGE_GOLDEN)
    assert lines == ["merge unequal: merged.mtm differs"]


def test_a_tree_whose_demo_prints_otherwise_is_named(tmp_path):
    """Each tree runs its own copy of a demo, and the demo's stdout is compared."""
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (other / "demos").mkdir()
    demo = (ROOT / "demos" / "merge_basics.py").read_text()
    (other / "demos" / "merge_basics.py").write_text(demo + 'print("one more line")\n')
    (other / "demos" / "correlation_report.py").write_text("raise SystemExit(4)\n")
    demos = ("merge_basics.py", "correlation_report.py")
    with mock.patch.object(same_bytes, "REPORT_GOLDEN", {}), mock.patch.object(same_bytes, "MERGE_GOLDEN", ()):
        lines, compared = same_bytes.compare(ROOT, other, tmp_path / "work", (), demos)
    assert compared == 2
    assert lines == [
        "demo merge_basics.py: stdout differs",
        "demo correlation_report.py: parent tree failed, exit 4: no stderr",
        "demo correlation_report.py: stdout differs",
    ]


def test_main_rejects_a_directory_without_the_package(tmp_path, capsys):
    assert same_bytes.main([str(tmp_path)]) == 2
    assert "usage:" in capsys.readouterr().err
