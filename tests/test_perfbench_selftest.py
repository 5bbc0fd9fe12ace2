"""The benchmark's self-test drives every workload at a small size through
the API the benchmark calls, so an edit to that API fails here first."""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-B", str(SELFTEST)],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "all checks accept right results and reject wrong ones" in proc.stdout
