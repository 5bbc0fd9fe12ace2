"""Benchmark for mergemix: ground truth, builtin search, external search, merge walk.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of groundtruth, search_builtin, search_external, merge_walk, or
"all", which runs each workload in its own fresh process. The workload sets
itself up SETUP_REPEATS times, then repeats whole timed passes until they add
up to at least S seconds, checking every pass's outputs. With --trace 0 it
prints the end-to-end metrics; with --trace 1 it runs untraced passes for S
seconds, then traced passes for S seconds, and prints the per-layer metrics
and the tracing overhead. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.

mergemix is imported from src/ next to this directory; without it the script
exits with status 2. Run outputs and TMPDIR live in .perfbench_out/, which
each run removes when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("groundtruth", "search_builtin", "search_external", "merge_walk")
SETUP_REPEATS = 15

# One BLAS thread: with the evaluator processes the searches run one at a
# time, no workload keeps more than the machine's two cores busy. Set
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def timed_passes(workload, seconds: float, errors: list[str]) -> tuple[list[float], int]:
    """Whole passes until their time adds up to `seconds`; (pass times, failed passes)."""
    from mergemix.errors import MergeMixError
    from workloads import PassFailed

    spent, times, failed = 0.0, [], 0
    while spent < seconds:
        start = time.perf_counter()
        try:
            result = workload.run_pass()
        except (MergeMixError, PassFailed) as exc:
            spent += time.perf_counter() - start
            failed += 1
            print(f"pass failed: {exc}", file=sys.stderr)
            continue
        took = time.perf_counter() - start
        spent += took
        times.append(took)
        errors += workload.check(result)
        del result  # keep one pass's outputs alive at a time, so peak RSS is per pass
    return times, failed


def search_dirs_left() -> int:
    return len(list(Path(tempfile.gettempdir()).glob("mergemix-search-*")))


def run_workload(name: str, seed: int, seconds: int, trace: bool, rundir: Path) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, rundir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    errors: list[str] = []
    times, failed = timed_passes(workload, seconds, errors)
    passes = len(times) + failed
    if not times:
        raise SystemExit(f"{name}: every pass failed")
    pass_s = statistics.median(times)
    if trace:
        left_before = search_dirs_left()
        with Tracer() as tracer:
            traced, traced_failed = timed_passes(workload, seconds, errors)
        if not traced:
            raise SystemExit(f"{name}: every traced pass failed")
        passes += len(traced) + traced_failed
        failed += traced_failed
        traced_s = statistics.median(traced)
        metrics = tracer.layer_metrics(len(traced), search_dirs_left() - left_before)
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_pct"] = ((traced_s / pass_s - 1.0) * 100.0, "%")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (pass_s, "s"),
            "mixtures_per_s": (workload.ops_per_pass / pass_s, "mixtures/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": passes * workload.ops_per_pass,
        "failed": failed * workload.ops_per_pass,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_result(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:<16} {metric:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:<16} attempted {result['attempted']}, failed {result['failed']}, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; the last line merges their results.

    If any workload fails, no merged line is printed and the exit status is 1.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.workload == "all":
        return run_all(args)
    problem = import_mergemix()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # a terminated run still removes its directory and stops its evaluator
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with run_directory(args.workload) as rundir:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), rundir)
    print_result(args.workload, result)
    print(json.dumps(result), flush=True)
    return 0


def import_mergemix() -> str | None:
    """Import mergemix from src/; a message if it is missing or comes from elsewhere."""
    if not (SRC / "mergemix" / "__init__.py").is_file():
        return f"no mergemix sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import mergemix

    if Path(mergemix.__file__).resolve().parent != (SRC / "mergemix").resolve():
        return f"mergemix imported from {mergemix.__file__}, not {SRC}"
    return None


@contextlib.contextmanager
def run_directory(label: str):
    """A fresh directory under OUT_ROOT, also TMPDIR, removed on exit."""
    rundir = OUT_ROOT / f"{label}-{os.getpid()}"
    tmp = rundir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        yield rundir
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
