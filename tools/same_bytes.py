"""Check that two source trees write the same report bytes.

Usage, from any directory:

    python tools/same_bytes.py PARENT_DIR

PARENT_DIR is another checkout of this repository, for example a
`git archive` copy of the parent commit. Both trees run the same commands
on the same inputs, each in a fresh interpreter with its own src/ on
PYTHONPATH and in a fresh working directory:

- `mergemix bench --jobs 1` at the four BENCH_SETTINGS, comparing the five
  bench files;
- the REPORT_GOLDEN cases of tests/test_cli.py: `search` (builtin under both
  objectives, and external through perfbench/param_eval.py), each also at
  every `--jobs` of SEARCH_JOBS, `similarity` (all six metrics) and
  `correlate` (singletons excluded and included), comparing report.csv and
  report.json;
- the MERGE_GOLDEN cases of tests/test_cli.py: `merge` uniform, with unequal
  weights, with equal weights, and uniform over a bank with one uncertified
  parameter in each of two tensors, comparing the checkpoint it writes;
- each script in demos/, the tree's own copy, comparing what it prints on
  stdout.

The inputs are built once, by this tree, and both trees read them. The
script prints one line per file that differs, or that a tree failed to
write, and exits 1 if there is any; otherwise it prints the number of files
compared and exits 0. The bench at N=8 takes most of the time, about 15 s
per tree on a 2-vCPU machine. All outputs live in a temporary directory
that is removed at the end.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from mergemix.toy_bench import BENCH_FILES  # noqa: E402
from test_cli import MERGE_GOLDEN, REPORT_ARGV, REPORT_GOLDEN, golden_merge_argv  # noqa: E402

BENCH_SETTINGS = (
    ("--seed", "42", "--num-datasets", "8"),
    ("--seed", "42", "--num-datasets", "5"),
    ("--seed", "7", "--num-datasets", "4", "--embedding-source", "raw"),
    ("--seed", "3", "--num-datasets", "2"),
)
# search scores its mixtures from this many threads as well as from one
SEARCH_JOBS = (2, 3)
REPORT_FILES = ("report.csv", "report.json")
MERGE_FILES = ("merged.mtm",)
DEMOS = tuple(sorted(p.name for p in (ROOT / "demos").glob("*.py")))


def cases(inputs: Path, bench_settings, demos) -> list[tuple[str, list[str], tuple[str, ...]]]:
    """(name, argv without --out, files the command writes), with the inputs built under inputs.

    A demo's argv is its path in the tree, and its one file is its stdout.
    """
    out = [(" ".join(("bench", *s)), ["bench", "--jobs", "1", *s], BENCH_FILES) for s in bench_settings]
    builds = {**REPORT_ARGV, "merge": golden_merge_argv}
    for command, case in [*REPORT_GOLDEN, *(("merge", case) for case in MERGE_GOLDEN)]:
        where = inputs / f"{command}-{case}"
        where.mkdir(parents=True)
        argv = builds[command](where, case)
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2 :]
        files = MERGE_FILES if command == "merge" else REPORT_FILES
        out.append((f"{command} {case}", argv, files))
        if command == "search":
            out += [(f"search {case} --jobs {j}", [*argv, "--jobs", str(j)], files) for j in SEARCH_JOBS]
    out += [(f"demo {name}", [f"demos/{name}"], ("stdout",)) for name in demos]
    return out


def run(tree: Path, argv: list[str], out: Path, files: tuple[str, ...]) -> str:
    """Run a mergemix command or a demo from tree's src/ in out; stderr's last line if it fails."""
    out.mkdir(parents=True)
    demo = argv[0].startswith("demos/")
    if demo:
        args = ["-B", str(tree / argv[0])]
    else:
        target = out if argv[0] == "bench" else out / files[0]
        args = ["-m", "mergemix.cli", *argv, "--out", str(target)]
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=out,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if proc.returncode == 0:
        if demo:
            (out / files[0]).write_text(proc.stdout)
        return ""
    last = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
    return f"exit {proc.returncode}: {last[0]}"


def compare(
    this: Path, parent: Path, work: Path, bench_settings=BENCH_SETTINGS, demos=DEMOS
) -> tuple[list[str], int]:
    """(one line per differing or missing file, the number of files compared), over every case."""
    lines, compared = [], 0
    for k, (name, argv, files) in enumerate(cases(work / "inputs", bench_settings, demos)):
        outs = []
        for side, tree in (("this", this), ("parent", parent)):
            out = work / side / str(k)
            failure = run(tree, argv, out, files)
            if failure:
                lines.append(f"{name}: {side} tree failed, {failure}")
            outs.append(out)
        for file in files:
            compared += 1
            a, b = (out / file for out in outs)
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                lines.append(f"{name}: {file} differs")
    return lines, compared


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "mergemix").is_dir():
        print("usage: python tools/same_bytes.py PARENT_DIR, a tree that holds src/mergemix", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        lines, compared = compare(ROOT, Path(argv[0]).resolve(), Path(tmp))
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"same bytes: {compared} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
