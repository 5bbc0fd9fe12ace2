"""Command-line entry point exposing every pipeline stage.

Subcommands: merge, search, similarity, correlate, bench. stdout carries one
machine-readable JSON line per command; diagnostics go to stderr. search,
similarity and correlate write their report through one path: the report's
own CSV at --out, its JSON beside it and a manifest of both. Exit codes:
0 success, 1 validation or usage error, 2 I/O error, 3 external-evaluator failure.
Set MERGEMIX_LOG to error/warn/info/debug to control stderr logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import re
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .analytics import CorrelationInput, correlate_tasks, emit_report, finite_or_none, write_json
from .baselines import SimilarityMetric, similarity_table, select_from_table
from .errors import ExternalEvaluatorError, MergeMixError, ValidationError
from .evaluator import check_timeout, evaluate_external, evaluator_argv, read_eval_dataset
from .merge_engine import ModelBank, merge_uniform, merge_weighted
from .mixture_search import SearchConfig, builtin_eval_fn, run_search
from .tensor_store import read_checkpoint, read_embeddings, write_checkpoint
from .toy_bench import BenchConfig, TrainConfig, run_benchmark

log = logging.getLogger("mergemix.cli")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_EVALUATOR = 3

_BANK_FILE_RE = re.compile(r"^(\d+)_(.+)\.mtm$")

# `bench` takes one flag per field of these, with the field's default and type;
# the training seed is --train-seed, which defaults to --seed
_BENCH_FIELDS = dataclasses.fields(BenchConfig)
_BENCH_TRAIN_FIELDS = tuple(f for f in dataclasses.fields(TrainConfig) if f.name != "seed")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    level_name = os.environ.get("MERGEMIX_LOG", "warn").lower()
    level = _LOG_LEVELS.get(level_name, logging.WARNING)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("mergemix")
    root.handlers[:] = [handler]
    root.setLevel(level)
    if level_name not in _LOG_LEVELS:
        choices = ", ".join(_LOG_LEVELS)
        log.warning("unknown MERGEMIX_LOG value %r, using warn (one of %s)", level_name, choices)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _manifest(
    path: Path, args: argparse.Namespace, inputs: list[Path], started: str, outputs: list[Path]
) -> None:
    """Write the command's record of config, input digests, version, times and outputs to path, atomically."""
    # "func" is the dispatch callable, not config
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "config": config,
        "input_digests": {str(p): _sha256(p) for p in inputs if p.is_file()},
        "tool_version": __version__,
        "started_at": started,
        "finished_at": _now(),
        "outputs": [str(p) for p in outputs],
    }
    write_json(path, manifest)


def _write_report(args: argparse.Namespace, report, inputs: list[Path], started: str) -> Path:
    """Write report as CSV at --out and as JSON beside it, then the manifest of both; the CSV's path."""
    out_csv = Path(args.out)
    out_json = out_csv.with_suffix(".json")
    emit_report(report, "csv", out_csv)
    emit_report(report, "json", out_json)
    _manifest(out_csv.parent / (out_csv.stem + ".manifest.json"), args, inputs, started, [out_csv, out_json])
    return out_csv


def _print_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_bank_dir(path: Path) -> tuple[ModelBank, list[Path]]:
    """Load bank/<index>_<name>.mtm checkpoints, the index defining bit order; also the files read."""
    if not path.is_dir():
        raise FileNotFoundError(f"bank directory not found: {path}")
    entries = []
    for child in sorted(path.iterdir()):
        match = _BANK_FILE_RE.match(child.name)
        if match:
            entries.append((int(match.group(1)), match.group(2), child))
    if not entries:
        raise ValidationError(f"no <index>_<name>.mtm files in {path}")
    entries.sort(key=lambda e: e[0])
    indices = [e[0] for e in entries]
    if len(set(indices)) != len(indices):
        raise ValidationError(f"duplicate bank indices in {path}")
    models = [read_checkpoint(p) for _, _, p in entries]
    names = [name for _, name, _ in entries]
    return ModelBank(models=models, names=names), [p for _, _, p in entries]


# ---------------------------------------------------------------------------
# subcommands


def cmd_merge(args: argparse.Namespace) -> int:
    models = [read_checkpoint(Path(p)) for p in args.models]
    bank = ModelBank(models=models)
    if args.weights is not None:
        try:
            weights = [float(w) for w in args.weights.split(",")]
        except ValueError:
            raise ValidationError(
                f"--weights must be comma-separated numbers, got {args.weights!r}"
            ) from None
        merged = merge_weighted(bank, weights)
    else:
        merged = merge_uniform(bank, "1" * len(bank))
    out = Path(args.out)
    write_checkpoint(merged, out)
    _print_json({"tensors": len(merged.tensors), "parameters": merged.n_parameters, "out": str(out)})
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    started = _now()
    builtin = args.evaluator == "builtin"
    if not builtin:
        try:
            evaluator_argv(args.evaluator)
        except ValidationError as exc:
            raise ValidationError(f"--evaluator: {exc}") from None
    config = SearchConfig(objective="max_accuracy" if args.objective == "accuracy" else "min_loss", jobs=args.jobs)
    check_timeout(args.eval_timeout, "--eval-timeout")
    bank, inputs = _load_bank_dir(Path(args.bank))
    if builtin:
        inputs.append(Path(args.target))
        target = read_eval_dataset(Path(args.target))
        report = run_search(bank, builtin_eval_fn, target, config)
    else:
        with tempfile.TemporaryDirectory(prefix="mergemix-search-") as tmp:

            def eval_fn(ckpt, target, alpha):
                ckpt_path = Path(tmp) / f"merged_{alpha}.mtm"
                write_checkpoint(ckpt, ckpt_path)
                try:
                    return evaluate_external(ckpt_path, target, args.evaluator, args.eval_timeout)
                finally:
                    ckpt_path.unlink(missing_ok=True)

            report = run_search(bank, eval_fn, args.target, config)
    out = _write_report(args, report, inputs, started)
    best = report.best_alpha
    _print_json(
        {
            "best_alpha": best,
            "datasets": [name for name, bit in zip(bank.names, best) if bit == "1"],
            "objective": report.objective,
            "out": str(out),
        }
    )
    return EXIT_OK


def cmd_similarity(args: argparse.Namespace) -> int:
    started = _now()
    target = read_embeddings(Path(args.target))
    per_dataset = [read_embeddings(Path(p)) for p in args.datasets]
    table = similarity_table(target, per_dataset, SimilarityMetric.from_name(args.metric))
    _write_report(args, table, [Path(args.target), *map(Path, args.datasets)], started)
    best_alpha, best_score = select_from_table(table)
    _print_json({"best_alpha": best_alpha, "metric": table.metric.value, "score": best_score})
    return EXIT_OK


def _read_pairs_csv(path: Path) -> list[CorrelationInput]:
    """Rows: task,x,y,n_selected (header required), in UTF-8."""
    columns: dict[str, tuple[list[float], list[float], list[int]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            required = {"task", "x", "y", "n_selected"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValidationError(f"pairs CSV must have columns {sorted(required)}")
            for row in reader:
                try:
                    cells = (float(row["x"]), float(row["y"]), int(row["n_selected"]))
                except (TypeError, ValueError):
                    raise ValidationError(
                        f"{path} line {reader.line_num}: x, y and n_selected must be numbers"
                    ) from None
                for column, cell in zip(columns.setdefault(row["task"], ([], [], [])), cells):
                    column.append(cell)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            # DictReader counts a line only once its row parses; its inner reader counts it on read
            raise ValidationError(f"{path} line {reader.reader.line_num}: {exc}") from None
    if not columns:
        raise ValidationError("pairs CSV holds no rows")
    return [CorrelationInput(task, *cells) for task, cells in columns.items()]


def cmd_correlate(args: argparse.Namespace) -> int:
    started = _now()
    pairs_path = Path(args.pairs)
    inputs = _read_pairs_csv(pairs_path)
    report = correlate_tasks(inputs, exclude_singletons=not args.include_singletons)
    if not report.per_task:
        raise ValidationError("no task has enough usable pairs for a correlation")
    out = _write_report(args, report, [pairs_path], started)
    _print_json(
        {
            "average_r": report.average_r,
            "tasks": len(report.per_task),
            "excluded": report.excluded_count,
            "out": str(out),
        }
    )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    started = _now()
    bench_cfg = BenchConfig(**{f.name: getattr(args, f.name) for f in _BENCH_FIELDS})
    train_cfg = TrainConfig(
        **{f.name: getattr(args, f.name) for f in _BENCH_TRAIN_FIELDS},
        seed=args.seed if args.train_seed is None else args.train_seed,
    )
    report = run_benchmark(bench_cfg, train_cfg)
    outdir = Path(args.out)
    outputs = report.write_files(outdir)
    _manifest(outdir / "manifest.json", args, [], started, outputs)
    _print_json(
        {
            "out": str(outdir),
            "average_r": finite_or_none(report.correlation.average_r),
            "average_r_logit": finite_or_none(report.correlation_logit.average_r),
            "best_similarity_r": finite_or_none(report.best_similarity_correlation_r),
            "targets": len(report.per_target),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValidationError, so main maps them to exit 1."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mergemix",
        description="Dataset mixture selection via uniformly merged model surrogates.",
        epilog=(
            "examples:\n"
            "  mergemix merge --models a.mtm b.mtm --out merged.mtm\n"
            "  mergemix search --bank bank/ --target val.mtm --evaluator builtin --out report.csv\n"
            "  mergemix similarity --target t.mtm --datasets a.mtm b.mtm --metric min_min_l2 --out s.csv\n"
            "  mergemix correlate --pairs pairs.csv --out corr.csv\n"
            "  mergemix bench --seed 42 --out run/\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="average checkpoints into one")
    p_merge.add_argument("--models", nargs="+", required=True, help="checkpoint files, bit order")
    p_merge.add_argument("--out", required=True, help="output checkpoint path")
    p_merge.add_argument("--weights", default=None, help="comma-separated non-negative weights")
    p_merge.set_defaults(func=cmd_merge)

    p_search = sub.add_parser("search", help="score every mixture and report the best")
    p_search.add_argument("--bank", required=True, help="directory of <index>_<name>.mtm files")
    p_search.add_argument("--target", required=True, help="dataset container or external data ref")
    p_search.add_argument(
        "--evaluator",
        default="builtin",
        help="'builtin' or a command template with {checkpoint} and {data}",
    )
    p_search.add_argument("--objective", choices=("accuracy", "loss"), default="accuracy")
    p_search.add_argument("--out", required=True, help="report CSV path (JSON written alongside)")
    p_search.add_argument(
        "--jobs", type=int, default=1, help="threads that score the mixtures, for any evaluator (default 1)"
    )
    p_search.add_argument(
        "--eval-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill an external evaluator call after this many seconds (default: no limit)",
    )
    p_search.set_defaults(func=cmd_search)

    p_sim = sub.add_parser("similarity", help="score mixtures by embedding similarity")
    p_sim.add_argument("--target", required=True, help="target embedding container")
    p_sim.add_argument("--datasets", nargs="+", required=True, help="per-dataset embedding containers")
    p_sim.add_argument("--metric", required=True, help=f"one of {[m.value for m in SimilarityMetric]}")
    p_sim.add_argument("--out", required=True, help="scores CSV path (JSON written alongside)")
    p_sim.set_defaults(func=cmd_similarity)

    p_corr = sub.add_parser("correlate", help="per-task Pearson correlation report")
    p_corr.add_argument("--pairs", required=True, help="CSV with columns task,x,y,n_selected")
    p_corr.add_argument("--include-singletons", action="store_true", help="keep n_selected == 1 pairs")
    p_corr.add_argument("--out", required=True, help="report CSV path (JSON written alongside)")
    p_corr.set_defaults(func=cmd_correlate)

    p_bench = sub.add_parser("bench", help="run the synthetic end-to-end benchmark")
    for f in _BENCH_FIELDS + _BENCH_TRAIN_FIELDS:
        p_bench.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
    p_bench.add_argument("--train-seed", type=int, default=None, help="defaults to --seed")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="accepted for compatibility and not used: the bench runs in one process",
    )
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ExternalEvaluatorError as exc:
        return _fail(exc, EXIT_EVALUATOR)
    except MergeMixError as exc:
        return _fail(exc, EXIT_VALIDATION)
    except OSError as exc:
        return _fail(exc, EXIT_IO)


def _fail(exc: Exception, code: int) -> int:
    """A failed command's one stderr line, at every log level."""
    sys.stderr.write(f"error: {exc}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
