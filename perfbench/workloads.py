"""The four benchmark workloads.

Each workload builds its inputs from the seed in setup(), which may run
several times, runs one timed pass in run_pass() and checks that pass's
outputs in check(). One operation is one mixture: fine-tuned and scored on
groundtruth, scored on the two searches, merged on merge_walk.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import mergemix as mm
from mergemix import cli
from mergemix.evaluator import toy_mlp_hidden
from mergemix.toy_bench import generate_universe, pretrain_base, train

from checks import (
    check_groundtruth,
    check_merge_walk,
    check_search_builtin,
    check_search_external,
    load_bench_files,
    sample_mixtures,
)
from param_eval import score as param_score

EVAL_SCRIPT = Path(__file__).resolve().parent / "param_eval.py"


class PassFailed(Exception):
    """A pass whose program call reported failure; its mixtures count as failed."""


def run_cli(argv: list[str]) -> dict:
    """Run a mergemix command in this process and return its JSON stdout line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise PassFailed(f"mergemix {argv[0]} exited with {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def fine_tuned_bank(seed: int, n: int, targets: int):
    """A synthetic universe, its pretrained base and one fine-tune per dataset."""
    universe = generate_universe(mm.BenchConfig(num_datasets=n, num_targets=targets, seed=seed))
    train_cfg = mm.TrainConfig(seed=seed)
    base = pretrain_base(universe, train_cfg)
    models = [
        train(base, d.train, train_cfg, 1 << (n - 1 - i)) for i, d in enumerate(universe.datasets)
    ]
    return universe, base, models


class GroundTruth:
    """`mergemix bench` at N=8: every mixture fine-tuned, merged and scored."""

    N = 8
    WARMUP_N = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops_per_pass = (1 << self.N) - 1

    def _bench(self, n: int, out: Path) -> dict:
        return run_cli(["bench", "--seed", str(self.seed), "--num-datasets", str(n),
                        "--jobs", "1", "--out", str(out)])

    def setup(self) -> None:
        # a small bench through the same command warms every code path
        out = self.workdir / "warmup"
        self._bench(self.WARMUP_N, out)
        shutil.rmtree(out)

    def run_pass(self):
        out = self.workdir / "bench"
        return out, self._bench(self.N, out)

    def check(self, result) -> list[str]:
        out, summary = result
        errors = check_groundtruth(load_bench_files(out), self.N, summary)
        shutil.rmtree(out)
        return errors


class SearchBuiltin:
    """run_search with the builtin scorer over an N=14 bank, plus six similarity tables."""

    N = 14
    TARGETS = 2
    SAMPLE_EXTRA = 16

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.ops_per_pass = self.TARGETS * ((1 << self.N) - 1)

    def setup(self) -> None:
        universe, base, models = fine_tuned_bank(self.seed, self.N, self.TARGETS)
        self.bank = mm.ModelBank(models=models, names=[d.name for d in universe.datasets])
        self.targets = [t.val for t in universe.targets]
        self.dataset_embs = [
            mm.EmbeddingSet(toy_mlp_hidden(base, d.val.features), d.name) for d in universe.datasets
        ]
        self.target_embs = [
            mm.EmbeddingSet(toy_mlp_hidden(base, t.val.features), t.name) for t in universe.targets
        ]
        mm.evaluate_builtin(models[0], self.targets[0])

    def run_pass(self):
        out = []
        for target, emb in zip(self.targets, self.target_embs):
            report = mm.run_search(self.bank, mm.builtin_eval_fn, target, mm.SearchConfig(jobs=1))
            tables = {m.value: mm.similarity_table(emb, self.dataset_embs, m) for m in mm.SimilarityMetric}
            out.append((report, tables))
        return out

    def check(self, result) -> list[str]:
        rng = np.random.default_rng([self.seed, 1])
        models = [m.tensors for m in self.bank.models]
        dataset_embs = [e.embeddings for e in self.dataset_embs]
        errors = []
        for (report, tables), target, emb in zip(result, self.targets, self.target_embs):
            records = [(str(r.alpha), r.merged_score.accuracy, r.merged_score.mean_loss) for r in report.records]
            best = str(report.best_alpha)
            sample = sample_mixtures(self.N, best, rng, self.SAMPLE_EXTRA)
            errors += check_search_builtin(records, best, tables, sample, models,
                                           (target.features, target.labels), emb.embeddings, dataset_embs)
        return errors


class SearchExternal:
    """`mergemix search` with param_eval.py as the external evaluator, one process per mixture."""

    N = 6
    TENSORS = ("w1", "b1", "w2", "b2")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.bank_dir = workdir / "bank"
        self.out = workdir / "search" / "report.csv"
        self.ops_per_pass = (1 << self.N) - 1
        self.eval_argv = [sys.executable, "-I", str(EVAL_SCRIPT)]
        self.setup_errors: list[str] = []

    def setup(self) -> None:
        universe, _, models = fine_tuned_bank(self.seed, self.N, 1)
        self.models = [m.tensors for m in models]
        self.bank_dir.mkdir(parents=True, exist_ok=True)
        self.out.parent.mkdir(parents=True, exist_ok=True)
        for i, (model, data) in enumerate(zip(models, universe.datasets)):
            mm.write_checkpoint(model, self.bank_dir / f"{i}_{data.name}.mtm")
        # warm-up: the evaluator must print the statistic of the file it reads
        first = self.bank_dir / f"0_{universe.datasets[0].name}.mtm"
        proc = subprocess.run([*self.eval_argv, str(first), ",".join(self.TENSORS)],
                              capture_output=True, text=True, check=True)
        want = param_score(np.concatenate([self.models[0][t].ravel() for t in self.TENSORS]).tolist())
        got = json.loads(proc.stdout.splitlines()[-1])
        self.setup_errors = [] if got == want else [f"param_eval.py printed {got}, its statistic is {want}"]

    def run_pass(self):
        template = " ".join(shlex.quote(a) for a in self.eval_argv) + " {checkpoint} {data}"
        return run_cli(["search", "--bank", str(self.bank_dir), "--target", ",".join(self.TENSORS),
                        "--evaluator", template, "--out", str(self.out), "--jobs", "1"])

    def check(self, summary) -> list[str]:
        report = json.loads(self.out.with_suffix(".json").read_text())
        records = [(r["mixture_bits"], r["merged_score"]["accuracy"], r["merged_score"]["mean_loss"])
                   for r in report["records"]]
        errors = self.setup_errors + check_search_external(records, report["best_alpha"], self.models, self.TENSORS)
        if summary["best_alpha"] != report["best_alpha"]:
            errors.append(f"stdout names {summary['best_alpha']}, the report {report['best_alpha']}")
        return errors


class MergeWalk:
    """Read back an N=10 bank of 1M-parameter checkpoints and merge every mixture."""

    N = 10
    SHAPES = {"bias": (65536,), "embed": (512, 1024), "proj": (1024, 448)}  # 1,048,576 parameters
    STRIDE = 8
    SAMPLE_EXTRA = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.paths = [workdir / "bank" / f"{i}_m{i + 1}.mtm" for i in range(self.N)]
        self.ops_per_pass = (1 << self.N) - 1
        rng = np.random.default_rng([seed, 2])
        self.sample = set(sample_mixtures(self.N, "1" * self.N, rng, self.SAMPLE_EXTRA))

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.models = [
            {name: rng.standard_normal(shape, dtype=np.float32) for name, shape in self.SHAPES.items()}
            for _ in range(self.N)
        ]
        self.paths[0].parent.mkdir(parents=True, exist_ok=True)
        for model, path in zip(self.models, self.paths):
            mm.write_checkpoint(mm.Checkpoint(tensors=model), path)
        mm.read_checkpoint(self.paths[0])

    def run_pass(self):
        bank = mm.ModelBank(models=[mm.read_checkpoint(p) for p in self.paths])
        totals = {name: np.zeros(-(-int(np.prod(s)) // self.STRIDE)) for name, s in self.SHAPES.items()}
        order, kept = [], {}
        for alpha, merged in mm.subset_merges(bank, mm.gray_code_order(self.N)):
            bits = str(alpha)
            order.append(bits)
            for name, arr in merged.tensors.items():
                np.add(totals[name], arr.reshape(-1)[:: self.STRIDE], out=totals[name])
            if bits in self.sample:
                kept[bits] = merged.tensors
        return order, totals, kept

    def check(self, result) -> list[str]:
        order, totals, kept = result
        return check_merge_walk(order, totals, kept, self.models, self.STRIDE)


WORKLOADS = {
    "groundtruth": GroundTruth,
    "search_builtin": SearchBuiltin,
    "search_external": SearchExternal,
    "merge_walk": MergeWalk,
}
