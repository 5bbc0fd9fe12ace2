"""Per-layer tracing from outside the program.

The tracer wraps mergemix functions by replacing, in every loaded mergemix
module, each name bound to the original function (for example
mergemix.mixture_search.subset_merges, mergemix.cli.write_checkpoint and
mergemix.toy_bench.train). Each call becomes a span; a generator's span
covers each resumption, so time spent by its consumer is not counted. Spans
are aggregated in memory per name: calls, inclusive time, self time (time
not covered by a nested span) and counts recorded at the same boundary.
Nothing under src/ is changed; `with Tracer(): ...` restores every name.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import defaultdict
from typing import Callable

# Bytes a single-bit merge update touches per parameter: read the flipped
# model (float32) and the running sum (float64), write the sum back and
# write the float32 output. A model of the traffic, not a measurement.
MERGE_BYTES_PER_PARAM = 4 + 8 + 8 + 4


def _sgd_steps(args, kwargs) -> int:
    data, cfg = args[1], args[2]
    return cfg.epochs * math.ceil(len(data) / cfg.batch_size)


def _path_size(index: int) -> Callable:
    def count(args, kwargs) -> int:
        return os.path.getsize(args[index])

    return count


def _table_mixtures(args, kwargs) -> int:
    return (1 << len(args[1])) - 1


def _merge_bytes(args, kwargs) -> int:
    return args[0].models[0].n_parameters * MERGE_BYTES_PER_PARAM


# (module, function, kind, count): kind "call" spans each call, "gen" spans
# each resumption of the returned generator, "tally" only counts calls. A
# count function maps the call's arguments to a number added per call, or
# per item for "gen".
TRACED = (
    ("toy_bench", "train", "call", _sgd_steps),
    ("toy_bench", "run_benchmark", "call", None),
    ("merge_engine", "subset_merges", "gen", _merge_bytes),
    ("merge_engine", "gray_code_order", "gen", None),
    ("evaluator", "evaluate_builtin", "call", None),
    ("evaluator", "evaluate_external", "call", None),
    ("mixture_search", "run_search", "call", None),
    ("baselines", "similarity_table", "call", _table_mixtures),
    ("analytics", "correlate_tasks", "call", None),
    ("analytics", "emit_report", "call", _path_size(2)),
    ("analytics", "write_plot_csv", "call", _path_size(0)),
    ("tensor_store", "write_checkpoint", "call", _path_size(1)),
    ("tensor_store", "read_checkpoint", "call", _path_size(0)),
    ("cli", "main", "call", None),
    ("cli", "_load_bank_dir", "call", None),
    ("cli", "_sha256", "call", None),
    ("cli", "cmd_search", "tally", None),
)


class Tracer:
    """Aggregated spans around calls into mergemix, installed while entered."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def _exit(self) -> None:
        name, start, child_ns = self._stack.pop()
        took = time.perf_counter_ns() - start
        self.total_ns[name] += took
        self.self_ns[name] += took - child_ns
        if self._stack:
            self._stack[-1][2] += took

    def _wrap(self, name: str, fn: Callable, kind: str, count: Callable | None) -> Callable:
        tracer = self

        def call(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
                if count is not None:
                    tracer.counts[name] += count(args, kwargs)

        def gen(*args, **kwargs):
            tracer.calls[name] += 1
            per_item = count(args, kwargs) if count is not None else 0
            it = fn(*args, **kwargs)
            while True:
                tracer._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit()
                tracer.items[name] += 1
                tracer.counts[name] += per_item
                yield item

        def tally(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return {"call": call, "gen": gen, "tally": tally}[kind]

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in list(sys.modules.items()) if k == "mergemix" or k.startswith("mergemix.")]
        for module, attr, kind, count in TRACED:
            original = getattr(sys.modules[f"mergemix.{module}"], attr)
            wrapper = self._wrap(f"{module}.{attr}", original, kind, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def layer_metrics(self, rounds: int, tmp_dirs_left: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced round, as name -> (value, unit).

        Counts and times are divided by the number of traced rounds; rates
        are taken over the whole traced run. A layer the workload does not
        call reads 0.
        """

        def sec(name: str) -> float:
            return self.total_ns[name] / 1e9

        def rate(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        per = 1.0 / rounds
        train, bench = "toy_bench.train", "toy_bench.run_benchmark"
        walk, builtin, external = "merge_engine.subset_merges", "evaluator.evaluate_builtin", "evaluator.evaluate_external"
        sim, write, read = "baselines.similarity_table", "tensor_store.write_checkpoint", "tensor_store.read_checkpoint"
        emits = ("analytics.emit_report", "analytics.write_plot_csv")
        emit_s = sum(sec(e) for e in emits)
        return {
            "toy_bench.train_calls": (self.calls[train] * per, "count"),
            "toy_bench.sgd_steps": (self.counts[train] * per, "count"),
            "toy_bench.train_s": (sec(train) * per, "s"),
            "toy_bench.sgd_steps_per_s": (rate(self.counts[train], sec(train)), "1/s"),
            "toy_bench.bench_self_s": (self.self_ns[bench] / 1e9 * per, "s"),
            "merge_engine.merges": (self.items[walk] * per, "count"),
            "merge_engine.walk_s": (sec(walk) * per, "s"),
            "merge_engine.merges_per_s": (rate(self.items[walk], sec(walk)), "1/s"),
            "merge_engine.bytes_computed": (self.counts[walk] * per, "B"),
            "merge_engine.gb_per_s": (rate(self.counts[walk] / 1e9, sec(walk)), "GB/s"),
            "merge_engine.enumerate_s": (sec("merge_engine.gray_code_order") * per, "s"),
            "evaluator.builtin_calls": (self.calls[builtin] * per, "count"),
            "evaluator.builtin_s": (sec(builtin) * per, "s"),
            "evaluator.builtin_us_per_call": (rate(sec(builtin) * 1e6, self.calls[builtin]), "us"),
            "evaluator.external_calls": (self.calls[external] * per, "count"),
            "evaluator.external_s": (sec(external) * per, "s"),
            "evaluator.external_ms_per_call": (rate(sec(external) * 1e3, self.calls[external]), "ms"),
            "mixture_search.search_s": (sec("mixture_search.run_search") * per, "s"),
            "mixture_search.self_s": (self.self_ns["mixture_search.run_search"] / 1e9 * per, "s"),
            "baselines.similarity_tables": (self.calls[sim] * per, "count"),
            "baselines.similarity_s": (sec(sim) * per, "s"),
            "baselines.similarity_mixtures_per_s": (rate(self.counts[sim], sec(sim)), "1/s"),
            "analytics.correlate_s": (sec("analytics.correlate_tasks") * per, "s"),
            "analytics.emit_s": (emit_s * per, "s"),
            "analytics.report_bytes": (sum(self.counts[e] for e in emits) * per, "B"),
            "tensor_store.write_calls": (self.calls[write] * per, "count"),
            "tensor_store.bytes_written": (self.counts[write] * per, "B"),
            "tensor_store.write_mb_per_s": (rate(self.counts[write] / 1e6, sec(write)), "MB/s"),
            "tensor_store.read_calls": (self.calls[read] * per, "count"),
            "tensor_store.bytes_read": (self.counts[read] * per, "B"),
            "tensor_store.read_mb_per_s": (rate(self.counts[read] / 1e6, sec(read)), "MB/s"),
            "cli.main_s": (sec("cli.main") * per, "s"),
            "cli.self_s": (self.self_ns["cli.main"] / 1e9 * per, "s"),
            "cli.tmp_dirs_left": (rate(tmp_dirs_left, self.calls["cli.cmd_search"]), "count"),
        }
