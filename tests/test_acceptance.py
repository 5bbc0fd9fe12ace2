"""Acceptance gate: eight end-to-end criteria, one printed pass/fail line
each. Every check runs against an oracle computed inside this file; runtime
budgets are asserted along with correctness."""

import contextlib
import dataclasses
import hashlib
import json
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from mergemix import (
    BenchConfig,
    Checkpoint,
    ModelBank,
    TrainConfig,
    merge_uniform,
    run_benchmark,
)
from mergemix.baselines import SimilarityMetric, similarity_score
from mergemix.errors import ExternalEvaluatorError, FormatError
from mergemix.evaluator import Score, evaluate_external
from mergemix.merge_engine import gray_code_order, subset_merges
from mergemix.mixture_search import SearchConfig, run_search
from mergemix.tensor_store import EmbeddingSet, checkpoint_equal, read_checkpoint, write_checkpoint
from mergemix.toy_bench import loss_and_grads

# Default-config seed-42 average merged-vs-finetuned correlation, singletons
# excluded. Recorded from the first run and pinned as a regression anchor.
SEED42_MERGED_AVG_R = 0.8775845465888852


@pytest.fixture
def criterion(capsys):
    """Context manager printing '[acceptance] <name>: PASS|FAIL (...)'."""

    @contextlib.contextmanager
    def _criterion(name, budget_s):
        info = {}
        start = time.perf_counter()
        try:
            yield info
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {name}: FAIL")
            raise
        elapsed = time.perf_counter() - start
        ok = elapsed < budget_s
        detail = f"; {info['detail']}" if "detail" in info else ""
        with capsys.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s{detail})")
        assert ok, f"{name}: runtime {elapsed:.1f}s exceeds budget {budget_s}s"

    return _criterion


def rel_close(a, b, tol=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) / denom <= tol))


# ============================================================================
# 1. merge algebra
# ============================================================================


def test_criterion_1_merge_algebra(criterion):
    with criterion("1 merge algebra", 30.0) as info:
        rng = np.random.default_rng(91)
        shapes = {"a": (3, 2), "b": (4,)}
        checks = 0
        for _ in range(100):
            n = int(rng.integers(1, 13))
            models = [
                Checkpoint(
                    tensors={k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
                )
                for _ in range(n)
            ]
            bank = ModelBank(models=models)

            mask = rng.integers(0, 2, size=n)
            if mask.sum() == 0:
                mask[int(rng.integers(n))] = 1
            alpha = "".join(str(int(x)) for x in mask)
            merged = merge_uniform(bank, alpha)
            for key in shapes:
                stack = np.stack(
                    [models[i].tensors[key].astype(np.float64) for i in np.flatnonzero(mask)]
                )
                got = merged.tensors[key].astype(np.float64)
                assert rel_close(got, stack.mean(axis=0)), "mean mismatch"
                assert np.all(got >= stack.min(axis=0) - 1e-6), "below convex hull"
                assert np.all(got <= stack.max(axis=0) + 1e-6), "above convex hull"

            i = int(rng.integers(n))
            single = merge_uniform(bank, "".join("1" if j == i else "0" for j in range(n)))
            for key in shapes:
                assert single.tensors[key].tobytes() == models[i].tensors[key].tobytes()

            perm = [int(p) for p in rng.permutation(n)]
            bank_p = ModelBank(models=[models[p] for p in perm], names=[bank.names[p] for p in perm])
            alpha_p = "".join(alpha[p] for p in perm)
            merged_p = merge_uniform(bank_p, alpha_p)
            assert checkpoint_equal(merged, merged_p), "permutation"

            for a, incremental in subset_merges(bank, gray_code_order(n)):
                direct = merge_uniform(bank, a)
                assert checkpoint_equal(incremental, direct), f"incremental vs direct at {a}"
                checks += 1
        info["detail"] = f"100 banks, {checks} incremental merges"


# ============================================================================
# 2. search oracle equivalence
# ============================================================================


def mock_score(trial, bits, quantize):
    digest = hashlib.sha256(f"{trial}:{bits}".encode()).digest()
    v = int.from_bytes(digest[:8], "big") / 2.0**64
    if quantize:
        v = round(v * 4) / 4
    return v


def test_criterion_2_search_oracle_equivalence(criterion):
    with criterion("2 search oracle equivalence", 30.0) as info:
        tie_trials = 0
        for trial in range(50):
            n = 3 + trial % 6
            quantize = trial % 2 == 0
            objective = "min_loss" if trial % 5 == 0 else "max_accuracy"
            bank = ModelBank(
                models=[
                    Checkpoint(tensors={"w": np.full(2, i, dtype=np.float32)}) for i in range(n)
                ]
            )

            def eval_fn(ckpt, target, alpha, _t=trial, _q=quantize):
                v = mock_score(_t, alpha, _q)
                return Score(accuracy=v, mean_loss=v, num_samples=1)

            report = run_search(bank, eval_fn, None, SearchConfig(objective=objective))

            cands = [format(i, f"0{n}b") for i in range(1, 2**n)]
            sign = -1.0 if objective == "max_accuracy" else 1.0
            ref = min(
                cands,
                key=lambda b: (sign * mock_score(trial, b, quantize), b.count("1"), b),
            )
            assert report.best_alpha == ref, f"trial {trial}: {report.best_alpha} != {ref}"

            best_v = mock_score(trial, ref, quantize)
            if sum(1 for b in cands if mock_score(trial, b, quantize) == best_v) > 1:
                tie_trials += 1
        assert tie_trials >= 1, "no tie case was exercised"
        info["detail"] = f"50 mocks, {tie_trials} with ties at the optimum"


# ============================================================================
# 3. similarity metric oracle
# ============================================================================


def reference_similarity(target, pooled, metric_name):
    """Plain double loop over rows in python floats."""

    def cos(u, v):
        nu = sum(x * x for x in u) ** 0.5
        nv = sum(x * x for x in v) ** 0.5
        return sum(a * b for a, b in zip(u, v)) / (nu * nv)

    def l2(u, v):
        return sum((a - b) ** 2 for a, b in zip(u, v)) ** 0.5

    rows_t = [list(map(float, r)) for r in target]
    rows_m = [list(map(float, r)) for r in pooled]
    if metric_name == "avg_max_cos":
        return sum(max(cos(t, m) for m in rows_m) for t in rows_t) / len(rows_t)
    if metric_name == "avg_min_l2":
        return sum(min(l2(t, m) for m in rows_m) for t in rows_t) / len(rows_t)
    if metric_name == "avg_avg_cos":
        return sum(cos(t, m) for t in rows_t for m in rows_m) / (len(rows_t) * len(rows_m))
    if metric_name == "avg_avg_l2":
        return sum(l2(t, m) for t in rows_t for m in rows_m) / (len(rows_t) * len(rows_m))
    if metric_name == "max_max_cos":
        return max(cos(t, m) for t in rows_t for m in rows_m)
    if metric_name == "min_min_l2":
        return min(l2(t, m) for t in rows_t for m in rows_m)
    raise AssertionError(metric_name)


def test_criterion_3_similarity_metric_oracle(criterion):
    with criterion("3 similarity metric oracle", 30.0) as info:
        rng = np.random.default_rng(5150)
        scored = 0
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            t_rows = rng.standard_normal((int(rng.integers(1, 7)), dim)).astype(np.float32)
            m_rows = rng.standard_normal((int(rng.integers(1, 7)), dim)).astype(np.float32)
            target = EmbeddingSet(embeddings=t_rows, source_name="t")
            pooled = EmbeddingSet(embeddings=m_rows, source_name="m")
            values = {}
            for metric in SimilarityMetric:
                got = similarity_score(target, pooled, metric)
                want = reference_similarity(t_rows, m_rows, metric.value)
                assert abs(got - want) <= 1e-9, f"{metric.value}: {got} vs {want}"
                values[metric.value] = got
                scored += 1
            assert values["avg_max_cos"] >= values["avg_avg_cos"] - 1e-12
            assert values["min_min_l2"] <= values["avg_min_l2"] + 1e-12
            assert values["avg_min_l2"] <= values["avg_avg_l2"] + 1e-12
        info["detail"] = f"{scored} metric evaluations"


# ============================================================================
# 4. trainer gradient check
# ============================================================================


def test_criterion_4_trainer_gradient_check(criterion):
    with criterion("4 trainer gradient check", 10.0) as info:
        rng = np.random.default_rng(77)
        coords = 0
        for _ in range(20):
            input_dim = int(rng.integers(2, 5))
            hidden = int(rng.integers(2, 6))
            classes = int(rng.integers(2, 5))
            params = {
                "w1": rng.standard_normal((hidden, input_dim)),
                "b1": rng.standard_normal(hidden),
                "w2": rng.standard_normal((classes, hidden)),
                "b2": rng.standard_normal(classes),
            }
            x = rng.standard_normal((1, input_dim))
            y = np.array([int(rng.integers(classes))])
            _, grads = loss_and_grads(params, x, y)
            eps = 1e-6
            for name in params:
                flat = params[name].reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp, _ = loss_and_grads(params, x, y)
                    flat[idx] = orig - eps
                    lm, _ = loss_and_grads(params, x, y)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * eps)
                    an = grads[name].reshape(-1)[idx]
                    # absolute slack sits above central-difference roundoff;
                    # dead ReLUs and saturated softmax rows give near-zero
                    # gradients where pure relative error is all noise
                    assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an)) + 1e-8, f"{name}[{idx}]"
                    coords += 1
        info["detail"] = f"20 pairs, {coords} coordinates"


# ============================================================================
# 5. correlation reproduction
# ============================================================================


def test_criterion_5_correlation_reproduction(criterion):
    with criterion("5 correlation reproduction", 300.0) as info:
        report = run_benchmark(BenchConfig(), TrainConfig())
        merged_r = report.correlation.average_r
        sim_rs = {name: rep.average_r for name, rep in report.similarity_correlations.items()}
        best_metric, best_r = max(sim_rs.items(), key=lambda kv: (kv[1], kv[0]))

        assert merged_r >= 0.4, f"merged avg r {merged_r:.4f} below +0.4"
        assert merged_r > best_r, (
            f"merged avg r {merged_r:.4f} not above best similarity "
            f"({best_metric} {best_r:.4f})"
        )
        assert report.best_similarity_correlation_metric == best_metric
        assert abs(merged_r - SEED42_MERGED_AVG_R) < 1e-9, (
            f"regression anchor drifted: {merged_r!r}"
        )
        info["detail"] = f"merged r={merged_r:.3f} > {best_metric} r={best_r:.3f}"


# ============================================================================
# 6. selection-quality ordering
# ============================================================================


def test_criterion_6_selection_quality_ordering(criterion):
    with criterion("6 selection-quality ordering", 1500.0) as info:
        seeds = (1, 2, 3, 4, 5)
        sums = {}
        for seed in seeds:
            report = run_benchmark(
                dataclasses.replace(BenchConfig(), seed=seed),
                dataclasses.replace(TrainConfig(), seed=seed),
            )
            for table in report.per_target:
                acc = sums.setdefault(
                    table.target_name, {"mtm": 0.0, "random": 0.0, "all": 0.0}
                )
                acc["mtm"] += table.selections["merge_to_mix_finetuned"].test_accuracy
                acc["random"] += table.selections["random_mean"].test_accuracy
                acc["all"] += table.selections["all_datasets"].test_accuracy
                oracle_val = table.selections["oracle"].val_accuracy
                for method in ("merge_to_mix_finetuned", "all_datasets", "similarity", "random_mean"):
                    assert table.selections[method].val_accuracy <= oracle_val + 1e-12, (
                        f"seed {seed} {table.target_name}: {method} beats oracle on validation"
                    )

        beats_all = 0
        for name, acc in sorted(sums.items()):
            mtm = acc["mtm"] / len(seeds)
            rnd = acc["random"] / len(seeds)
            assert mtm >= rnd, f"{name}: mean mtm {mtm:.4f} < random mean {rnd:.4f}"
            beats_all += mtm >= acc["all"] / len(seeds)
        assert beats_all > len(sums) // 2, (
            f"mtm beats all-datasets on only {beats_all}/{len(sums)} targets"
        )
        info["detail"] = f"{len(seeds)} seeds, mtm >= all-data on {beats_all}/{len(sums)} targets"


# ============================================================================
# 7. format round-trip and protocol conformance
# ============================================================================


def raw_container(path, header_obj, data):
    header = json.dumps(header_obj, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(header)) + header + data)


def test_criterion_7_format_and_protocol(criterion, tmp_path):
    with criterion("7 format and protocol conformance", 10.0) as info:
        rng = np.random.default_rng(13)
        ckpt = Checkpoint(
            tensors={
                "w1": rng.standard_normal((3, 2)).astype(np.float32),
                "b1": rng.standard_normal(3).astype(np.float32),
            },
            metadata={"origin": "acceptance"},
        )
        path = tmp_path / "roundtrip.mtm"
        write_checkpoint(ckpt, path)
        back = read_checkpoint(path)
        for name, arr in ckpt.tensors.items():
            assert back.tensors[name].tobytes() == arr.tobytes()
        assert back.metadata == ckpt.metadata
        again = tmp_path / "again.mtm"
        write_checkpoint(back, again)
        assert again.read_bytes() == path.read_bytes(), "serialization is not canonical"

        pinned = tmp_path / "pinned.mtm"
        write_checkpoint(
            Checkpoint(tensors={"w": np.array([1.0, 2.0], dtype=np.float32)}), pinned
        )
        assert pinned.read_bytes()[-8:] == bytes.fromhex("0000803f00000040")

        bad = tmp_path / "bad.mtm"
        bad.write_bytes(struct.pack("<Q", 10_000) + b"{}")
        with pytest.raises(FormatError):
            read_checkpoint(bad)
        raw_container(
            bad,
            {
                "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
                "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
            },
            b"\x00" * 12,
        )
        with pytest.raises(FormatError):
            read_checkpoint(bad)
        raw_container(
            bad, {"a": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}}, b"\x00" * 8
        )
        with pytest.raises(FormatError):
            read_checkpoint(bad)
        raw_container(
            bad, {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}, b"\x00" * 8
        )
        with pytest.raises(FormatError):
            read_checkpoint(bad)

        def stub(body):
            script = tmp_path / f"stub{len(body)}.py"
            script.write_text(body)
            return f"{sys.executable} {script} {{checkpoint}} {{data}}"

        ok = stub("print('noise')\nprint('{\"accuracy\": 0.75, \"loss\": 0.5}')\n")
        score = evaluate_external("c.mtm", "d.ref", ok)
        assert (score.accuracy, score.mean_loss) == (0.75, 0.5)
        with pytest.raises(ExternalEvaluatorError, match="exit 3"):
            evaluate_external("c.mtm", "d.ref", stub("import sys\nsys.exit(3)\n"))
        with pytest.raises(ExternalEvaluatorError, match="accuracy"):
            evaluate_external(
                "c.mtm", "d.ref", stub("print('{\"accuracy\": 1.5, \"loss\": 0.1}')\n")
            )
        info["detail"] = "roundtrip, 4 rejections, 3 protocol cases"


# ============================================================================
# 8. bench determinism
# ============================================================================

BENCH_REPORT_FILES = (
    "report.json",
    "selections.csv",
    "mixtures.csv",
    "correlations.csv",
    "plot_data.csv",
)


def cli_command():
    exe = shutil.which("mergemix")
    if exe:
        return [exe]
    return [
        sys.executable,
        "-c",
        "import sys; from mergemix.cli import main; sys.exit(main(sys.argv[1:]))",
    ]


def test_criterion_8_bench_determinism(criterion, tmp_path):
    with criterion("8 bench determinism", 600.0) as info:
        base = cli_command()
        for run in ("run1", "run2"):
            proc = subprocess.run(
                base + ["bench", "--seed", "42", "--out", str(tmp_path / run)],
                capture_output=True,
                text=True,
                timeout=540,
            )
            assert proc.returncode == 0, proc.stderr
        for name in BENCH_REPORT_FILES:
            b1 = (tmp_path / "run1" / name).read_bytes()
            b2 = (tmp_path / "run2" / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"
        info["detail"] = f"{len(BENCH_REPORT_FILES)} report files byte-identical"
