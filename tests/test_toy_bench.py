"""Toy benchmark tests: universe generation, SGD training, gradients, and
the end-to-end run_benchmark structure at micro scale."""


import dataclasses
import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest

from mergemix import baselines
from mergemix import (
    BenchConfig,
    Checkpoint,
    CorrelationReport,
    MergeMixError,
    TrainConfig,
    ValidationError,
    checkpoint_equal,
    evaluate_builtin,
    generate_universe,
    pretrain_base,
    run_benchmark,
    train,
)
from mergemix.evaluator import EvalDataset
from mergemix.merge_engine import code_bits, gray_codes
from mergemix.toy_bench import (
    MAX_BENCH_N,
    _embeddings,
    _finetune_mixtures,
    init_checkpoint,
    loss_and_grads,
    train_many,
)

MICRO_BENCH = BenchConfig(
    num_datasets=3,
    num_clusters=4,
    clusters_per_dataset=2,
    samples_per_dataset=120,
    num_targets=2,
    clusters_per_target=2,
    seed=11,
)
MICRO_TRAIN = TrainConfig(epochs=3, seed=11)


# ============================================================================
# Config guards
# ============================================================================


def test_bench_config_guards():
    with pytest.raises(ValidationError):
        BenchConfig(clusters_per_dataset=9, num_clusters=8)
    with pytest.raises(ValidationError):
        BenchConfig(clusters_per_target=9, num_clusters=8)
    with pytest.raises(ValidationError):
        BenchConfig(num_datasets=21)
    with pytest.raises(ValidationError):
        BenchConfig(samples_per_dataset=5)
    with pytest.raises(ValidationError):
        BenchConfig(embedding_source="latent")
    for noise in (math.nan, math.inf, -1.0):
        with pytest.raises(ValidationError, match=f"^cluster_noise must be finite and >= 0, got {noise}$"):
            BenchConfig(cluster_noise=noise)


def test_bench_config_allows_one_target_per_philox_stream():
    """Target t picks from stream 200 + t and draws from 300 + t, so a 101st target would pick from target 0's data stream."""
    universe = generate_universe(BenchConfig(num_datasets=3, num_targets=100, samples_per_dataset=10))
    assert len(universe.targets) == 100
    with pytest.raises(ValidationError, match="^num_targets must be <= 100$"):
        BenchConfig(num_datasets=3, num_targets=101)


def test_train_config_guards():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.0)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValidationError, match=f"^learning_rate must be finite and positive, got {rate}$"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(hidden_dim=0)


def test_default_configs_match_documented_values():
    b = BenchConfig()
    assert (b.input_dim, b.num_clusters, b.num_datasets) == (10, 8, 5)
    assert (b.clusters_per_dataset, b.samples_per_dataset) == (3, 2000)
    assert (b.cluster_noise, b.num_targets, b.clusters_per_target, b.seed) == (0.3, 4, 4, 42)
    t = TrainConfig()
    assert (t.epochs, t.learning_rate, t.batch_size, t.hidden_dim) == (10, 0.05, 64, 32)


# ============================================================================
# generate_universe
# ============================================================================


def test_universe_deterministic():
    u1 = generate_universe(MICRO_BENCH)
    u2 = generate_universe(MICRO_BENCH)
    for d1, d2 in zip(u1.datasets, u2.datasets):
        assert d1.train.features.tobytes() == d2.train.features.tobytes()
        assert list(d1.train.labels) == list(d2.train.labels)
        assert d1.cluster_ids == d2.cluster_ids
    for t1, t2 in zip(u1.targets, u2.targets):
        assert t1.val.features.tobytes() == t2.val.features.tobytes()
        assert t1.cluster_ids == t2.cluster_ids


def test_universe_labels_and_split_sizes():
    u = generate_universe(MICRO_BENCH)
    for d in u.datasets:
        total = len(d.train.labels) + len(d.val.labels) + len(d.test.labels)
        assert total == MICRO_BENCH.samples_per_dataset
        for split in (d.train, d.val, d.test):
            assert split.features.dtype == np.float32
            assert all(0 <= y < MICRO_BENCH.num_clusters for y in split.labels)
        assert len(d.train.labels) == int(MICRO_BENCH.samples_per_dataset * 0.8)
        assert len(d.val.labels) == int(MICRO_BENCH.samples_per_dataset * 0.1)


def test_universe_targets_from_dataset_unions():
    u = generate_universe(MICRO_BENCH)
    for t in u.targets:
        union = set()
        for s in t.source_datasets:
            union.update(u.datasets[s].cluster_ids)
        assert set(t.cluster_ids) <= union
        assert 2 <= len(t.source_datasets) <= 3


def test_universe_dataset_clusters_are_subsets():
    u = generate_universe(MICRO_BENCH)
    for d in u.datasets:
        assert len(d.cluster_ids) == MICRO_BENCH.clusters_per_dataset
        assert len(set(d.cluster_ids)) == len(d.cluster_ids)


def test_zero_noise_puts_samples_on_centers():
    cfg = BenchConfig(
        num_datasets=2,
        num_clusters=3,
        clusters_per_dataset=2,
        samples_per_dataset=30,
        cluster_noise=0.0,
        num_targets=1,
        clusters_per_target=2,
        seed=3,
    )
    u = generate_universe(cfg)
    for d in u.datasets:
        for row, label in zip(d.train.features, d.train.labels):
            assert np.allclose(row, u.centers[label].astype(np.float32), atol=1e-6)


def test_embeddings_cover_datasets_and_targets():
    u = generate_universe(MICRO_BENCH)
    base = pretrain_base(u, MICRO_TRAIN)
    dataset_embs, target_embs = _embeddings(u, base, "raw")
    assert len(dataset_embs) == MICRO_BENCH.num_datasets
    assert len(target_embs) == MICRO_BENCH.num_targets
    for e in dataset_embs + target_embs:
        assert e.embeddings.shape[1] == MICRO_BENCH.input_dim
    for e, task in zip(dataset_embs + target_embs, u.datasets + u.targets):
        assert e.source_name == task.name
        assert np.array_equal(e.embeddings, task.val.features)


# ============================================================================
# Training
# ============================================================================


def separable_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n // 2, 2)) * 0.2 + np.array([2.0, 0.0])
    x1 = rng.standard_normal((n // 2, 2)) * 0.2 + np.array([-2.0, 0.0])
    x = np.concatenate([x0, x1]).astype(np.float32)
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return EvalDataset(features=x, labels=list(y), num_classes=2, name="sep")


def test_zero_epochs_is_identity():
    data = separable_dataset()
    init = init_checkpoint(np.random.default_rng(1), 2, 4, 2)
    out = train(init, data, TrainConfig(epochs=0, seed=0))
    assert checkpoint_equal(init, out)


def test_training_learns_separable_data():
    data = separable_dataset()
    init = init_checkpoint(np.random.default_rng(1), 2, 8, 2)
    cfg = TrainConfig(epochs=10, learning_rate=0.05, batch_size=16, hidden_dim=8, seed=0)
    before = evaluate_builtin(init, data)
    after_ckpt = train(init, data, cfg)
    after = evaluate_builtin(after_ckpt, data)
    assert after.accuracy >= 0.95
    assert after.mean_loss < before.mean_loss


def test_training_deterministic():
    data = separable_dataset()
    init = init_checkpoint(np.random.default_rng(5), 2, 4, 2)
    # batch smaller than the dataset, otherwise shuffling cannot matter
    cfg = TrainConfig(epochs=4, batch_size=16, seed=9)
    a = train(init, data, cfg, run_key=3)
    b = train(init, data, cfg, run_key=3)
    assert checkpoint_equal(a, b)
    c = train(init, data, cfg, run_key=4)
    assert not checkpoint_equal(a, c)


def test_gradients_match_finite_differences():
    """Central finite differences on every parameter of a tiny MLP."""
    rng = np.random.default_rng(12)
    params = {
        "w1": rng.standard_normal((3, 2)),
        "b1": rng.standard_normal(3),
        "w2": rng.standard_normal((2, 3)),
        "b2": rng.standard_normal(2),
    }
    x = rng.standard_normal((1, 2))
    y = np.array([1])
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
            # absolute slack above FD roundoff; near-zero gradients from dead
            # ReLUs or saturated softmax rows are pure noise in relative terms
            assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an)) + 1e-8, (
                f"{name}[{idx}]: fd={fd} an={an}"
            )


def reference_train(init, data, cfg, run_key):
    """The one-run SGD loop on 2-D arrays, kept apart from the package as the
    reference that the stacked lockstep trainer must match bit for bit."""
    params = {name: arr.astype(np.float64) for name, arr in init.tensors.items()}
    x, y = data.features.astype(np.float64), data.labels
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, (1 << 32) + run_key]))
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            sel = perm[start : start + cfg.batch_size]
            xb, yb = x[sel], y[sel]
            z1 = xb @ params["w1"].T + params["b1"]
            h = np.maximum(z1, 0.0)
            logits = h @ params["w2"].T + params["b2"]
            exp = np.exp(logits - logits.max(axis=1, keepdims=True))
            dlogits = exp / exp.sum(axis=1, keepdims=True)
            dlogits[np.arange(len(yb)), yb] -= 1.0
            dlogits /= len(yb)
            dz1 = (dlogits @ params["w2"]) * (z1 > 0.0)
            grads = {
                "w1": dz1.T @ xb,
                "b1": dz1.sum(axis=0),
                "w2": dlogits.T @ h,
                "b2": dlogits.sum(axis=0),
            }
            for name in params:
                params[name] -= cfg.learning_rate * grads[name]
    return Checkpoint(tensors={name: arr.astype(np.float32) for name, arr in params.items()})


@pytest.mark.parametrize(
    "samples, batch_size",
    [(120, 32), (130, 16)],  # 96 train rows: whole batches; 104 rows: a last batch of 8
)
def test_train_many_matches_train_for_every_size(samples, batch_size):
    cfg_bench = BenchConfig(
        num_datasets=4,
        num_clusters=4,
        clusters_per_dataset=2,
        samples_per_dataset=samples,
        num_targets=1,
        clusters_per_target=2,
        seed=7,
    )
    u = generate_universe(cfg_bench)
    cfg = TrainConfig(epochs=2, batch_size=batch_size, hidden_dim=8, seed=7)
    base = pretrain_base(u, cfg)
    parts = [d.train for d in u.datasets]
    for k in range(1, 5):
        selections = list(itertools.combinations(range(4), k))
        keys = [sum(1 << (3 - i) for i in sel) for sel in selections]
        lockstep = train_many(base, parts, selections, cfg, keys)
        assert list(lockstep) == list(base.tensors)
        for name, runs in lockstep.items():
            assert runs.dtype == np.float32 and runs.flags.c_contiguous
            assert runs.shape == (len(selections), *base.tensors[name].shape)
        for r, (sel, key) in enumerate(zip(selections, keys)):
            got = Checkpoint(tensors={name: runs[r] for name, runs in lockstep.items()})
            mix = concat_datasets([parts[i] for i in sel], "mix")
            want = reference_train(base, mix, cfg, key)
            assert checkpoint_equal(got, want), (k, sel)
            assert checkpoint_equal(train(base, mix, cfg, run_key=key), want), (k, sel)


def test_train_many_rejects_mismatched_runs():
    init = init_checkpoint(np.random.default_rng(1), 2, 4, 2)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    a, b = separable_dataset(60, seed=1), separable_dataset(40, seed=2)
    with pytest.raises(ValidationError, match="equal row counts"):
        train_many(init, [a, b], [(0,), (1,)], cfg, [1, 2])
    wide = EvalDataset(
        features=np.zeros((60, 3), dtype=np.float32),
        labels=[0] * 60,
        num_classes=2,
        name="wide",
    )
    with pytest.raises(ValidationError, match="feature dim"):
        train_many(init, [a, wide], [(0,)], cfg, [1])
    three_class = EvalDataset(
        features=a.features, labels=a.labels, num_classes=3, name="c3"
    )
    with pytest.raises(ValidationError, match="classes"):
        train_many(init, [three_class], [(0,)], cfg, [1])
    with pytest.raises(ValidationError, match="run keys"):
        train_many(init, [a], [(0,)], cfg, [1, 2])


def concat_datasets(parts, name):
    """Concatenate datasets in the given (ascending dataset index) order."""
    if not parts:
        raise ValidationError("nothing to concatenate")
    classes = {p.num_classes for p in parts}
    if len(classes) != 1:
        raise ValidationError("datasets disagree on num_classes")
    return EvalDataset(
        features=np.concatenate([p.features for p in parts], axis=0),
        labels=np.concatenate([p.labels for p in parts], axis=0),
        num_classes=classes.pop(),
        name=name,
    )


def test_concat_datasets_orders_and_checks():
    a = separable_dataset(seed=1)
    b = separable_dataset(seed=2)
    cat = concat_datasets([a, b], "both")
    assert len(cat.labels) == len(a.labels) + len(b.labels)
    assert np.array_equal(cat.features[: len(a.labels)], a.features)
    with pytest.raises(ValidationError):
        concat_datasets([], "none")


# ============================================================================
# pretrain_base
# ============================================================================


def test_pretrain_deterministic_and_above_chance():
    u = generate_universe(MICRO_BENCH)
    base1 = pretrain_base(u, MICRO_TRAIN)
    base2 = pretrain_base(u, MICRO_TRAIN)
    assert checkpoint_equal(base1, base2)
    assert set(base1.tensors) == {"w1", "b1", "w2", "b2"}
    chance = 1.0 / MICRO_BENCH.num_clusters
    for t in u.targets:
        score = evaluate_builtin(base1, t.test)
        assert score.accuracy > chance


# ============================================================================
# run_benchmark
# ============================================================================


def test_micro_benchmark_structure():
    report = run_benchmark(MICRO_BENCH, MICRO_TRAIN)
    n_mixtures = 2**MICRO_BENCH.num_datasets - 1
    assert len(report.per_target) == MICRO_BENCH.num_targets
    for table in report.per_target:
        for columns in (table.merged_val, table.merged_test, table.finetuned_val, table.finetuned_test):
            assert len(columns) == n_mixtures
        assert set(table.selections) == set(report.SELECTION_METHODS)
        # singleton surrogate and ground truth are the same checkpoint
        for merged, tuned in zip(table.merged_val, table.finetuned_val):
            assert merged.alpha == tuned.alpha
            if merged.alpha.count("1") == 1:
                assert merged.merged_score == tuned.merged_score
        oracle_val = table.selections["oracle"].val_accuracy
        for method in report.SELECTION_METHODS:
            if method != "oracle":
                assert table.selections[method].val_accuracy <= oracle_val + 1e-12


def test_bench_builds_one_distance_matrix_per_target_dataset_and_kind():
    """An N=3 bench over 4 targets needs a cosine and an L2 matrix for each of
    its 12 (target, dataset) pairs: 24 _pairwise calls. One table per metric,
    each building its own matrices, made 72."""
    kinds = []
    real = baselines._pairwise

    def counted(target, ds, metric):
        kinds.append(metric.direction)
        return real(target, ds, metric)

    with mock.patch.object(baselines, "_pairwise", counted):
        run_benchmark(dataclasses.replace(MICRO_BENCH, num_targets=4), MICRO_TRAIN)
    assert len(kinds) == 24
    assert kinds.count("maximize") == kinds.count("minimize") == 12


def test_target_table_outcome_reads_the_mixtures_row():
    """outcome(row) reads the mixture of that row in Gray order, from the fine-tuned and the merged columns."""
    report = run_benchmark(MICRO_BENCH, MICRO_TRAIN)
    n = MICRO_BENCH.num_datasets
    for table in report.per_target:
        columns = (table.merged_val, table.merged_test, table.finetuned_val, table.finetuned_test)
        for row, (merged_val, merged_test, tuned_val, tuned_test) in enumerate(zip(*columns)):
            bits = merged_val.alpha
            assert merged_test.alpha == tuned_val.alpha == tuned_test.alpha == bits
            assert bits == code_bits(n, int(gray_codes(n)[row]))
            tuned = table.outcome("oracle", row)
            assert (tuned.val_accuracy, tuned.test_accuracy) == (
                tuned_val.merged_score.accuracy,
                tuned_test.merged_score.accuracy,
            ), bits
            merged = table.outcome("merge_to_mix_merged", row, merged=True)
            assert (merged.val_accuracy, merged.test_accuracy) == (
                merged_val.merged_score.accuracy,
                merged_test.merged_score.accuracy,
            ), bits
            assert merged.mixture_bits == tuned.mixture_bits == bits


def test_bench_parses_no_mixture_text(monkeypatch, tmp_path):
    """Every selection is a row, so no bit string is read back between the search and the files."""

    def refuse(n, bits):
        raise AssertionError(f"bits_code({n}, {bits!r}) called")

    for name, module in list(sys.modules.items()):
        if (name == "mergemix" or name.startswith("mergemix.")) and hasattr(module, "bits_code"):
            monkeypatch.setattr(module, "bits_code", refuse)
    report = run_benchmark(MICRO_BENCH, MICRO_TRAIN)
    report.write_files(tmp_path)
    for table in report.per_target:
        assert set(table.selections) == set(report.SELECTION_METHODS)
        assert table.selections["all_datasets"].mixture_bits == "1" * MICRO_BENCH.num_datasets


def test_finetune_mixtures_returns_each_codes_own_run():
    """Row r of each stacked tensor is a lone train of codes[r]'s selection, keyed by codes[r]."""
    universe = generate_universe(MICRO_BENCH)
    base = pretrain_base(universe, MICRO_TRAIN)
    parts = [d.train for d in universe.datasets]
    n = MICRO_BENCH.num_datasets
    codes = gray_codes(n)
    models = _finetune_mixtures(base, parts, codes, MICRO_TRAIN)
    assert list(models) == list(base.tensors)
    for name, rows in models.items():
        assert rows.dtype == np.float32 and rows.flags.c_contiguous
        assert rows.shape == (len(codes), *base.tensors[name].shape)
    for r, code in enumerate(codes.tolist()):
        mix = concat_datasets([parts[i] for i, bit in enumerate(code_bits(n, code)) if bit == "1"], "mix")
        alone = train(base, mix, MICRO_TRAIN, run_key=code)
        model = Checkpoint(tensors={name: rows[r] for name, rows in models.items()})
        assert checkpoint_equal(model, alone), code_bits(n, code)


def test_micro_benchmark_reproducible():
    r1 = run_benchmark(MICRO_BENCH, MICRO_TRAIN)
    r2 = run_benchmark(MICRO_BENCH, MICRO_TRAIN)
    import json

    assert json.dumps(r1.to_json_obj(), sort_keys=True) == json.dumps(
        r2.to_json_obj(), sort_keys=True
    )


def test_benchmark_raises_when_a_method_beats_the_oracle(monkeypatch):
    from mergemix import toy_bench

    real = toy_bench.SelectionOutcome

    def outcome(method, bits, val_accuracy, test_accuracy, detail=""):
        if method == "random_mean":
            val_accuracy = 2.0
        return real(method, bits, val_accuracy, test_accuracy, detail)

    monkeypatch.setattr(toy_bench, "SelectionOutcome", outcome)
    with pytest.raises(MergeMixError, match="target T1: random_mean .* exceeds the oracle"):
        run_benchmark(MICRO_BENCH, MICRO_TRAIN)


def test_best_similarity_metric_ties_resolve_to_canonical_order(monkeypatch):
    from mergemix import toy_bench

    tied = CorrelationReport(
        per_task={"T1": 0.5, "T2": 0.5}, average_r=0.5, excluded_count=0, skipped_tasks=[], n_pairs={"T1": 3, "T2": 3}
    )
    monkeypatch.setattr(toy_bench, "correlate_tasks", lambda inputs: tied)
    report = run_benchmark(MICRO_BENCH, MICRO_TRAIN)
    assert report.best_similarity_correlation_metric == "avg_max_cos"
    assert report.best_similarity_correlation_r == 0.5


def test_bench_correlates_the_test_accuracy_columns(monkeypatch):
    """The raw series pairs each target's merged and fine-tuned test accuracy columns, sized by bit count;
    every input of the bench shares one sizes array."""
    from mergemix import toy_bench

    calls = []
    real = toy_bench.correlate_tasks
    monkeypatch.setattr(toy_bench, "correlate_tasks", lambda inputs: calls.append(inputs) or real(inputs))
    report = run_benchmark(MICRO_BENCH, MICRO_TRAIN)
    assert len(calls) == 2 + len(baselines.SimilarityMetric)
    raw = calls[0]
    assert [item.task_name for item in raw] == report.target_names
    sizes = [code.bit_count() for code in gray_codes(MICRO_BENCH.num_datasets).tolist()]
    for item, table in zip(raw, report.per_target):
        assert item.x.tolist() == table.merged_test.accuracy.tolist()
        assert item.y.tolist() == table.finetuned_test.accuracy.tolist()
        assert item.n_selected.tolist() == sizes
    assert len({id(item.n_selected) for inputs in calls for item in inputs}) == 1
    assert real(raw) == report.correlation


def test_trainer_and_scorer_compute_one_network():
    """The trainer's loss is the scorer's mean loss, bit for bit."""
    universe = generate_universe(MICRO_BENCH)
    base = pretrain_base(universe, MICRO_TRAIN)
    models = [base] + [train(base, d.train, MICRO_TRAIN, i + 1) for i, d in enumerate(universe.datasets)]
    splits = [s for d in universe.datasets for s in (d.train, d.val, d.test)]
    splits += [s for t in universe.targets for s in (t.val, t.test)]
    for model in models:
        params = {name: arr.astype(np.float64) for name, arr in model.tensors.items()}
        for data in splits:
            loss, _ = loss_and_grads(params, data.features.astype(np.float64), data.labels)
            assert evaluate_builtin(model, data).mean_loss == loss, data.name


def test_benchmark_rejects_large_n():
    cfg = BenchConfig(num_datasets=MAX_BENCH_N + 1, num_clusters=MAX_BENCH_N + 2)
    with pytest.raises(ValidationError, match="infeasible"):
        run_benchmark(cfg, MICRO_TRAIN)


def test_benchmark_raw_embedding_source():
    cfg = BenchConfig(
        num_datasets=3,
        num_clusters=4,
        clusters_per_dataset=2,
        samples_per_dataset=60,
        num_targets=1,
        clusters_per_target=2,
        seed=5,
        embedding_source="raw",
    )
    report = run_benchmark(cfg, TrainConfig(epochs=2, seed=5))
    assert report.per_target[0].selections["similarity"].mixture_bits
