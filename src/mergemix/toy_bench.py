"""Desk-scale end-to-end benchmark on synthetic cluster-classification tasks.

A universe of C Gaussian clusters yields N overlapping datasets and a few
held-out targets whose clusters come from a subset of the datasets. A small
MLP is fine-tuned per dataset and per mixture from a shared briefly
pretrained base, so uniform merging of the per-dataset models can be
compared against true mixture fine-tuning on every candidate mixture.

All randomness flows through Philox (a 64-bit counter-based generator) keyed
by (seed, stream), so runs are bit-reproducible across platforms. Universe
generation uses small stream ids; a training run's stream is 2**32 plus its
mixture code (an entry of merge_engine.gray_codes, whose text code_bits
writes), so the two spaces never collide.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import (
    CorrelationInput,
    CorrelationReport,
    correlate_tasks,
    emit_report,
    finite_or_none,
    write_csv,
    write_plot_csv,
)
from .baselines import SimilarityMetric, similarity_tables
from .errors import MergeMixError, ValidationError
from .evaluator import (
    TOY_TENSORS,
    EvalDataset,
    check_toy_target,
    evaluate_builtin,
    logit_improvement,
    shift_by_row_max,
    toy_mlp_dims,
    toy_mlp_hidden,
    toy_mlp_logits,
)
from .merge_engine import MAX_ENUMERATION_N, ModelBank, code_bits, code_datasets, gray_codes, gray_rank, mixture_rows
from .mixture_search import ScoreColumns, best_row, builtin_scores, checkpoint_scores, records_json
from .tensor_store import Checkpoint, EmbeddingSet

# Philox stream ids for universe generation (train streams live at >= 1 << 32)
_STREAM_CENTERS = 1
_STREAM_DATASET_BASE = 100
_STREAM_TARGET_PICK_BASE = 200
_STREAM_TARGET_DATA_BASE = 300
_STREAM_BASE_POOL = 400
_STREAM_INIT = 500
_STREAM_TRAIN_BASE = 1 << 32

_BASE_POOL_PER_CLUSTER = 100

# Runs trained in lockstep per train_many call. Step time stops improving
# past about 8 runs while memory keeps growing with the stack.
_LOCKSTEP_CHUNK = 8

# Targets are distribution-shifted: same clusters and labels as the candidate
# datasets, but sampled with wider noise. Without the shift every model sits
# at ceiling accuracy and mixture choice stops mattering.
TARGET_NOISE_SCALE = 5.0

EMBEDDING_SOURCES = ("hidden", "raw")

# a bench fine-tunes all 2^N - 1 mixtures, so its N is bounded by training
# cost, well below the enumeration limit
MAX_BENCH_N = 12

BENCH_FILES = ("report.json", "selections.csv", "mixtures.csv", "correlations.csv", "plot_data.csv")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))


@dataclass
class BenchConfig:
    input_dim: int = 10
    num_clusters: int = 8
    num_datasets: int = 5
    clusters_per_dataset: int = 3
    samples_per_dataset: int = 2000
    cluster_noise: float = 0.3
    num_targets: int = 4
    clusters_per_target: int = 4
    seed: int = 42
    embedding_source: str = "hidden"

    def __post_init__(self) -> None:
        for name in (
            "input_dim",
            "num_clusters",
            "num_datasets",
            "clusters_per_dataset",
            "samples_per_dataset",
            "num_targets",
            "clusters_per_target",
        ):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.samples_per_dataset < 10:
            raise ValidationError("samples_per_dataset must be >= 10 so every split is non-empty")
        if self.clusters_per_dataset > self.num_clusters:
            raise ValidationError("clusters_per_dataset must not exceed num_clusters")
        if self.clusters_per_target > self.num_clusters:
            raise ValidationError("clusters_per_target must not exceed num_clusters")
        if self.num_datasets > MAX_ENUMERATION_N:
            raise ValidationError(f"num_datasets must be <= {MAX_ENUMERATION_N}")
        if self.num_targets > _STREAM_TARGET_DATA_BASE - _STREAM_TARGET_PICK_BASE:  # else target streams collide
            raise ValidationError(f"num_targets must be <= {_STREAM_TARGET_DATA_BASE - _STREAM_TARGET_PICK_BASE}")
        if not 0.0 <= self.cluster_noise < math.inf:
            raise ValidationError(f"cluster_noise must be finite and >= 0, got {self.cluster_noise}")
        if self.seed < 0:
            raise ValidationError("seed must be an unsigned integer")
        if self.embedding_source not in EMBEDDING_SOURCES:
            raise ValidationError(f"embedding_source must be one of {EMBEDDING_SOURCES}")


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.05
    batch_size: int = 64
    hidden_dim: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValidationError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 1 or self.hidden_dim < 1:
            raise ValidationError("batch_size, hidden_dim must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be an unsigned integer")


@dataclass
class DatasetTriple:
    name: str
    train: EvalDataset
    val: EvalDataset
    test: EvalDataset
    cluster_ids: tuple[int, ...]


@dataclass
class TargetPair:
    name: str
    val: EvalDataset
    test: EvalDataset
    cluster_ids: tuple[int, ...]
    source_datasets: tuple[int, ...]


@dataclass(eq=False)
class Universe:
    datasets: list[DatasetTriple]
    targets: list[TargetPair]
    base_pool: EvalDataset
    centers: np.ndarray
    config: BenchConfig


def _dataset_clusters(cfg: BenchConfig, i: int) -> tuple[int, ...]:
    """Round-robin deal: dataset i owns clusters (i + j*N) mod C, deduplicated."""
    c, n = cfg.num_clusters, cfg.num_datasets
    picked: list[int] = []
    for j in range(c):
        cand = (i + j * n) % c
        if cand not in picked:
            picked.append(cand)
        if len(picked) == cfg.clusters_per_dataset:
            return tuple(picked)
    for j in range(c):  # degenerate gcd cycles: fill with a plain scan
        cand = (i + j) % c
        if cand not in picked:
            picked.append(cand)
        if len(picked) == cfg.clusters_per_dataset:
            break
    return tuple(picked)


def _sample_clusters(
    rng: np.random.Generator,
    centers: np.ndarray,
    cluster_ids: tuple[int, ...],
    total: int,
    noise: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw `total` samples split as evenly as possible across cluster_ids."""
    k = len(cluster_ids)
    base, rem = divmod(total, k)
    counts = [base + (1 if j < rem else 0) for j in range(k)]
    xs, ys = [], []
    for cid, count in zip(cluster_ids, counts):
        if count == 0:
            continue
        pts = centers[cid] + noise * rng.standard_normal((count, centers.shape[1]))
        xs.append(pts)
        ys.append(np.full(count, cid, dtype=np.int64))
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    perm = rng.permutation(total)
    return x[perm].astype(np.float32), y[perm]


def generate_universe(cfg: BenchConfig) -> Universe:
    """Synthesize datasets, targets and the base model's pretraining pool.

    Targets draw their clusters from the union of 2-3 datasets' clusters, so
    every target overlaps some datasets and ignores others.
    """
    c, d, n = cfg.num_clusters, cfg.input_dim, cfg.num_datasets
    centers = 2.0 * _rng(cfg.seed, _STREAM_CENTERS).standard_normal((c, d))

    datasets: list[DatasetTriple] = []
    for i in range(n):
        clusters = _dataset_clusters(cfg, i)
        rng = _rng(cfg.seed, _STREAM_DATASET_BASE + i)
        x, y = _sample_clusters(rng, centers, clusters, cfg.samples_per_dataset, cfg.cluster_noise)
        n_train = int(cfg.samples_per_dataset * 0.8)
        n_val = int(cfg.samples_per_dataset * 0.1)
        name = f"D{i + 1}"
        triple = DatasetTriple(
            name=name,
            train=EvalDataset(x[:n_train], y[:n_train], c, name),
            val=EvalDataset(x[n_train : n_train + n_val], y[n_train : n_train + n_val], c, name),
            test=EvalDataset(x[n_train + n_val :], y[n_train + n_val :], c, name),
            cluster_ids=clusters,
        )
        datasets.append(triple)

    targets: list[TargetPair] = []
    per_split = max(1, cfg.samples_per_dataset // 10)
    for t in range(cfg.num_targets):
        pick = _rng(cfg.seed, _STREAM_TARGET_PICK_BASE + t)
        n_src = int(pick.integers(2, 4)) if n >= 3 else min(2, n)
        n_src = min(n_src, n)
        sources = tuple(sorted(int(s) for s in pick.choice(n, size=n_src, replace=False)))
        union = sorted({cid for s in sources for cid in datasets[s].cluster_ids})
        k = min(cfg.clusters_per_target, len(union))
        clusters = tuple(sorted(int(x) for x in pick.choice(union, size=k, replace=False)))
        data_rng = _rng(cfg.seed, _STREAM_TARGET_DATA_BASE + t)
        noise = cfg.cluster_noise * TARGET_NOISE_SCALE
        x, y = _sample_clusters(data_rng, centers, clusters, 2 * per_split, noise)
        name = f"T{t + 1}"
        pair = TargetPair(
            name=name,
            val=EvalDataset(x[:per_split], y[:per_split], c, name),
            test=EvalDataset(x[per_split:], y[per_split:], c, name),
            cluster_ids=clusters,
            source_datasets=sources,
        )
        targets.append(pair)

    pool_rng = _rng(cfg.seed, _STREAM_BASE_POOL)
    pool_x, pool_y = _sample_clusters(
        pool_rng, centers, tuple(range(c)), _BASE_POOL_PER_CLUSTER * c, cfg.cluster_noise
    )
    base_pool = EvalDataset(pool_x, pool_y, c, "base_pool")

    return Universe(datasets=datasets, targets=targets, base_pool=base_pool, centers=centers, config=cfg)


# ---------------------------------------------------------------------------
# toy MLP training


def _backward(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    y: np.ndarray,
    hidden: np.ndarray,
    exp: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of each run's mean softmax cross-entropy; y is [M,b].

    hidden and exp (of the row-max shifted logits) come from the stacked
    forward pass of evaluator.toy_mlp_logits.
    """
    runs, batch = y.shape
    dlogits = exp / exp.sum(axis=2, keepdims=True)
    dlogits[np.arange(runs)[:, None], np.arange(batch), y] -= 1.0
    dlogits /= batch
    dh = np.matmul(dlogits, params["w2"])
    dz1 = dh * (hidden > 0.0)
    return {
        "w1": np.matmul(dz1.transpose(0, 2, 1), x),
        "b1": dz1.sum(axis=1),
        "w2": np.matmul(dlogits.transpose(0, 2, 1), hidden),
        "b2": dlogits.sum(axis=1),
    }


def loss_and_grads(
    params: dict[str, np.ndarray], x: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean softmax cross-entropy over a batch and its analytic gradients.

    params holds float64 arrays w1 [h,in], b1 [h], w2 [c,h], b2 [c];
    x is [b, in], y is [b] integer labels. The gradients come from the
    stacked code the trainer runs, as a stack of one.
    """
    stacked = {name: params[name][None] for name in TOY_TENSORS}
    x1, y1 = x[None], np.asarray(y)[None]
    hidden, logits = toy_mlp_logits(x1, *stacked.values())
    shifted = shift_by_row_max(logits)
    picked = shifted[0, np.arange(x.shape[0]), y]
    exp = np.exp(shifted, out=shifted)
    loss = float(np.mean(np.log(exp[0].sum(axis=1)) - picked))
    grads = _backward(stacked, x1, y1, hidden, exp)
    return loss, {name: g[0] for name, g in grads.items()}


def train_many(
    init: Checkpoint,
    parts: list[EvalDataset],
    selections: list[tuple[int, ...]],
    cfg: TrainConfig,
    run_keys: list[int],
) -> dict[str, np.ndarray]:
    """Run one SGD fine-tune per selection, all in lockstep.

    Run r trains from init on the concatenation of parts[i] for i in
    selections[r], in that order, with the Philox stream of run_keys[r].
    Every run must see the same number of rows, so all runs share batch
    boundaries and step counts. Each run's result is bit-identical to
    training it alone. Returns {tensor: float32 [runs, ...]}, row r
    holding run r's parameters. A step that overflows, divides by zero or
    makes a NaN, or a weight past float32, raises ValidationError naming
    the epoch and learning_rate.
    """
    if len(selections) != len(run_keys):
        raise ValidationError(f"{len(selections)} selections but {len(run_keys)} run keys")
    toy_mlp_dims(init)
    params = {name: arr.astype(np.float64) for name, arr in init.tensors.items()}
    for part in parts:
        check_toy_target(init, part)
    if not selections:
        return {name: np.empty((0, *arr.shape), dtype=np.float32) for name, arr in params.items()}
    sizes = [len(part) for part in parts]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    for sel in selections:
        if any(not 0 <= i < len(parts) for i in sel):
            raise ValidationError(f"selection {tuple(sel)} indexes outside {len(parts)} datasets")
    lengths = {sum(sizes[i] for i in sel) for sel in selections}
    if len(lengths) != 1:
        raise ValidationError(f"lockstep runs need equal row counts, got {sorted(lengths)}")
    n = lengths.pop()
    if n == 0:
        raise ValidationError("empty training data")

    # one pooled float64 copy; a run's rows index into it, in concat order
    x = np.concatenate([part.features for part in parts]).astype(np.float64)
    y = np.concatenate([part.labels for part in parts])
    rows = [np.concatenate([np.arange(starts[i], ends[i]) for i in sel]) for sel in selections]
    runs = len(selections)
    stacked = {name: np.repeat(arr[None], runs, axis=0) for name, arr in params.items()}
    weights = [stacked[name] for name in TOY_TENSORS]
    rngs = [_rng(cfg.seed, _STREAM_TRAIN_BASE + key) for key in run_keys]
    epoch = 0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(1, cfg.epochs + 1):
                order = np.stack([r[rng.permutation(n)] for r, rng in zip(rows, rngs)])
                for start in range(0, n, cfg.batch_size):
                    sel = order[:, start : start + cfg.batch_size]
                    xb = x[sel]
                    hidden, logits = toy_mlp_logits(xb, *weights)
                    exp = np.exp(shift_by_row_max(logits), out=logits)
                    grads = _backward(stacked, xb, y[sel], hidden, exp)
                    for name in stacked:
                        stacked[name] -= cfg.learning_rate * grads[name]
            return {name: arr.astype(np.float32) for name, arr in stacked.items()}
    except FloatingPointError as exc:
        raise ValidationError(
            f"training diverged in epoch {epoch} of {cfg.epochs} at learning_rate {cfg.learning_rate}: {exc}"
        ) from exc


def train(init: Checkpoint, data: EvalDataset, cfg: TrainConfig, run_key: int = 0) -> Checkpoint:
    """Minibatch SGD on softmax cross-entropy for exactly cfg.epochs epochs.

    No early stopping, no schedule, no weight decay. The sample order is
    reshuffled every epoch from the run generator, so results are
    deterministic given (init, data, cfg, run_key).
    """
    stacked = train_many(init, [data], [(0,)], cfg, [run_key])
    return Checkpoint(tensors={name: arr[0] for name, arr in stacked.items()})


def init_checkpoint(rng: np.random.Generator, input_dim: int, hidden: int, classes: int) -> Checkpoint:
    """Fan-in-scaled uniform initialization for the toy MLP."""
    bound1 = 1.0 / math.sqrt(input_dim)
    bound2 = 1.0 / math.sqrt(hidden)
    params = {
        "w1": rng.uniform(-bound1, bound1, (hidden, input_dim)),
        "b1": rng.uniform(-bound1, bound1, hidden),
        "w2": rng.uniform(-bound2, bound2, (classes, hidden)),
        "b2": rng.uniform(-bound2, bound2, classes),
    }
    return Checkpoint(tensors={name: arr.astype(np.float32) for name, arr in params.items()})


def pretrain_base(universe: Universe, cfg: TrainConfig) -> Checkpoint:
    """Briefly pretrain the shared base on a balanced all-cluster pool.

    Runs max(1, epochs // 2) epochs from a seeded fan-in-scaled uniform
    initialization; fine-tuning from this capable base keeps the per-dataset
    models mergeable. A training error names the pretrain stage.
    """
    bench_cfg = universe.config
    rng = _rng(cfg.seed, _STREAM_INIT)
    init = init_checkpoint(rng, bench_cfg.input_dim, cfg.hidden_dim, bench_cfg.num_clusters)
    pre_cfg = dataclasses.replace(cfg, epochs=max(1, cfg.epochs // 2))
    try:
        return train(init, universe.base_pool, pre_cfg, run_key=0)
    except ValidationError as exc:
        raise ValidationError(f"pretrain stage: {exc}") from exc


# ---------------------------------------------------------------------------
# full benchmark


@dataclass
class SelectionOutcome:
    method: str
    mixture_bits: str  # "" when the method has no single mixture (random_mean)
    val_accuracy: float
    test_accuracy: float
    detail: str = ""


@dataclass
class TargetTable:
    """A target's merged and fine-tuned scores of all mixtures, in gray_codes order, and its selections."""

    target_name: str
    base_val_accuracy: float
    base_test_accuracy: float
    merged_val: ScoreColumns
    merged_test: ScoreColumns
    finetuned_val: ScoreColumns
    finetuned_test: ScoreColumns
    sizes: np.ndarray  # each mixture's dataset count, one int64 array shared by every table of a bench
    selections: dict[str, SelectionOutcome] = field(default_factory=dict)

    def outcome(self, method: str, row: int, merged: bool = False, detail: str = "") -> SelectionOutcome:
        """Selecting the mixture of one row: its fine-tuned (or merged) model's accuracies."""
        if merged:
            val, test = self.merged_val, self.merged_test
        else:
            val, test = self.finetuned_val, self.finetuned_test
        bits = code_bits(val.n, int(val.codes[row]))
        return SelectionOutcome(method, bits, val.accuracy[row].item(), test.accuracy[row].item(), detail)

    def logit_pairs(self) -> CorrelationInput:
        """One row per mixture: the logit improvement over the base of its merged and fine-tuned test accuracy.

        logit_improvement is called per element, since np.log may round otherwise than math.log.
        """
        base = self.base_test_accuracy
        merged = [logit_improvement(m, base) for m in self.merged_test.accuracy.tolist()]
        tuned = [logit_improvement(f, base) for f in self.finetuned_test.accuracy.tolist()]
        return CorrelationInput(self.target_name, merged, tuned, self.sizes)


@dataclass
class BenchReport:
    bench_config: dict
    train_config: dict
    dataset_names: list[str]
    target_names: list[str]
    per_target: list[TargetTable]
    correlation: CorrelationReport
    correlation_logit: CorrelationReport
    similarity_correlations: dict[str, CorrelationReport]
    best_similarity_correlation_metric: str
    best_similarity_correlation_r: float
    table_similarity_metric: str

    SELECTION_METHODS = (
        "merge_to_mix_merged",
        "merge_to_mix_finetuned",
        "all_datasets",
        "similarity",
        "random_mean",
        "oracle",
    )

    def csv_header(self) -> list[str]:
        return ["target", "method", "mixture_bits", "n_selected", "val_accuracy", "test_accuracy"]

    def csv_rows(self) -> list[list]:
        rows = []
        for table in self.per_target:
            for method in self.SELECTION_METHODS:
                sel = table.selections[method]
                size = sel.mixture_bits.count("1") if sel.mixture_bits else ""
                accuracies = (repr(sel.val_accuracy), repr(sel.test_accuracy))
                rows.append([table.target_name, method, sel.mixture_bits, size, *accuracies])
        return rows

    def to_json_obj(self) -> dict:
        return {
            "bench_config": self.bench_config,
            "train_config": self.train_config,
            "dataset_names": self.dataset_names,
            "target_names": self.target_names,
            "per_target": [
                {
                    "target_name": t.target_name,
                    "base_val_accuracy": t.base_val_accuracy,
                    "base_test_accuracy": t.base_test_accuracy,
                    "records_val": records_json(t.merged_val, t.finetuned_val),
                    "records_test": records_json(t.merged_test, t.finetuned_test),
                    "selections": {
                        m: dataclasses.asdict(t.selections[m]) for m in self.SELECTION_METHODS
                    },
                }
                for t in self.per_target
            ],
            "correlation": self.correlation.to_json_obj(),
            "correlation_logit": self.correlation_logit.to_json_obj(),
            "similarity_correlations": {
                k: v.to_json_obj() for k, v in sorted(self.similarity_correlations.items())
            },
            "best_similarity_correlation_metric": self.best_similarity_correlation_metric,
            "best_similarity_correlation_r": finite_or_none(self.best_similarity_correlation_r),
            "table_similarity_metric": self.table_similarity_metric,
        }

    def write_files(self, outdir: Path) -> list[Path]:
        """Write the bench report set; all files are deterministic for a seed."""
        outdir.mkdir(parents=True, exist_ok=True)
        paths = [outdir / name for name in BENCH_FILES]
        report_json, selections_csv, mixtures_csv, correlations_csv, plot_csv = paths
        emit_report(self, "json", report_json)
        emit_report(self, "csv", selections_csv)
        n = len(self.dataset_names)
        write_csv(
            mixtures_csv,
            ["target", "mixture_bits", "n_selected", "merged_val_accuracy", "merged_test_accuracy",
             "finetuned_val_accuracy", "finetuned_test_accuracy"],
            (
                [t.target_name, bits, n_selected, *map(repr, accuracies)]
                for t in self.per_target
                for bits, n_selected, *accuracies in mixture_rows(
                    n, t.merged_val.codes, t.merged_val.accuracy, t.merged_test.accuracy,
                    t.finetuned_val.accuracy, t.finetuned_test.accuracy,
                )
            ),
        )
        series = [("merged_raw", self.correlation), ("merged_logit", self.correlation_logit)]
        series += [(f"sim_{name}", rep) for name, rep in sorted(self.similarity_correlations.items())]
        write_csv(
            correlations_csv,
            ["target", "series", "n_pairs", "r"],
            ([task, name, *cells] for name, rep in series for task, *cells in rep.csv_rows()),
        )
        write_plot_csv(plot_csv, n, gray_codes(n), [t.logit_pairs() for t in self.per_target])
        return paths


def run_benchmark(bench_cfg: BenchConfig, train_cfg: TrainConfig) -> BenchReport:
    """Train everything, score everything, select per method, correlate.

    Ground truth: every non-empty mixture's model is actually fine-tuned
    from the shared base on the concatenated train splits. Selection happens
    on validation accuracy; reporting and correlations use test accuracy.
    A correlation with no usable task, as at N=2, where one non-singleton
    pair per task is left, is an empty report with a NaN average.
    """
    n = bench_cfg.num_datasets
    if n > MAX_BENCH_N:
        raise ValidationError(f"2^N - 1 fine-tuning runs infeasible for N={n} (max {MAX_BENCH_N})")
    universe = generate_universe(bench_cfg)
    base = pretrain_base(universe, train_cfg)
    codes = gray_codes(n)
    sizes = np.array([code.bit_count() for code in codes.tolist()], dtype=np.int64)
    finetuned = _finetune_mixtures(base, [t.train for t in universe.datasets], codes, train_cfg)
    # a single-dataset mixture's merged surrogate is its own fine-tune; dataset i is bit n - 1 - i
    rows = [gray_rank(1 << (n - 1 - i)) - 1 for i in range(n)]
    singles = [Checkpoint(tensors={name: arr[r] for name, arr in finetuned.items()}) for r in rows]
    bank = ModelBank(models=singles, names=[t.name for t in universe.datasets])
    per_target = [_score_target(t, base, bank, finetuned, codes, sizes) for t in universe.targets]

    ds_embs, tg_embs = _embeddings(universe, base, bench_cfg.embedding_source)
    sim_inputs, table_metric = _similarity_baseline(per_target, codes, tg_embs, ds_embs)

    correlation = correlate_tasks(
        [CorrelationInput(t.target_name, t.merged_test.accuracy, t.finetuned_test.accuracy, sizes)
         for t in per_target]
    )
    correlation_logit = correlate_tasks([t.logit_pairs() for t in per_target])
    similarity_correlations = {name: correlate_tasks(items) for name, items in sim_inputs.items()}
    finite = {name: rep.average_r for name, rep in similarity_correlations.items() if math.isfinite(rep.average_r)}
    best_sim_metric = _best_by_metric_value(finite) if finite else ""
    best_sim_r = finite.get(best_sim_metric, float("nan"))

    _check_oracle(per_target)
    return BenchReport(
        bench_config=dataclasses.asdict(bench_cfg),
        train_config=dataclasses.asdict(train_cfg),
        dataset_names=[t.name for t in universe.datasets],
        target_names=[t.name for t in universe.targets],
        per_target=per_target,
        correlation=correlation,
        correlation_logit=correlation_logit,
        similarity_correlations=similarity_correlations,
        best_similarity_correlation_metric=best_sim_metric,
        best_similarity_correlation_r=best_sim_r,
        table_similarity_metric=table_metric,
    )


def _score_target(
    target: TargetPair,
    base: Checkpoint,
    bank: ModelBank,
    finetuned: dict[str, np.ndarray],
    codes: np.ndarray,
    sizes: np.ndarray,
) -> TargetTable:
    """Score every mixture's merged and fine-tuned model on one target, in stacked blocks.

    Row i of each finetuned tensor is the model of codes[i]. Every selection
    but the similarity baseline is made here, on validation.
    """
    n = len(bank)
    table = TargetTable(
        target_name=target.name,
        base_val_accuracy=evaluate_builtin(base, target.val).accuracy,
        base_test_accuracy=evaluate_builtin(base, target.test).accuracy,
        merged_val=builtin_scores(bank, codes, target.val),
        merged_test=builtin_scores(bank, codes, target.test),
        finetuned_val=checkpoint_scores(finetuned, n, codes, target.val),
        finetuned_test=checkpoint_scores(finetuned, n, codes, target.test),
        sizes=sizes,
    )
    mtm = best_row(codes, table.merged_val.accuracy, "maximize")
    oracle = best_row(codes, table.finetuned_val.accuracy, "maximize")
    ft_val, ft_test = table.finetuned_val.accuracy.tolist(), table.finetuned_test.accuracy.tolist()
    table.selections = {
        "merge_to_mix_merged": table.outcome("merge_to_mix_merged", mtm, merged=True),
        "merge_to_mix_finetuned": table.outcome("merge_to_mix_finetuned", mtm),
        "all_datasets": table.outcome("all_datasets", gray_rank((1 << n) - 1) - 1),
        # the expected accuracy of a uniformly random non-empty mixture, exactly rounded
        "random_mean": SelectionOutcome(
            "random_mean", "", math.fsum(ft_val) / len(ft_val), math.fsum(ft_test) / len(ft_test)
        ),
        "oracle": table.outcome("oracle", oracle),
    }
    return table


def _embeddings(
    universe: Universe, base: Checkpoint, source: str
) -> tuple[list[EmbeddingSet], list[EmbeddingSet]]:
    """Per-dataset and per-target embeddings of the validation features: base hidden activations or the raw rows."""

    def embed(task: DatasetTriple | TargetPair) -> EmbeddingSet:
        features = task.val.features
        return EmbeddingSet(toy_mlp_hidden(base, features) if source == "hidden" else features, task.name)

    return [embed(t) for t in universe.datasets], [embed(t) for t in universe.targets]


def _similarity_baseline(
    per_target: list[TargetTable],
    codes: np.ndarray,
    tg_embs: list[EmbeddingSet],
    ds_embs: list[EmbeddingSet],
) -> tuple[dict[str, list[CorrelationInput]], str]:
    """Correlation inputs per similarity metric, and the metric behind the "similarity" pick.

    Each metric picks one mixture per target; the metric whose picks have the
    best mean fine-tuned test accuracy sets every target's "similarity" selection.
    The similarity tables' scores, like the target tables' columns, follow codes.
    """
    corr_inputs: dict[str, list[CorrelationInput]] = {m.value: [] for m in SimilarityMetric}
    picks: dict[str, list[int]] = {m.value: [] for m in SimilarityMetric}  # one row per target
    for table, tg_emb in zip(per_target, tg_embs):
        ft_test = table.finetuned_test.accuracy
        for sim in similarity_tables(tg_emb, ds_embs, list(SimilarityMetric)):
            name = sim.metric.value
            corr_inputs[name].append(CorrelationInput(table.target_name, sim.scores, ft_test, table.sizes))
            picks[name].append(best_row(codes, sim.scores, sim.metric.direction))
    mean_acc = {
        name: math.fsum(t.finetuned_test.accuracy[row].item() for t, row in zip(per_target, rows)) / len(rows)
        for name, rows in picks.items()
    }
    table_metric = _best_by_metric_value(mean_acc)
    for table, row in zip(per_target, picks[table_metric]):
        table.selections["similarity"] = table.outcome("similarity", row, detail=table_metric)
    return corr_inputs, table_metric


def _check_oracle(per_target: list[TargetTable]) -> None:
    """The oracle tops every fine-tuned selection on validation, by construction."""
    for table in per_target:
        oracle_val = table.selections["oracle"].val_accuracy
        for method in ("merge_to_mix_finetuned", "all_datasets", "similarity", "random_mean"):
            if table.selections[method].val_accuracy > oracle_val + 1e-12:
                raise MergeMixError(
                    f"target {table.target_name}: {method} validation accuracy "
                    f"{table.selections[method].val_accuracy!r} exceeds the oracle's {oracle_val!r}"
                )


def _finetune_mixtures(
    base: Checkpoint, parts: list[EvalDataset], codes: np.ndarray, cfg: TrainConfig
) -> dict[str, np.ndarray]:
    """Fine-tune base on every mixture code, as {tensor: float32 [len(codes), ...]}.

    Row i of each tensor is the model of codes[i]. Mixtures of one size have
    equal row counts, so they train in lockstep, _LOCKSTEP_CHUNK runs at a
    time. Run keys are the mixtures' codes. A training error names the
    fine-tune stage and the bit strings of the chunk's mixtures.
    """
    n = len(parts)
    by_size: dict[int, list[int]] = {}
    for row, code in enumerate(codes.tolist()):
        by_size.setdefault(code.bit_count(), []).append(row)
    finetuned = {name: np.empty((len(codes), *a.shape), dtype=np.float32) for name, a in base.tensors.items()}
    for group in by_size.values():
        for lo in range(0, len(group), _LOCKSTEP_CHUNK):
            chunk = group[lo : lo + _LOCKSTEP_CHUNK]
            keys = codes[chunk].tolist()
            selections = [tuple(code_datasets(n, code)) for code in keys]
            try:
                runs = train_many(base, parts, selections, cfg, keys)
            except ValidationError as exc:
                mixtures = " ".join(code_bits(n, code) for code in keys)
                raise ValidationError(f"fine-tune stage, mixtures {mixtures}: {exc}") from exc
            for name, rows in runs.items():
                finetuned[name][chunk] = rows
    return finetuned


def _best_by_metric_value(values: dict[str, float]) -> str:
    """argmax over metric names; ties resolve to canonical metric order."""
    canon = [m.value for m in SimilarityMetric]
    return max(values, key=lambda name: (values[name], -canon.index(name)))
