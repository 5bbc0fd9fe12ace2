"""
Mixture search with merged surrogates, plus similarity baselines
================================================================

Scores every candidate mixture for a small synthetic target, once by
evaluating merged-model surrogates and once by embedding similarity.
"""

import numpy as np

from mergemix import ModelBank
from mergemix.baselines import SimilarityMetric, select_from_table, similarity_table
from mergemix.evaluator import EvalDataset
from mergemix.mixture_search import SearchConfig, builtin_eval_fn, run_search
from mergemix.tensor_store import EmbeddingSet
from mergemix.toy_bench import TrainConfig, init_checkpoint, train

rng = np.random.default_rng(7)

# three candidate datasets: clouds around three different directions
centers = np.array([[3.0, 0.0], [0.0, 3.0], [-3.0, -3.0]])
datasets = []
for i, c in enumerate(centers):
    x = (rng.standard_normal((80, 2)) * 0.4 + c).astype(np.float32)
    y = [i] * 80
    datasets.append(EvalDataset(features=x, labels=y, num_classes=3, name=f"D{i + 1}"))

# the target mixes classes 0 and 1 only; dataset 3 is a distractor
tx = np.concatenate([datasets[0].features[:30], datasets[1].features[:30]])
ty = [0] * 30 + [1] * 30
target = EvalDataset(features=tx, labels=ty, num_classes=3, name="target")

# one fine-tuned model per dataset, all from the same initialization
init = init_checkpoint(rng, 2, 8, 3)
cfg = TrainConfig(epochs=6, learning_rate=0.05, batch_size=16, hidden_dim=8, seed=0)
bank = ModelBank(
    models=[train(init, d, cfg, run_key=i) for i, d in enumerate(datasets)],
    names=[d.name for d in datasets],
)

# exhaustive search: every mixture's surrogate is scored on the target
report = run_search(bank, builtin_eval_fn, target, SearchConfig())
print("surrogate accuracy per mixture:")
for rec in report.records:
    print(f"  {rec.alpha}  acc={rec.merged_score.accuracy:.3f}")
chosen = [name for name, bit in zip(bank.names, report.best_alpha) if bit == "1"]
print("best mixture:", report.best_alpha, "->", chosen)

# the similarity baseline never trains anything, it only compares embeddings;
# each table selects in its own metric's direction
target_emb = EmbeddingSet(embeddings=target.features, source_name="target")
dataset_embs = [EmbeddingSet(embeddings=d.features, source_name=d.name) for d in datasets]
for metric in (SimilarityMetric.AVG_MAX_COS, SimilarityMetric.MIN_MIN_L2):
    table = similarity_table(target_emb, dataset_embs, metric)
    alpha, score = select_from_table(table)
    print(f"{metric.value}: best {alpha} (score {score:.4f}) out of {len(table)} mixtures")
