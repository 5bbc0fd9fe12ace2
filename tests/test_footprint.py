"""Memory held per mixture by search results and similarity tables.

Results are columns indexed by mixture, so their size per mixture is a few
array entries. Each test warms up first (the bank's flat copy, numpy and
scipy set-up), then measures with tracemalloc what one more call keeps
allocated while its result is alive.
"""

import gc
import tracemalloc

import numpy as np

from mergemix import EmbeddingSet, SimilarityMetric, builtin_eval_fn, run_search, similarity_table

from test_mixture_search import toy_bank, toy_target


def traced_growth(fn):
    """(bytes fn() leaves allocated, its result), as traced by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_builtin_search_retains_at_most_40_bytes_per_mixture():
    """int64 codes plus float64 accuracy and loss: 24 B per mixture. Lists of
    ScoreRecord objects held 464 B."""
    bank, data = toy_bank(12, seed=2), toy_target(3)
    run_search(bank, builtin_eval_fn, data)
    retained, report = traced_growth(lambda: run_search(bank, builtin_eval_fn, data))
    assert len(report.records) == 4095
    assert retained / len(report.records) <= 40


def test_similarity_table_retains_at_most_16_bytes_per_mixture_and_no_cache():
    """One float64 per mixture; a table at a new N leaves nothing behind once
    dropped. A dict held 49 B per mixture, and cached keys stayed per N."""
    rng = np.random.default_rng(4)
    target = EmbeddingSet(rng.standard_normal((5, 3)).astype(np.float32), "T")
    per_dataset = [EmbeddingSet(rng.standard_normal((2, 3)).astype(np.float32), f"D{i}") for i in range(12)]
    metric = SimilarityMetric.AVG_MAX_COS
    similarity_table(target, per_dataset, metric)
    retained, table = traced_growth(lambda: similarity_table(target, per_dataset, metric))
    assert len(table) == 4095
    assert retained / len(table) <= 16
    del table
    left, size = traced_growth(lambda: len(similarity_table(target, per_dataset[:11], metric)))
    assert size == 2047
    assert left <= size
