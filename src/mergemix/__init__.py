"""Dataset mixture selection for fine-tuning via merged-model surrogates.

Fine-tuning a model on every candidate dataset mixture is exponentially
expensive. This package scores a mixture by uniformly averaging the models
fine-tuned on each member dataset; the merged model's accuracy correlates
with the mixture-fine-tuned model's accuracy, so the cheap surrogate ranks
mixtures without training 2^N models. Baselines (embedding similarity,
all-data, random mean, oracle), correlation analytics, a synthetic
benchmark, and a CLI round out the toolkit.
"""

__version__ = "0.1.0"

from .analytics import (
    CorrelationInput,
    CorrelationReport,
    correlate_tasks,
    emit_report,
    pearson,
)
from .baselines import (
    SimilarityMetric,
    all_datasets_vector,
    similarity_score,
    similarity_select,
    similarity_table,
)
from .errors import (
    EvaluatorError,
    ExternalEvaluatorError,
    FormatError,
    MergeMixError,
    ValidationError,
)
from .evaluator import (
    EvalDataset,
    Score,
    evaluate_builtin,
    evaluate_external,
    logit,
    logit_improvement,
    read_eval_dataset,
    write_eval_dataset,
)
from .merge_engine import (
    MixtureVector,
    ModelBank,
    gray_code_order,
    merge_uniform,
    merge_weighted,
    subset_merges,
)
from .mixture_search import (
    ScoreRecord,
    SearchConfig,
    SearchReport,
    builtin_eval_fn,
    run_search,
)
from .tensor_store import (
    Checkpoint,
    EmbeddingSet,
    checkpoint_equal,
    read_checkpoint,
    read_embeddings,
    validate_bank,
    write_checkpoint,
    write_embeddings,
)
from .toy_bench import (
    BenchConfig,
    BenchReport,
    TrainConfig,
    Universe,
    generate_universe,
    pretrain_base,
    run_benchmark,
    train,
)

__all__ = [
    "__version__",
    "BenchConfig",
    "BenchReport",
    "Checkpoint",
    "CorrelationInput",
    "CorrelationReport",
    "EmbeddingSet",
    "EvalDataset",
    "EvaluatorError",
    "ExternalEvaluatorError",
    "FormatError",
    "MergeMixError",
    "MixtureVector",
    "ModelBank",
    "Score",
    "ScoreRecord",
    "SearchConfig",
    "SearchReport",
    "SimilarityMetric",
    "TrainConfig",
    "Universe",
    "ValidationError",
    "all_datasets_vector",
    "builtin_eval_fn",
    "checkpoint_equal",
    "correlate_tasks",
    "emit_report",
    "evaluate_builtin",
    "evaluate_external",
    "generate_universe",
    "gray_code_order",
    "logit",
    "logit_improvement",
    "merge_uniform",
    "merge_weighted",
    "pearson",
    "pretrain_base",
    "read_checkpoint",
    "read_embeddings",
    "read_eval_dataset",
    "run_benchmark",
    "run_search",
    "similarity_score",
    "similarity_select",
    "similarity_table",
    "subset_merges",
    "train",
    "validate_bank",
    "write_checkpoint",
    "write_embeddings",
    "write_eval_dataset",
]
