"""
Surrogate-vs-truth correlation reports
======================================

How well does a merged model's accuracy track the model actually
fine-tuned on the mixture? Pearson r per task, singletons excluded.
"""

from mergemix.analytics import CorrelationInput, correlate_tasks, emit_report
from mergemix.evaluator import logit_improvement

# One row per candidate mixture: merged accuracy x, fine-tuned accuracy y
# and mixture size n_selected, each a column. Size-1 mixtures are excluded
# by default: there the two models are the same checkpoint and would
# inflate the correlation.
imagenet_like = CorrelationInput(
    task_name="vision",
    x=[0.62, 0.71, 0.55, 0.80, 0.67, 0.90],
    y=[0.60, 0.74, 0.52, 0.83, 0.66, 0.90],
    n_selected=[2, 2, 3, 3, 4, 1],  # the last is a singleton, dropped
)
language_like = CorrelationInput(
    task_name="language",
    x=[0.40, 0.52, 0.48, 0.61, 0.35],
    y=[0.44, 0.50, 0.53, 0.58, 0.33],
    n_selected=[2, 2, 3, 3, 4],
)

report = correlate_tasks([imagenet_like, language_like])
for task, r in sorted(report.per_task.items()):
    print(f"{task}: r={r:.4f} over {report.n_pairs[task]} pairs")
print(f"average r: {report.average_r:.4f} ({report.excluded_count} singleton pairs excluded)")

# logit improvement is the usual plot coordinate: log-odds gain over base
base_acc = 0.30
for merged_acc, ft_acc, size in zip(imagenet_like.x[:3], imagenet_like.y[:3], imagenet_like.n_selected[:3]):
    x = logit_improvement(merged_acc, base_acc)
    y = logit_improvement(ft_acc, base_acc)
    print(f"size-{size} mixture: plot point ({x:.3f}, {y:.3f})")

# reports serialize to JSON or CSV for downstream tooling
emit_report(report, "csv", "correlations_demo.csv")
print("wrote correlations_demo.csv")
