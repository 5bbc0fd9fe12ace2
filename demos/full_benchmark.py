"""
The synthetic end-to-end benchmark
==================================

Generates a universe of Gaussian-cluster datasets, fine-tunes one model
per dataset, brute-forces every mixture, and compares selection methods.
Equivalent to `mergemix bench --seed 42 --train-seed 0 --out <dir>` minus
the files: TrainConfig() trains with seed 0, while `bench` trains with
--seed unless --train-seed is given.
"""

from mergemix import BenchConfig, TrainConfig, run_benchmark

# default scale: 5 datasets -> 31 mixture fine-tunes, 4 targets; seconds on
# a desktop CPU, a minute or two on a weak one
report = run_benchmark(BenchConfig(seed=42), TrainConfig())

print("datasets:", ", ".join(report.dataset_names))
print()
print("how well surrogates rank mixtures (Pearson r per target, singletons excluded):")
for task in sorted(report.correlation.per_task):
    print(f"  {task}: merged r={report.correlation.per_task[task]:+.3f}")
print(f"  average: {report.correlation.average_r:+.3f}")
print(f"  best similarity metric ({report.best_similarity_correlation_metric}): "
      f"{report.best_similarity_correlation_r:+.3f}")
print()

# what each selection strategy actually buys on held-out test data
header = f"{'target':8s}" + "".join(f"{m:>24s}" for m in report.SELECTION_METHODS)
print(header)
for table in report.per_target:
    row = f"{table.target_name:8s}"
    for method in report.SELECTION_METHODS:
        row += f"{table.selections[method].test_accuracy:24.3f}"
    print(row)
print()
for table in report.per_target:
    chosen = table.selections["merge_to_mix_finetuned"].mixture_bits
    print(f"{table.target_name}: picked {chosen} "
          f"(oracle picked {table.selections['oracle'].mixture_bits})")
