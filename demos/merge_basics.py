"""
Checkpoint containers and uniform merging
=========================================

Writes two tiny checkpoints to disk, reads them back, and averages them
every way the engine supports.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from mergemix import Checkpoint, ModelBank, merge_uniform, merge_weighted
from mergemix.merge_engine import gray_code_order, subset_merges
from mergemix.tensor_store import read_checkpoint, write_checkpoint

workdir = Path(tempfile.mkdtemp(prefix="mergemix-demo-"))

# two fake fine-tuned models over the same 2-tensor schema
theta_1 = Checkpoint(tensors={
    "w": np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32),
    "b": np.array([0.0, 0.0], dtype=np.float32),
})
theta_2 = Checkpoint(tensors={
    "w": np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32),
    "b": np.array([1.0, 1.0], dtype=np.float32),
})

# round-trip through the binary container format
write_checkpoint(theta_1, workdir / "ft_math.mtm")
write_checkpoint(theta_2, workdir / "ft_code.mtm")
bank = ModelBank(
    models=[read_checkpoint(workdir / "ft_math.mtm"), read_checkpoint(workdir / "ft_code.mtm")],
    names=["math", "code"],
)
print("bank:", bank.names, "-", bank.models[0].n_parameters, "parameters each")

# a mixture is a bit string, one bit per dataset in bank order: "11"
# selects both datasets, and its surrogate is the plain average
merged = merge_uniform(bank, "11")
print("uniform merge of 11:")
print(merged.tensors["w"])

# weighted averaging is also available (weights are normalized)
weighted = merge_weighted(bank, [0.25, 0.75])
print("weighted 1:3 merge:")
print(weighted.tensors["w"])

# enumerating all non-empty mixtures in Gray order reuses a running sum,
# so consecutive merges differ by a single model add or remove
print("gray-order walk over all mixtures:")
for alpha, ckpt in subset_merges(bank, gray_code_order(len(bank))):
    print(f"  {alpha}  b={ckpt.tensors['b']}")

shutil.rmtree(workdir)
