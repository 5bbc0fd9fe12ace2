"""Stdlib-only external evaluator for `mergemix search --evaluator`.

Usage: python3 param_eval.py CHECKPOINT TENSORS

CHECKPOINT is a mergemix container; TENSORS is a comma-separated list of
tensor names in it. The script scores the checkpoint by a statistic of those
tensors' float32 values, taken in the listed order: q is the mean of their
squares and the printed line is {"accuracy": q / (1 + q), "loss": q}. Both
sums are exact (math.fsum over float32 values squared in float64, which is
exact), so two readers of the same bytes print the same numbers.
"""

from __future__ import annotations

import array
import json
import math
import struct
import sys


def read_tensors(path: str, names: list[str]) -> list[float]:
    """The float32 values of the named tensors, concatenated in order."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (header_len,) = struct.unpack_from("<Q", blob, 0)
    header = json.loads(blob[8 : 8 + header_len])
    base = 8 + header_len
    values = array.array("f")
    for name in names:
        entry = header[name]
        if entry["dtype"] != "F32":
            raise ValueError(f"tensor {name!r} is not float32")
        begin, end = entry["data_offsets"]
        values.frombytes(blob[base + begin : base + end])
    if sys.byteorder != "little":
        values.byteswap()
    return values.tolist()


def score(values: list[float]) -> dict[str, float]:
    """The printed statistic for a list of float32 values."""
    if not values:
        raise ValueError("no values to score")
    q = math.fsum(v * v for v in values) / len(values)
    return {"accuracy": q / (1.0 + q), "loss": q}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: param_eval.py CHECKPOINT TENSORS\n")
        return 2
    values = read_tensors(argv[0], argv[1].split(","))
    sys.stdout.write(json.dumps(score(values)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
