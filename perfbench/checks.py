"""Output checks for the benchmark workloads.

Every check compares what mergemix produced against a computation made here,
apart from the program (a float64 mean of member checkpoints, a numpy
forward pass, a brute-force similarity over pooled rows, a Pearson r in
math.fsum), or against a property the method must have. None compares with a
stored copy of earlier output. Each check returns a list of error strings;
an empty list means the output passed.

Mixtures are bit strings with dataset 1 leftmost, as in mergemix's reports.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from param_eval import score as param_score

# Float32 round-to-nearest moves a value by at most half an ulp, 2**-24 of
# its magnitude. The walk checks allow one whole ulp per merged value.
F32_ULP = 2.0**-23

Params = Mapping[str, np.ndarray]


def all_mixtures(n: int) -> list[str]:
    return [format(i, f"0{n}b") for i in range(1, 1 << n)]


def members(bits: str) -> list[int]:
    return [i for i, c in enumerate(bits) if c == "1"]


def winner(values: Mapping[str, float], maximize: bool = True) -> str:
    """Best value, then fewer selected datasets, then the smallest string."""
    sign = -1.0 if maximize else 1.0
    return min(values, key=lambda bits: (sign * values[bits], bits.count("1"), bits))


def mean_merge(models: Sequence[Params], bits: str) -> dict[str, np.ndarray]:
    """Float64 mean of the member checkpoints, cast to float32."""
    picked = [models[i] for i in members(bits)]
    return {
        name: (sum(m[name].astype(np.float64) for m in picked) / len(picked)).astype(np.float32)
        for name in picked[0]
    }


def sample_mixtures(n: int, best: str, rng: np.random.Generator, extra: int) -> list[str]:
    """All singletons, the all-ones mixture, the winner and `extra` other distinct picks."""
    picks = {format(1 << (n - 1 - i), f"0{n}b") for i in range(n)} | {"1" * n, best}
    rest = sorted(set(all_mixtures(n)) - picks)
    return sorted(picks | {str(b) for b in rng.choice(rest, size=extra, replace=False)})


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Sample Pearson r in exact sums; None for a constant series."""
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)


def logit(p: float) -> float:
    """log(p / (1 - p)) with p clamped to [1e-6, 1 - 1e-6], the paper's scale."""
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    return math.log(p) - math.log1p(-p)


def _duplicates_and_gaps(seen: Sequence[str], n: int, where: str) -> list[str]:
    errors = []
    if len(seen) != len(set(seen)):
        errors.append(f"{where}: a mixture appears more than once")
    missing = set(all_mixtures(n)) - set(seen)
    extra = set(seen) - set(all_mixtures(n))
    if missing or extra:
        errors.append(f"{where}: {len(missing)} mixtures missing, {len(extra)} unexpected")
    return errors


# ---------------------------------------------------------------------------
# groundtruth: `mergemix bench` report files


def load_bench_files(outdir: Path) -> dict:
    """Parse the report files that `mergemix bench` writes."""
    with open(outdir / "mixtures.csv", newline="") as fh:
        mixtures = [
            (r["target"], r["mixture_bits"], *(float(r[k]) for k in (
                "merged_val_accuracy", "merged_test_accuracy",
                "finetuned_val_accuracy", "finetuned_test_accuracy")))
            for r in csv.DictReader(fh)
        ]
    with open(outdir / "selections.csv", newline="") as fh:
        selections: dict[str, dict[str, tuple[str, float, float]]] = {}
        for r in csv.DictReader(fh):
            selections.setdefault(r["target"], {})[r["method"]] = (
                r["mixture_bits"], float(r["val_accuracy"]), float(r["test_accuracy"]))
    with open(outdir / "correlations.csv", newline="") as fh:
        correlations = {
            (r["series"], r["target"]): (int(r["n_pairs"]), float(r["r"]))
            for r in csv.DictReader(fh)
        }
    report = json.loads((outdir / "report.json").read_text())
    base_test = {t["target_name"]: t["base_test_accuracy"] for t in report["per_target"]}
    return {"mixtures": mixtures, "selections": selections,
            "correlations": correlations, "base_test": base_test}


def check_groundtruth(files: dict, n: int, summary: Mapping) -> list[str]:
    """Checks on one bench run's files and its stdout summary line."""
    errors: list[str] = []
    by_target: dict[str, dict[str, tuple[float, float, float, float]]] = {}
    seen: dict[str, list[str]] = {}
    for target, bits, mv, mt, fv, ft in files["mixtures"]:
        by_target.setdefault(target, {})[bits] = (mv, mt, fv, ft)
        seen.setdefault(target, []).append(bits)
    if set(by_target) != set(files["selections"]) or not by_target:
        errors.append("mixtures.csv and selections.csv name different targets")
        return errors

    per_task_r: dict[str, list[float]] = {"merged_raw": [], "merged_logit": []}
    for target, rows in sorted(by_target.items()):
        errors += _duplicates_and_gaps(seen[target], n, f"{target} mixtures.csv")
        merged_val = {b: v[0] for b, v in rows.items()}
        ft_val = {b: v[2] for b, v in rows.items()}
        for bits, (mv, mt, fv, ft) in rows.items():
            if bits.count("1") == 1 and (mv != fv or mt != ft):
                errors.append(f"{target} {bits}: singleton merged accuracy differs from fine-tuned")

        sel = files["selections"][target]
        expect_bits = {
            "merge_to_mix_merged": winner(merged_val),
            "merge_to_mix_finetuned": winner(merged_val),
            "all_datasets": "1" * n,
            "oracle": winner(ft_val),
        }
        for method, bits in expect_bits.items():
            if sel[method][0] != bits:
                errors.append(f"{target} {method}: selected {sel[method][0]}, tie-break rule gives {bits}")
        for method, (bits, val, test) in sel.items():
            if method == "random_mean":
                continue
            if bits not in rows:
                errors.append(f"{target} {method}: unknown mixture {bits!r}")
                continue
            mv, mt, fv, ft = rows[bits]
            want = (mv, mt) if method == "merge_to_mix_merged" else (fv, ft)
            if (val, test) != want:
                errors.append(f"{target} {method}: accuracies {(val, test)} differ from mixtures.csv {want}")
        _, rv, rt = sel["random_mean"]
        want = tuple(math.fsum(v[k] for v in rows.values()) / len(rows) for k in (2, 3))
        if (rv, rt) != want:
            errors.append(f"{target} random_mean {(rv, rt)} differs from the fsum mean {want}")
        # merge_to_mix_merged reports a merged model's accuracy, which the
        # fine-tuned oracle does not bound; every other method is fine-tuned.
        oracle_val = sel["oracle"][1]
        for method, (_, val, _) in sel.items():
            if method != "merge_to_mix_merged" and val > oracle_val:
                errors.append(f"{target} {method}: val accuracy {val} above the oracle's {oracle_val}")

        pairs = [(v[1], v[3]) for b, v in rows.items() if b.count("1") != 1]
        base = files["base_test"][target]
        series = {
            "merged_raw": pairs,
            "merged_logit": [(logit(x) - logit(base), logit(y) - logit(base)) for x, y in pairs],
        }
        for name, xy in series.items():
            r = pearson([p[0] for p in xy], [p[1] for p in xy])
            got = files["correlations"].get((name, target))
            if r is None:
                if got is not None:
                    errors.append(f"{target} {name}: r reported for a constant series")
                continue
            if got is None:
                errors.append(f"{target} {name}: r missing")
            elif got[0] != len(xy) or abs(got[1] - r) > 1e-12:
                errors.append(f"{target} {name}: (n, r) = {got}, recomputed ({len(xy)}, {r!r})")
            else:
                per_task_r[name].append(got[1])
    for name, key in (("merged_raw", "average_r"), ("merged_logit", "average_r_logit")):
        rs = per_task_r[name]
        if rs and abs(summary[key] - math.fsum(rs) / len(rs)) > 1e-12:
            errors.append(f"summary {key} {summary[key]} is not the mean of the per-target r")
    return errors


# ---------------------------------------------------------------------------
# search_builtin: run_search with the builtin scorer, plus similarity tables


def mlp_score(params: Params, features: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Accuracy and mean cross-entropy of the toy MLP, argmax ties to the lowest class."""
    x = features.astype(np.float64)
    w1, b1, w2, b2 = (params[k].astype(np.float64) for k in ("w1", "b1", "w2", "b2"))
    logits = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
    accuracy = int(np.count_nonzero(logits.argmax(axis=1) == labels)) / len(labels)
    top = logits.max(axis=1)
    log_z = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    loss = float(np.mean(log_z - logits[np.arange(len(labels)), labels]))
    return accuracy, loss


def brute_similarity(target: np.ndarray, pooled: np.ndarray) -> dict[str, float]:
    """The six set-to-set metrics over every (target row, pooled row) pair."""
    t = target.astype(np.float64)
    s = pooled.astype(np.float64)
    cos = (t / np.linalg.norm(t, axis=1)[:, None]) @ (s / np.linalg.norm(s, axis=1)[:, None]).T
    row_min, row_sum = [], []
    for i in range(0, len(t), 16):  # chunks bound the [rows, pooled, dim] temporary
        d = np.sqrt(((t[i : i + 16, None, :] - s[None, :, :]) ** 2).sum(axis=2))
        row_min.append(d.min(axis=1))
        row_sum.append(d.sum(axis=1))
    mins = np.concatenate(row_min)
    return {
        "avg_max_cos": float(cos.max(axis=1).mean()),
        "avg_min_l2": float(mins.mean()),
        "avg_avg_cos": float(cos.mean()),
        "avg_avg_l2": float(np.concatenate(row_sum).sum() / (len(t) * len(s))),
        "max_max_cos": float(cos.max()),
        "min_min_l2": float(mins.min()),
    }


def check_search_builtin(
    records: Sequence[tuple[str, float, float]],
    best: str,
    tables: Mapping[str, Mapping[str, float]],
    sample: Sequence[str],
    models: Sequence[Params],
    target: tuple[np.ndarray, np.ndarray],
    target_emb: np.ndarray,
    dataset_embs: Sequence[np.ndarray],
) -> list[str]:
    """Checks one target's search records, winner and similarity tables.

    records are (bits, accuracy, mean_loss); tables map metric -> bits -> score.
    """
    n = len(models)
    errors = _duplicates_and_gaps([r[0] for r in records], n, "search records")
    scores = {bits: (acc, loss) for bits, acc, loss in records}
    if best != winner({b: s[0] for b, s in scores.items()}):
        errors.append(f"search winner {best} breaks the tie-break rule")
    for bits in sample:
        if bits not in scores:
            errors.append(f"{bits}: no record")
            continue
        acc, loss = mlp_score(mean_merge(models, bits), *target)
        got_acc, got_loss = scores[bits]
        if got_acc != acc or not math.isclose(got_loss, loss, rel_tol=1e-9):
            errors.append(f"{bits}: scored ({got_acc}, {got_loss}), forward pass gives ({acc}, {loss})")
        pooled = np.concatenate([dataset_embs[i] for i in members(bits)])
        for metric, value in brute_similarity(target_emb, pooled).items():
            got = tables[metric].get(bits)
            if got is None or not math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"{bits} {metric}: table has {got}, brute force gives {value}")
    for metric, table in tables.items():
        if len(table) != (1 << n) - 1:
            errors.append(f"{metric}: table holds {len(table)} mixtures")
    return errors


# ---------------------------------------------------------------------------
# search_external: `mergemix search` with param_eval.py


def check_search_external(
    records: Sequence[tuple[str, float, float]],
    best: str,
    models: Sequence[Params],
    tensors: Sequence[str],
) -> list[str]:
    """Each record must be param_eval's statistic of the float32 mean merge.

    A merged value may differ from the float32 cast of the float64 mean by
    one ulp, which moves q by at most 2**-22 of itself; accuracy q/(1+q)
    moves by no more than q does.
    """
    n = len(models)
    errors = _duplicates_and_gaps([r[0] for r in records], n, "search records")
    valid = set(all_mixtures(n))
    accs = {}
    for bits, acc, loss in records:
        accs[bits] = acc
        if bits not in valid:
            continue
        merged = mean_merge(models, bits)
        want = param_score(np.concatenate([merged[t].ravel() for t in tensors]).tolist())
        tol = 2.0**-22 * want["loss"] + 1e-15
        if abs(loss - want["loss"]) > tol or abs(acc - want["accuracy"]) > tol:
            errors.append(f"{bits}: scored ({acc}, {loss}), the merge's statistic is {want}")
    if accs and best != winner(accs):
        errors.append(f"search winner {best} breaks the tie-break rule")
    return errors


# ---------------------------------------------------------------------------
# merge_walk: subset_merges over every mixture of a large bank


def check_merge_walk(
    order: Sequence[str],
    totals: Mapping[str, np.ndarray],
    samples: Mapping[str, Params],
    models: Sequence[Params],
    stride: int,
) -> list[str]:
    """Checks the walk's order, its running total and a sample of merges.

    totals[name] is the float64 sum, over every merge of the walk, of the
    merged tensor's flat values at positions 0, stride, 2*stride, ...
    Summed over all non-empty subsets S, the mean over S of x_i is
    ((2^N - 1) / N) * sum_i x_i. Each merged value is within one float32 ulp
    of the exact mean, so the total may differ by at most
    2**-23 * ((2^N - 1) / N) * sum_i |x_i|.
    """
    n = len(models)
    errors = _duplicates_and_gaps(order, n, "walk order")
    for a, b in zip(order, order[1:]):
        if sum(x != y for x, y in zip(a, b)) != 1:
            errors.append(f"walk steps {a} -> {b}: not a single-bit change")
            break
    factor = ((1 << n) - 1) / n
    for name, total in totals.items():
        xs = [m[name].ravel()[::stride].astype(np.float64) for m in models]
        expect = factor * np.sum(xs, axis=0)
        bound = F32_ULP * factor * np.sum(np.abs(xs), axis=0)
        worst = int(np.argmax(np.abs(total - expect) - bound))
        if abs(total[worst] - expect[worst]) > bound[worst]:
            errors.append(f"{name}[{worst * stride}]: walk total {total[worst]!r}, identity gives {expect[worst]!r}")
    for bits, merged in samples.items():
        ref = mean_merge(models, bits)
        for name, arr in merged.items():
            off = np.abs(arr.astype(np.float64) - ref[name]) > np.spacing(np.abs(ref[name]))
            if off.any():
                errors.append(f"{bits} {name}: {int(off.sum())} values over one ulp from the float64 mean")
    return errors
