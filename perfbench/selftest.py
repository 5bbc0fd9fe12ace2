"""Self-test of the benchmark's output checks.

Usage, from the repository root:  python3 perfbench/selftest.py

Runs each workload at a small size through the real program, confirms that
its check accepts the output, then feeds the check deliberately wrong
versions of that output (a perturbed score, a swapped winner, an
off-by-one parameter, ...) and confirms that each one is rejected. Exits
with status 1 if a check accepts a wrong result or rejects a right one.
Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import sys

import numpy as np

from run import import_mergemix, run_directory


def main() -> int:
    problem = import_mergemix()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import checks
    import workloads

    failures: list[str] = []

    def expect(case: str, errors: list[str], wrong: bool) -> None:
        ok = bool(errors) == wrong
        print(f"{'ok    ' if ok else 'FAILED'} {case}: {'rejected' if errors else 'accepted'}")
        if not ok:
            failures.append(case)

    with run_directory("selftest") as rundir:
        # groundtruth: the bench report files of an N=3 run
        gt = type("SmallGroundTruth", (workloads.GroundTruth,), {"N": 3})(5, rundir)
        out, summary = gt.run_pass()
        files = checks.load_bench_files(out)
        expect("groundtruth as written", checks.check_groundtruth(files, 3, summary), False)
        target = sorted(files["selections"])[0]
        rows = {r[1]: r for r in files["mixtures"] if r[0] == target}

        def mutated(edit) -> dict:
            f = copy.deepcopy(files)
            edit(f)
            return f

        def perturb_singleton(f):
            i = next(i for i, r in enumerate(f["mixtures"]) if r[0] == target and r[1] == "100")
            t, b, mv, *rest = f["mixtures"][i]
            f["mixtures"][i] = (t, b, mv + 0.001, *rest)

        def swap_oracle(f):
            bits = f["selections"][target]["oracle"][0]
            other = next(b for b in rows if b != bits)
            f["selections"][target]["oracle"] = (other, rows[other][4], rows[other][5])

        def nudge_random_mean(f):
            bits, val, test = f["selections"][target]["random_mean"]
            f["selections"][target]["random_mean"] = (bits, np.nextafter(val, 2.0), test)

        def nudge_r(f):
            n_pairs, r = f["correlations"][("merged_raw", target)]
            f["correlations"][("merged_raw", target)] = (n_pairs, r + 1e-9)

        for case, edit in (("singleton merged accuracy perturbed", perturb_singleton),
                           ("oracle winner swapped", swap_oracle),
                           ("random_mean one ulp off", nudge_random_mean),
                           ("merged_raw r off by 1e-9", nudge_r)):
            expect(f"groundtruth {case}", checks.check_groundtruth(mutated(edit), 3, summary), True)

        # search_builtin: an N=4 bank, one target
        sb = type("SmallSearch", (workloads.SearchBuiltin,),
                  {"N": 4, "TARGETS": 1, "SAMPLE_EXTRA": 2})(5, rundir)
        sb.setup()
        (report, tables), = sb.run_pass()
        records = [(str(r.alpha), r.merged_score.accuracy, r.merged_score.mean_loss) for r in report.records]
        best = str(report.best_alpha)
        sample = checks.sample_mixtures(4, best, np.random.default_rng(0), 2)
        target = sb.targets[0]
        args = ([m.tensors for m in sb.bank.models], (target.features, target.labels),
                sb.target_embs[0].embeddings, [e.embeddings for e in sb.dataset_embs])

        def search_check(recs, winner, tabs):
            return checks.check_search_builtin(recs, winner, tabs, sample, *args)

        expect("search_builtin as returned", search_check(records, best, tables), False)
        i = next(i for i, r in enumerate(records) if r[0] == "1000")
        bad = list(records)
        bad[i] = (bad[i][0], bad[i][1] + 1 / len(target), bad[i][2])
        expect("search_builtin score perturbed", search_check(bad, best, tables), True)
        expect("search_builtin winner swapped",
               search_check(records, next(r[0] for r in records if r[0] != best), tables), True)
        bad_tables = copy.deepcopy(tables)
        bad_tables["avg_min_l2"]["1111"] *= 1.0 + 1e-6
        expect("search_builtin similarity perturbed", search_check(records, best, bad_tables), True)
        expect("search_builtin duplicate record", search_check(records[:-1] + records[:1], best, tables), True)

        # search_external: an N=3 bank through `mergemix search`
        se = type("SmallExternal", (workloads.SearchExternal,), {"N": 3})(5, rundir)
        se.setup()
        summary = se.run_pass()
        expect("search_external as written", se.check(summary), False)
        report = json.loads(se.out.with_suffix(".json").read_text())
        records = [(r["mixture_bits"], r["merged_score"]["accuracy"], r["merged_score"]["mean_loss"])
                   for r in report["records"]]

        def external_check(recs, winner):
            return checks.check_search_external(recs, winner, se.models, se.TENSORS)

        bits, acc, loss = records[-1]
        expect("search_external loss off by 1e-5",
               external_check(records[:-1] + [(bits, acc, loss * (1 + 1e-5))], report["best_alpha"]), True)
        expect("search_external winner swapped",
               external_check(records, next(r[0] for r in records if r[0] != report["best_alpha"])), True)
        expect("search_external record missing", external_check(records[:-1], report["best_alpha"]), True)

        # merge_walk: an N=4 bank of small tensors
        mw = type("SmallWalk", (workloads.MergeWalk,),
                  {"N": 4, "SHAPES": {"a": (61,), "b": (8, 8)}, "STRIDE": 3})(5, rundir)
        mw.setup()
        order, totals, kept = mw.run_pass()

        def walk_check(o=order, t=totals, k=kept):
            return checks.check_merge_walk(o, t, k, mw.models, mw.STRIDE)

        expect("merge_walk as returned", walk_check(), False)
        some = sorted(kept)[0]
        shifted = {name: arr.copy() for name, arr in kept[some].items()}
        shifted["a"] = np.roll(shifted["a"], 1)
        expect("merge_walk off-by-one parameter", walk_check(k={**kept, some: shifted}), True)
        two_ulps = {name: arr.copy() for name, arr in kept[some].items()}
        two_ulps["b"][0, 0] = np.nextafter(np.nextafter(two_ulps["b"][0, 0], np.inf), np.inf)
        expect("merge_walk value two ulps off", walk_check(k={**kept, some: two_ulps}), True)
        expect("merge_walk steps swapped", walk_check(o=[order[1], order[0]] + order[2:]), True)
        last = order[-1]
        merged = checks.mean_merge(mw.models, last)
        doubled = {name: t + merged[name].ravel()[:: mw.STRIDE] for name, t in totals.items()}
        expect("merge_walk last merge counted twice", walk_check(t=doubled), True)

    if failures:
        print(f"{len(failures)} self-test case(s) failed", file=sys.stderr)
        return 1
    print("all checks accept right results and reject wrong ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
