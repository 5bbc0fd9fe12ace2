"""Search tests: exhaustive enumeration, objectives, the one tie-break of
every selection, and parity between serial and threaded scoring."""

import hashlib
import math
import re
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergemix import (
    Checkpoint,
    EvalDataset,
    EvaluatorError,
    ModelBank,
    Score,
    SearchConfig,
    ValidationError,
    builtin_eval_fn,
    run_search,
)
from mergemix import emit_report, mixture_search
from mergemix.baselines import SimilarityMetric, SimilarityTable, select_from_table
from mergemix.evaluator import evaluate_builtin, toy_mlp_scores
from mergemix.merge_engine import (
    MAX_ENUMERATION_N,
    code_bits,
    gray_code_order,
    gray_codes,
    merge_block,
    merge_uniform,
    subset_merges,
)
from mergemix.mixture_search import ScoreColumns, ScoreRecord, best_row


def tiny_bank(n, seed=0):
    rng = np.random.default_rng(seed)
    return ModelBank(
        models=[
            Checkpoint(tensors={"w": rng.standard_normal(2).astype(np.float32)})
            for _ in range(n)
        ]
    )


def accuracy_fn(fn):
    """Wrap alpha -> accuracy into an eval_fn."""

    def eval_fn(ckpt, target, alpha):
        return Score(accuracy=fn(alpha), mean_loss=0.0, num_samples=0)

    return eval_fn


def brute_force_best(n, fn, maximize=True):
    """Independent scan: score every candidate, pick by (value, |S|, bits)."""
    best = None
    for alpha in gray_code_order(n):
        value = fn(alpha)
        key = (-value if maximize else value, alpha.count("1"), alpha)
        if best is None or key < best[0]:
            best = (key, alpha)
    return best[1]


# ============================================================================
# run_search
# ============================================================================


def test_single_candidate_n1():
    report = run_search(tiny_bank(1), accuracy_fn(lambda a: 0.123), target=None)
    assert report.best_alpha == "1"
    assert len(report.records) == 1


def test_spec_mock_best_101():
    """accuracy = 0.2*[a1] + 0.5*[a3] - 0.1*|S| peaks at "101" with 0.5.

    The raw formula dips to -0.1 for "010"; Score requires [0, 1], so the
    mock floors at 0. That clamp is far below the maximum and cannot move
    the argmax.
    """

    def acc(alpha):
        raw = 0.2 * int(alpha[0]) + 0.5 * int(alpha[2]) - 0.1 * alpha.count("1")
        return max(0.0, raw)

    report = run_search(tiny_bank(3), accuracy_fn(acc), target=None)
    assert report.best_alpha == "101"
    best_rec = [r for r in report.records if r.alpha == report.best_alpha][0]
    assert best_rec.merged_score.accuracy == pytest.approx(0.5)
    assert brute_force_best(3, acc) == "101"


def test_all_ties_yield_smallest_then_lex():
    """Constant scores: the tie-break picks |S|=1, then lexicographic "001"."""
    report = run_search(tiny_bank(3), accuracy_fn(lambda a: 0.5), target=None)
    assert report.best_alpha == "001"


def test_min_loss_objective():
    losses = {"001": 0.5, "010": 0.2, "100": 0.9, "011": 0.2, "101": 0.7, "110": 0.9, "111": 0.8}

    def eval_fn(ckpt, target, alpha):
        return Score(accuracy=0.0, mean_loss=losses[alpha], num_samples=0)

    report = run_search(
        tiny_bank(3), eval_fn, target=None, config=SearchConfig(objective="min_loss")
    )
    # two records at 0.2; the singleton "010" beats "011" on size
    assert report.best_alpha == "010"


def test_record_count_and_gray_order():
    report = run_search(tiny_bank(4), accuracy_fn(lambda a: 0.5), target=None)
    assert len(report.records) == 2**4 - 1
    assert [r.alpha for r in report.records] == list(gray_code_order(4))


def test_explicit_candidates_only():
    cands = ["110", "001"]
    report = run_search(
        tiny_bank(3),
        accuracy_fn(lambda a: a.count("1") / 3),
        target=None,
        config=SearchConfig(candidates=cands),
    )
    assert [r.alpha for r in report.records] == ["110", "001"]
    assert report.best_alpha == "110"


def test_large_n_requires_candidates():
    n = MAX_ENUMERATION_N + 1
    bank = tiny_bank(n)
    score = accuracy_fn(lambda a: a.count("1") / n)
    with pytest.raises(ValidationError, match="candidate"):
        run_search(bank, score, target=None)
    cands = ["1" + "0" * (n - 1), "01" + "0" * (n - 3) + "1"]
    report = run_search(bank, score, target=None, config=SearchConfig(candidates=cands))
    assert [r.alpha for r in report.records] == cands
    assert report.best_alpha == cands[1]


def test_evaluator_failure_names_mixture():
    def eval_fn(ckpt, target, alpha):
        if alpha == "011":
            raise RuntimeError("boom")
        return Score(accuracy=0.5, mean_loss=0.0, num_samples=0)

    with pytest.raises(EvaluatorError, match="011"):
        run_search(tiny_bank(3), eval_fn, target=None)


def test_jobs_parity():
    rng = np.random.default_rng(7)
    table = {a: float(rng.uniform()) for a in gray_code_order(5)}
    fn = accuracy_fn(lambda a: table[a])
    serial = run_search(tiny_bank(5), fn, target=None, config=SearchConfig(jobs=1))
    threaded = run_search(tiny_bank(5), fn, target=None, config=SearchConfig(jobs=3))
    assert serial.best_alpha == threaded.best_alpha
    assert [r.alpha for r in serial.records] == [r.alpha for r in threaded.records]
    for a, b in zip(serial.records, threaded.records):
        assert a.merged_score.accuracy == b.merged_score.accuracy


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_search_matches_brute_force_property(n, seed):
    rng = np.random.default_rng(seed)
    table = {a: float(rng.uniform()) for a in gray_code_order(n)}
    fn = accuracy_fn(lambda a: table[a])
    report = run_search(tiny_bank(n), fn, target=None)
    assert report.best_alpha == brute_force_best(n, lambda a: table[a])


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_monotone_transform_invariance(n, seed):
    """A strictly increasing remap of accuracies never changes the winner."""
    rng = np.random.default_rng(seed)
    table = {a: float(rng.uniform(0.05, 0.95)) for a in gray_code_order(n)}
    base = run_search(tiny_bank(n), accuracy_fn(lambda a: table[a]), target=None)
    warped = run_search(
        tiny_bank(n),
        accuracy_fn(lambda a: table[a] ** 3),
        target=None,
    )
    assert base.best_alpha == warped.best_alpha


def test_builtin_eval_fn_scores_real_models():
    eye = np.eye(2, dtype=np.float32)
    zero = np.zeros(2, dtype=np.float32)

    def head(w):
        return Checkpoint(
            tensors={"w1": eye.copy(), "b1": zero.copy(), "w2": w, "b2": zero.copy()}
        )

    # model 1 routes class 0 correctly, model 2 inverts
    bank = ModelBank(models=[head(eye.copy()), head(-eye.copy())])
    target = EvalDataset(
        features=np.array([[2.0, 0.0], [0.0, 2.0]], dtype=np.float32),
        labels=[0, 1],
        num_classes=2,
        name="t",
    )
    report = run_search(bank, builtin_eval_fn, target=target)
    assert report.best_alpha == "10"
    assert list(report.records)[0].merged_score.num_samples == 2


def test_builtin_eval_fn_requires_dataset():
    with pytest.raises(ValidationError, match="EvalDataset"):
        builtin_eval_fn(tiny_bank(1).models[0], "not-a-dataset", "1")


# ============================================================================
# best_row: the one tie-break behind every selection
# ============================================================================


def test_oracle_select_examples():
    """The oracle is best_row over fine-tuned validation accuracy."""
    codes = np.array([0b01, 0b10, 0b11])
    assert best_row(codes, np.array([0.4, 0.6, 0.8]), "maximize") == 2
    assert best_row(codes[:2], np.array([0.7, 0.7]), "maximize") == 0
    assert best_row(codes[::-1], np.array([0.7, 0.7, 0.7]), "maximize") == 2


def sorted_reference(table, maximize):
    """Best value first, then fewer selected datasets, then smaller bits."""
    best = max(table.values()) if maximize else min(table.values())
    tied = [bits for bits, value in table.items() if value == best]
    return sorted(tied, key=lambda bits: (bits.count("1"), bits))[0]


@st.composite
def tied_tables(draw):
    """bits -> value over all mixtures of N <= 4 in Gray order, values from a tiny
    set so ties abound, and a shuffle of the mixtures."""
    n = draw(st.integers(1, 4))
    values = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])
    table = {a: draw(values) for a in gray_code_order(n)}
    return n, table, draw(st.permutations(range(len(table))))


@settings(max_examples=60, deadline=None)
@given(tied_tables())
def test_every_selector_shares_the_tie_break(n_table_order):
    n, table, order = n_table_order
    want_max = sorted_reference(table, maximize=True)
    want_min = sorted_reference(table, maximize=False)
    codes = gray_codes(n)
    values = np.array(list(table.values()))
    assert [code_bits(n, code) for code in codes.tolist()] == list(table)
    for rows in (np.arange(len(codes)), np.array(order)):
        for direction, want in (("maximize", want_max), ("minimize", want_min)):
            row = best_row(codes[rows], values[rows], direction)
            assert isinstance(row, int)
            bits, value = code_bits(n, int(codes[rows][row])), values[rows][row].item()
            # the winner's own value, so a -0.0 keeps its sign
            assert (bits, value, math.copysign(1.0, value)) == (want, table[want], math.copysign(1.0, table[want]))

    for metric, want in ((SimilarityMetric.AVG_MAX_COS, want_max), (SimilarityMetric.MIN_MIN_L2, want_min)):
        gray_table = SimilarityTable(n, values, metric)
        assert gray_table == table
        bits, value = select_from_table(gray_table)
        assert (bits, value, math.copysign(1.0, value)) == (want, table[want], math.copysign(1.0, table[want]))
    report = run_search(tiny_bank(n), accuracy_fn(lambda a: table[a]), target=None)
    assert report.best_alpha == want_max

    def loss_fn(ckpt, target, alpha):
        return Score(accuracy=0.5, mean_loss=table[alpha], num_samples=0)

    loss_report = run_search(tiny_bank(n), loss_fn, None, SearchConfig(objective="min_loss"))
    assert loss_report.best_alpha == want_min


def test_best_row_rejects_unknown_direction():
    """The direction is checked before any reduction, so even empty arrays name it."""
    with pytest.raises(ValidationError, match="direction"):
        best_row(np.array([], dtype=np.int64), np.array([]), "upward")


# ============================================================================
# SearchReport serialization
# ============================================================================


def test_csv_shape():
    report = run_search(tiny_bank(3), accuracy_fn(lambda a: 0.25), target=None)
    rows = list(report.csv_rows())
    assert len(rows) == 7
    assert report.csv_header() == [
        "mixture_bits",
        "n_selected",
        "merged_accuracy",
        "merged_loss",
        "finetuned_accuracy",
    ]
    assert rows[0][0] == "001"


def test_json_obj_fields():
    report = run_search(tiny_bank(2), accuracy_fn(lambda a: 0.5), target=None)
    obj = report.to_json_obj()
    assert obj["best_alpha"] == "01"
    assert obj["objective"] == "max_accuracy"
    assert len(obj["records"]) == 3


# ============================================================================
# builtin block scoring
# ============================================================================


def toy_bank(n, seed, input_dim=5, hidden=7, classes=4):
    rng = np.random.default_rng(seed)
    shapes = {"w1": (hidden, input_dim), "b1": (hidden,), "w2": (classes, hidden), "b2": (classes,)}
    return ModelBank(
        models=[
            Checkpoint(tensors={k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()})
            for _ in range(n)
        ]
    )


def toy_target(seed, rows=40, input_dim=5, classes=4):
    rng = np.random.default_rng(seed)
    return EvalDataset(
        features=rng.standard_normal((rows, input_dim)).astype(np.float32),
        labels=list(rng.integers(0, classes, size=rows)),
        num_classes=classes,
        name="target",
    )


def old_evaluate_builtin(ckpt, data):
    """The per-mixture scorer as it was before the stacked forward pass."""
    x = np.asarray(data.features, dtype=np.float64)
    w1, b1, w2, b2 = (ckpt.tensors[k].astype(np.float64) for k in ("w1", "b1", "w2", "b2"))
    logits = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
    correct = int(np.sum(np.argmax(logits, axis=1) == data.labels))
    n = len(data)
    shifted = logits - logits.max(axis=1, keepdims=True)
    per_sample = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(n), data.labels]
    return correct / n, float(per_sample.mean())


def per_mixture_loop(bank, candidates, data):
    """Today's per-mixture loop: the subset_merges walk, one forward pass per mixture."""
    return [(a, *old_evaluate_builtin(merged, data)) for a, merged in subset_merges(bank, candidates)]


def record_bits(report):
    return [(r.alpha, r.merged_score.accuracy, r.merged_score.mean_loss) for r in report.records]


def test_builtin_blocks_equal_the_per_mixture_loop(monkeypatch):
    """Block scoring equals the per-mixture loop bit for bit, with blocks of 3
    (so the last block is partial) over Gray order and over an explicit
    candidate list in a non-Gray order."""
    monkeypatch.setattr(mixture_search, "_SCORE_BLOCK", 3)
    block_sizes = []

    def counting_merge_block(bank, codes):
        block_sizes.append(len(codes))
        return merge_block(bank, codes)

    monkeypatch.setattr(mixture_search, "merge_block", counting_merge_block)
    bank, data = toy_bank(6, seed=3), toy_target(4)
    gray = list(gray_code_order(6))
    shuffled = [gray[i] for i in np.random.default_rng(5).permutation(len(gray))[:50]]
    for candidates in (None, shuffled):
        report = run_search(bank, builtin_eval_fn, data, SearchConfig(candidates=candidates))
        expected = per_mixture_loop(bank, candidates or gray, data)
        got = record_bits(report)
        assert [bits for bits, _, _ in got] == [bits for bits, _, _ in expected]
        for g, e in zip(got, expected):
            assert g[1] == e[1] and g[2].hex() == e[2].hex(), g[0]
        assert all(r.merged_score.num_samples == len(data) for r in report.records)
    assert block_sizes == [3] * 21 + [3] * 16 + [2]


def test_candidates_of_mixed_length_name_both_lengths():
    """SearchConfig checks each candidate's characters on their own and their
    common length apart; only run_search knows the bank's size."""
    for candidates, message in ((["01", "1"], "differ in length: 2 and 1"), (["1", "011"], "1 and 3")):
        with pytest.raises(ValidationError, match=message):
            SearchConfig(candidates=candidates)
    with pytest.raises(ValidationError, match="invalid mixture string '1x'"):
        SearchConfig(candidates=["01", "1x"])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"objective": "max_f1"}, "objective must be one of ('max_accuracy', 'min_loss'), got 'max_f1'"),
        ({"jobs": 0}, "jobs must be positive"),
        ({"jobs": -2}, "jobs must be positive"),
        ({"candidates": []}, "candidate list must not be empty"),
    ],
    ids=["objective", "no_jobs", "negative_jobs", "no_candidates"],
)
def test_search_config_rejects(kwargs, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SearchConfig(**kwargs)


def test_builtin_block_errors_name_the_first_mixture():
    bank = toy_bank(3, seed=1)
    with pytest.raises(EvaluatorError, match="mixture 001: feature dim 6 does not match"):
        run_search(bank, builtin_eval_fn, toy_target(2, input_dim=6))
    with pytest.raises(EvaluatorError, match="mixture 001: dataset has 5 classes"):
        run_search(bank, builtin_eval_fn, toy_target(2, classes=5))
    with pytest.raises(EvaluatorError, match="mixture 001: builtin evaluation needs an EvalDataset"):
        run_search(bank, builtin_eval_fn, "not-a-dataset")
    with pytest.raises(EvaluatorError, match="mixture 1: checkpoint must hold exactly"):
        run_search(tiny_bank(1), builtin_eval_fn, toy_target(2))
    with pytest.raises(ValidationError, match="length"):
        config = SearchConfig(candidates=["11"])
        run_search(bank, builtin_eval_fn, toy_target(2), config)


def test_invalid_builtin_score_names_the_first_bad_mixture():
    """Scores are checked as arrays, with Score's message for the first bad row
    in search order: "001" is fine, "011" is the first to merge the Inf."""
    bank = toy_bank(3, seed=1)
    bank.models[1].tensors["b2"][2] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(EvaluatorError) as info:
        run_search(bank, builtin_eval_fn, toy_target(2))
    assert str(info.value) == "evaluation failed for mixture 011: mean_loss must be finite and >= 0, got nan"


# ============================================================================
# ScoreColumns: records built as iterated, read back against per-mixture loops
# ============================================================================


def reference_records(bank, candidates, data):
    """The records a per-mixture loop builds: evaluate_builtin on each merge_uniform."""
    return [ScoreRecord(alpha, evaluate_builtin(merge_uniform(bank, alpha), data)) for alpha in candidates]


def test_score_columns_read_back_as_the_per_mixture_records(monkeypatch):
    """Iteration, in order and again, and len give the records of the
    per-mixture loop, over Gray order and a shuffled candidate list, with
    blocks of 3."""
    monkeypatch.setattr(mixture_search, "_SCORE_BLOCK", 3)
    bank, data = toy_bank(6, seed=4), toy_target(8)
    gray = list(gray_code_order(6))
    shuffled = [gray[i] for i in np.random.default_rng(9).permutation(len(gray))[:40]]
    for candidates in (None, shuffled):
        records = run_search(bank, builtin_eval_fn, data, SearchConfig(candidates=candidates)).records
        want = reference_records(bank, candidates or gray, data)
        assert isinstance(records, ScoreColumns)
        assert len(records) == len(want)
        got = list(records)
        assert got == want and list(records) == got
        assert got != want[:-1] and got != want[::-1]
        score = got[-1].merged_score
        assert (type(score.accuracy), type(score.mean_loss), type(score.num_samples)) == (float, float, int)


def test_per_mixture_columns_hold_each_score_as_returned():
    returned = {}

    def eval_fn(ckpt, target, alpha):
        returned[alpha] = Score(accuracy=1 / (1 + int(alpha, 2)), mean_loss=0.25, num_samples=alpha.count("1"))
        return returned[alpha]

    records = run_search(tiny_bank(4), eval_fn, target=None, config=SearchConfig(jobs=2)).records
    assert isinstance(records, ScoreColumns)
    assert list(records) == [ScoreRecord(alpha, returned[alpha]) for alpha in gray_code_order(4)]


def test_threaded_scores_land_in_their_own_rows():
    """Threads write disjoint slices of shared columns: with more threads than
    cores and a short switch interval, every row holds its own mixture's score."""

    def eval_fn(ckpt, target, alpha):
        code = int(alpha, 2)
        return Score(accuracy=code / 256, mean_loss=float(code), num_samples=code)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = run_search(tiny_bank(8), eval_fn, target=None, config=SearchConfig(jobs=8)).records
    finally:
        sys.setswitchinterval(interval)
    assert records.accuracy.tolist() == (records.codes / 256).tolist()
    assert records.mean_loss.tolist() == records.codes.astype(np.float64).tolist()
    assert records.num_samples.tolist() == records.codes.tolist()


def test_a_failed_thread_stops_the_other_threads():
    """Slice one's first mixture fails after 50 ms while slice two's 31 mixtures take 10 ms each:
    slice two stops at its next mixture instead of walking on to its end."""
    calls = []

    def eval_fn(ckpt, target, alpha):
        calls.append(alpha)
        time.sleep(0.05 if alpha == "000001" else 0.01)
        if alpha == "000001":
            raise RuntimeError("boom")
        return Score(accuracy=0.5, mean_loss=0.0, num_samples=0)

    with pytest.raises(EvaluatorError, match="^evaluation failed for mixture 000001: boom$"):
        run_search(tiny_bank(6), eval_fn, target=None, config=SearchConfig(jobs=2))
    assert len(calls) < 20, len(calls)


@pytest.mark.parametrize("jobs", [2, 3])
def test_an_interrupt_in_the_calling_thread_stops_the_other_threads(jobs):
    """Ctrl-C 50 ms into a threaded search whose 63 mixtures take 10 ms each:
    the slices stop at their next mixture, so the interrupt surfaces without
    waiting for every remaining evaluation."""
    calls = []

    def eval_fn(ckpt, target, alpha):
        calls.append(alpha)
        time.sleep(0.01)
        return Score(accuracy=0.5, mean_loss=0.0, num_samples=0)

    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    timer = threading.Timer(0.05, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT))
    try:
        with pytest.raises(KeyboardInterrupt):
            timer.start()
            run_search(tiny_bank(6), eval_fn, target=None, config=SearchConfig(jobs=jobs))
    finally:
        timer.cancel()
        timer.join()
        signal.signal(signal.SIGINT, previous)
    assert len(calls) < 30, len(calls)


@pytest.mark.parametrize("jobs", [2, 3, 8])
def test_threaded_blocks_land_in_their_own_rows(monkeypatch, jobs):
    """The builtin blocks run on the jobs threads too: with blocks of 3, more
    threads than cores and a short switch interval, every row holds the
    per-mixture loop's score of its own mixture."""
    monkeypatch.setattr(mixture_search, "_SCORE_BLOCK", 3)
    threads = set()

    def scores(*args):
        threads.add(threading.get_ident())
        return toy_mlp_scores(*args)

    monkeypatch.setattr(mixture_search, "toy_mlp_scores", scores)
    bank, data = toy_bank(6, seed=4), toy_target(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = run_search(bank, builtin_eval_fn, data, SearchConfig(jobs=jobs)).records
    finally:
        sys.setswitchinterval(interval)
    assert list(records) == reference_records(bank, list(gray_code_order(6)), data)
    assert threads and threading.main_thread().ident not in threads


def test_a_failed_block_stops_the_other_slices(monkeypatch):
    """Blocks of 2 on two threads: slice one's first block fails after 50 ms
    while slice two's 32 blocks take 10 ms each, so slice two stops at its
    next block instead of scoring on to its end."""
    monkeypatch.setattr(mixture_search, "_SCORE_BLOCK", 2)
    bank, data = toy_bank(7, seed=4), toy_target(8)
    first = merge_block(bank, gray_codes(7)[:2])["w1"]
    calls = []

    def scores(w1, b1, w2, b2, data):
        calls.append(threading.get_ident())
        failing = np.array_equal(w1, first)
        time.sleep(0.05 if failing else 0.01)
        if failing:
            raise RuntimeError("boom")
        return toy_mlp_scores(w1, b1, w2, b2, data)

    monkeypatch.setattr(mixture_search, "toy_mlp_scores", scores)
    with pytest.raises(RuntimeError, match="^boom$"):
        run_search(bank, builtin_eval_fn, data, SearchConfig(jobs=2))
    assert len(set(calls)) == 2 and len(calls) < 20, len(calls)


@pytest.mark.parametrize("jobs", [2, 3])
def test_an_interrupt_in_the_calling_thread_stops_the_block_slices(monkeypatch, jobs):
    """Ctrl-C 50 ms into a threaded builtin search whose 64 blocks take 10 ms
    each: the slices stop at their next block, so the interrupt surfaces
    without waiting for every remaining block."""
    monkeypatch.setattr(mixture_search, "_SCORE_BLOCK", 2)
    calls = []

    def scores(*args):
        calls.append(threading.get_ident())
        time.sleep(0.01)
        return toy_mlp_scores(*args)

    monkeypatch.setattr(mixture_search, "toy_mlp_scores", scores)
    bank, data = toy_bank(7, seed=4), toy_target(8)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    timer = threading.Timer(0.05, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT))
    try:
        with pytest.raises(KeyboardInterrupt):
            timer.start()
            run_search(bank, builtin_eval_fn, data, SearchConfig(jobs=jobs))
    finally:
        timer.cancel()
        timer.join()
        signal.signal(signal.SIGINT, previous)
    assert len(set(calls)) > 1 and len(calls) < 40, len(calls)


def digest_eval_fn(ckpt, target, alpha):
    """A per-mixture mock whose score depends on every bit of the merged tensors."""
    digest = hashlib.sha256(b"".join(ckpt.tensors[k].tobytes() for k in sorted(ckpt.tensors))).digest()
    return Score(accuracy=digest[0] / 255, mean_loss=int.from_bytes(digest[1:5], "big") / 2**32, num_samples=0)


@pytest.mark.parametrize("eval_fn", [builtin_eval_fn, digest_eval_fn], ids=["builtin_blocks", "per_mixture"])
def test_search_reports_do_not_depend_on_jobs(tmp_path, eval_fn):
    """jobs only spreads the work: every jobs value writes the same report bytes.

    With this bank, a thread chunk that began with a differently rounded
    full merge changed a record at jobs=3."""
    bank, data = toy_bank(12, seed=10), toy_target(9)
    written = {}
    for jobs in (1, 2, 3, 5, 6):
        report = run_search(bank, eval_fn, data, SearchConfig(jobs=jobs))
        csv_path, json_path = tmp_path / f"r{jobs}.csv", tmp_path / f"r{jobs}.json"
        emit_report(report, "csv", csv_path)
        emit_report(report, "json", json_path)
        written[jobs] = (csv_path.read_bytes(), json_path.read_bytes())
    assert all(files == written[1] for files in written.values())
