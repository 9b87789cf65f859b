"""Metric correctness: closed forms, brute-force oracles, and invariances."""

import threading

import numpy as np
import pytest

from mmists.metrics import (
    EvalReport,
    UndefinedMetricError,
    aupr,
    auroc,
    evaluate_scores,
    f1_binary,
    macro_f1,
    report_to_line,
)
from oracles import aupr_prefix, auroc_pairs, auroc_tie_loop, f1_by_hand


# ------------------------------------------------------------------ F1

def test_f1_hand_example():
    scores = [0.9, 0.6, 0.4, 0.2]
    labels = [1, 0, 1, 0]
    # predictions [1,1,0,0]: tp=1 fp=1 fn=1 -> precision=recall=0.5
    assert f1_binary(scores, labels) == pytest.approx(0.5)


def test_f1_perfect_and_zero():
    assert f1_binary([0.9, 0.1], [1, 0]) == 1.0
    assert f1_binary([0.1, 0.2], [1, 1]) == 0.0  # nothing predicted positive
    assert f1_binary([0.9, 0.8], [0, 0]) == 0.0  # no positives in labels


def test_f1_threshold_is_inclusive():
    assert f1_binary([0.5], [1]) == 1.0
    assert f1_binary([0.4999999], [1]) == 0.0


def test_f1_length_mismatch_raises():
    with pytest.raises(ValueError, match="length"):
        f1_binary([0.1, 0.2], [1])


# ------------------------------------------------------------------ AUROC

def test_auroc_perfect_worst_tied():
    assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert auroc([0.4, 0.4, 0.4, 0.4], [1, 1, 0, 0]) == 0.5


def test_auroc_tie_counts_half():
    # pairs: (0.7 vs 0.3)=1, (0.7 vs 0.7)=0.5 -> 0.75
    assert auroc([0.7, 0.3, 0.7], [1, 0, 0]) == pytest.approx(0.75)


def test_auroc_single_class_raises():
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.9], [1, 1])
    with pytest.raises(UndefinedMetricError):
        auroc([0.1, 0.9], [0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scores_raise_instead_of_hanging(bad):
    # run in a thread: a tie-ranking loop that compared NaNs could spin forever
    errors = []

    def run():
        for metric in (auroc, aupr, f1_binary):
            try:
                metric([bad, 0.3], [1, 0])
            except ValueError as e:
                errors.append(e)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "auroc did not return on a non-finite score"
    assert len(errors) == 3


def test_auroc_matches_pair_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 101))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        assert auroc(scores, labels) == pytest.approx(auroc_pairs(scores, labels), abs=1e-9)


def test_auroc_equals_the_tie_loop_bit_for_bit():
    # the same rank sum as a scan over sorted scores, on continuous,
    # quantized and signed-zero inputs (-0.0 ties 0.0)
    rng = np.random.default_rng(29)
    for trial in range(600):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        kind = trial % 3
        if kind == 0:
            scores = rng.random(n)
        elif kind == 1:
            scores = np.round(rng.random(n), 1)
        else:
            scores = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=n)
        assert auroc(scores, labels) == auroc_tie_loop(scores, labels)


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.random(60)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    base = auroc(scores, labels)
    assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auroc(3.0 * scores - 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert auroc(np.tanh(scores), labels) == pytest.approx(base, abs=1e-12)


# ------------------------------------------------------------------ AUPR

def test_aupr_hand_example():
    # groups are singletons: steps 1/2*1 + 1/2*(2/3) = 5/6
    assert aupr([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(5.0 / 6.0)


def test_aupr_perfect():
    assert aupr([0.9, 0.8, 0.2], [1, 1, 0]) == 1.0


def test_aupr_ties_form_one_step():
    # tied pair is a single prefix: precision 1/2 at recall 1
    assert aupr([0.8, 0.8, 0.2], [1, 0, 0]) == pytest.approx(0.5)
    # the same value regardless of the order the tied rows appear in
    assert aupr([0.8, 0.8, 0.2], [0, 1, 0]) == pytest.approx(0.5)


def test_aupr_no_positives_raises():
    with pytest.raises(UndefinedMetricError):
        aupr([0.4, 0.6], [0, 0])


def test_aupr_matches_prefix_oracle():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 101))
        labels = rng.integers(0, 2, size=n)
        labels[int(rng.integers(n))] = 1
        scores = np.round(rng.random(n), 1)
        assert aupr(scores, labels) == pytest.approx(aupr_prefix(scores, labels), abs=1e-9)


def test_aupr_all_positive_is_one():
    assert aupr([0.3, 0.9, 0.5], [1, 1, 1]) == 1.0


# ------------------------------------------------------------------ macro F1

def test_macro_f1_is_column_mean():
    rng = np.random.default_rng(5)
    scores = rng.random((40, 4))
    labels = rng.integers(0, 2, size=(40, 4))
    expect = np.mean([f1_by_hand(scores[:, c], labels[:, c]) for c in range(4)])
    assert macro_f1(scores, labels) == pytest.approx(expect, abs=1e-12)


def test_macro_f1_permutation_invariant():
    rng = np.random.default_rng(6)
    scores = rng.random((30, 5))
    labels = rng.integers(0, 2, size=(30, 5))
    base = macro_f1(scores, labels)
    col_perm = rng.permutation(5)
    row_perm = rng.permutation(30)
    assert macro_f1(scores[:, col_perm], labels[:, col_perm]) == pytest.approx(base, abs=1e-12)
    assert macro_f1(scores[row_perm], labels[row_perm]) == pytest.approx(base, abs=1e-12)


def test_macro_f1_needs_multiple_columns():
    with pytest.raises(ValueError):
        macro_f1(np.random.rand(10, 1), np.zeros((10, 1)))
    with pytest.raises(ValueError):
        macro_f1(np.random.rand(10), np.zeros(10))


# ------------------------------------------------------------------ ranges

def test_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=n)  # scores need not be probabilities
        for value in (auroc(scores, labels), aupr(scores, labels), f1_binary(scores, labels)):
            assert 0.0 <= value <= 1.0


# ------------------------------------------------------------------ report

def test_evaluate_binary_report():
    rng = np.random.default_rng(8)
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    rep = evaluate_scores(scores, labels, task="binary")
    assert rep.f1 == f1_binary(scores, labels)
    assert rep.auroc == auroc(scores, labels)
    assert rep.aupr == aupr(scores, labels)
    assert rep.threshold == 0.5
    assert rep.n_examples == 50
    assert rep.macro_f1 is None
    assert rep.per_class is None


def test_evaluate_multilabel_report():
    rng = np.random.default_rng(9)
    scores = rng.random((60, 3))
    labels = rng.integers(0, 2, size=(60, 3))
    for c in range(3):
        labels[0, c], labels[1, c] = 0, 1
    rep = evaluate_scores(scores, labels, task="multilabel")
    assert rep.macro_f1 == pytest.approx(macro_f1(scores, labels), abs=1e-12)
    expect_auroc = np.mean([auroc(scores[:, c], labels[:, c]) for c in range(3)])
    expect_aupr = np.mean([aupr(scores[:, c], labels[:, c]) for c in range(3)])
    assert rep.auroc == pytest.approx(expect_auroc, abs=1e-12)
    assert rep.aupr == pytest.approx(expect_aupr, abs=1e-12)
    assert rep.per_class is not None and len(rep.per_class) == 3
    assert {"precision", "recall", "f1", "positives"} <= set(rep.per_class[0])


def test_evaluate_multilabel_skips_undefined_columns():
    rng = np.random.default_rng(10)
    scores = rng.random((40, 3))
    labels = rng.integers(0, 2, size=(40, 3))
    labels[:, 2] = 0  # AUROC/AUPR undefined for the last class
    for c in range(2):
        labels[0, c], labels[1, c] = 0, 1
    rep = evaluate_scores(scores, labels, task="multilabel")
    expect_auroc = np.mean([auroc(scores[:, c], labels[:, c]) for c in range(2)])
    assert rep.auroc == pytest.approx(expect_auroc, abs=1e-12)
    assert len(rep.per_class) == 3  # the table still covers every class


def test_evaluate_rejects_bad_inputs():
    with pytest.raises(ValueError, match="zero examples"):
        evaluate_scores(np.zeros((0, 1)), np.zeros((0, 1)), task="binary")
    with pytest.raises(ValueError, match="disagree"):
        evaluate_scores(np.zeros(4), np.zeros(5), task="binary")
    with pytest.raises(ValueError, match="unknown task"):
        evaluate_scores(np.zeros(4), np.zeros(4), task="regression")


def test_report_line_round_trips_floats():
    rep = EvalReport(f1=1 / 3, aupr=2 / 7, auroc=0.875, threshold=0.5, n_examples=12)
    line = report_to_line(rep, prefix="val")
    fields = dict(part.split("=", 1) for part in line.split())
    assert fields["split"] == "val"
    assert float(fields["f1"]) == rep.f1
    assert float(fields["aupr"]) == rep.aupr
    assert float(fields["auroc"]) == rep.auroc
    assert int(fields["n_examples"]) == 12
    assert "macro_f1" not in fields
