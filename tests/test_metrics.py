"""Metric implementations against brute-force oracles."""

import datetime as dt
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdlab.corpus import Encounter
from icdlab.errors import UndefinedMetricError, ValidationError
from icdlab.metrics import (
    ConsistencyReport,
    Predictions,
    _rankdata,
    auc_macro,
    auc_micro,
    breakdown,
    breakdown_csv,
    codes_inconsistent,
    compute_report,
    consistency_check,
    instance_f1,
    macro_f1,
    mean_instance_f1,
    mean_recall_at_k,
    micro_f1,
    recall_at_k,
    score_histogram,
    spearman,
)


def _enc(pid, day, codes, dept="D0"):
    return Encounter(pid, dt.date(2020, 1, day), dept, "DR0", "t", frozenset(codes))


def rec(probs, gt, n_unseen=0, dept="D0", first_visit=True, encounter=None):
    """One document's row; `P` stacks rows into a Predictions value."""
    return {"probs": probs, "gt": gt, "n_unseen": n_unseen, "dept": dept,
            "first_visit": first_visit, "freq_bucket": "",
            "encounters": encounter or _enc("P0", 1, ["A00.0"], dept)}


def P(*rows):
    probs = np.array([r["probs"] for r in rows], dtype=float)
    gt = np.zeros(probs.shape, dtype=bool)
    for i, r in enumerate(rows):
        gt[i, sorted(r["gt"])] = True
    return Predictions(probs, gt, **{k: [r[k] for r in rows] for k in
                                     ("n_unseen", "dept", "first_visit", "freq_bucket",
                                      "encounters")})


# ---------------------------------------------------------------------------
# recall@k
# ---------------------------------------------------------------------------


def test_recall_half_when_one_of_two_found():
    r = P(rec([0.9, 0.01, 0.8, 0.7, 0.6, 0.5], {0, 1}))
    assert recall_at_k(r, 5).tolist() == [0.5]


def test_recall_capped_by_k():
    probs = np.linspace(1, 0.3, 8)
    r = P(rec(probs, set(range(7))))
    assert recall_at_k(r, 5)[0] == pytest.approx(5 / 7)


def test_recall_ties_break_by_ascending_index():
    r = P(rec([0.5, 0.5, 0.5], {2}))
    assert recall_at_k(r, 2).tolist() == [0.0]  # indices 0,1 win the tie
    assert recall_at_k(r, 3).tolist() == [1.0]


def test_unseen_gt_codes_count_against_recall():
    r = P(rec([0.9, 0.1], {0}, n_unseen=1))
    assert recall_at_k(r, 5).tolist() == [0.5]


def test_recall_empty_gt_is_undefined():
    with pytest.raises(UndefinedMetricError):
        recall_at_k(P(rec([0.5], set())))


def test_recall_non_decreasing_in_k():
    rng = np.random.default_rng(0)
    r = P(*(rec(rng.uniform(size=12), set(rng.choice(12, 4, replace=False).tolist()))
            for _ in range(20)))
    vals = np.stack([recall_at_k(r, k) for k in range(1, 13)])
    assert (np.diff(vals, axis=0) >= 0).all()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_recall_matches_exhaustive_sort_oracle(seed):
    # scores uniform, or on a grid of one to four values so that ties abound;
    # up to n ground-truth cells per row, often more cells than rows in all
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
    if rng.uniform() < 0.5:
        probs = rng.uniform(size=(m, n))
    else:
        probs = rng.integers(0, int(rng.integers(1, 5)), size=(m, n)) / 3
    gts = [set(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
           for _ in range(m)]
    r = P(*(rec(row, gt) for row, gt in zip(probs, gts)))
    for k in (1, 5, n, n + 2):
        # oracle: stable sort by (-p, index), take the first k
        want = [len(set(sorted(range(n), key=lambda i: (-row[i], i))[:k]) & gt) / len(gt)
                for row, gt in zip(probs.tolist(), gts)]
        assert recall_at_k(r, k).tolist() == want


def test_recall_at_k_prefers_low_index_on_tie():
    # the ranking of [0.3, 0.9, 0.9] is 1, 2, 0
    r = P(rec([0.3, 0.9, 0.9], {1}), rec([0.3, 0.9, 0.9], {2}), rec([0.3, 0.9, 0.9], {0}))
    assert [recall_at_k(r, k).tolist() for k in (1, 2, 3)] == [[1.0, 0.0, 0.0],
                                                               [1.0, 1.0, 0.0],
                                                               [1.0, 1.0, 1.0]]


def test_recall_ranks_a_nan_score_below_every_number():
    # a stable argsort of the negated scores puts NaN last, ties by index
    r = P(rec([np.nan, 0.1, np.nan], {0}), rec([np.nan, 0.1, np.nan], {2}),
          rec([np.nan, 0.1, 0.2], {1}))
    assert [recall_at_k(r, k).tolist() for k in (1, 2, 3)] == [[0.0, 0.0, 0.0],
                                                               [1.0, 0.0, 1.0],
                                                               [1.0, 1.0, 1.0]]


# ---------------------------------------------------------------------------
# instance F1
# ---------------------------------------------------------------------------


def test_if1_exact_match_is_one():
    r = P(rec([0.9, 0.9, 0.1], {0, 1}))
    assert instance_f1(r).tolist() == [1.0]


def test_if1_half_overlap():
    r = P(rec([0.9, 0.9, 0.1], {0, 2}))  # predicts {0, 1}
    assert instance_f1(r).tolist() == [0.5]


def test_if1_empty_prediction_is_zero():
    r = P(rec([0.1, 0.1], {0}))
    assert instance_f1(r).tolist() == [0.0]


def test_if1_unseen_counts_in_recall_denominator():
    r = P(rec([0.9], {0}, n_unseen=1))
    # P = 1, R = 1/2 → F1 = 2/3
    assert instance_f1(r)[0] == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# micro / macro F1
# ---------------------------------------------------------------------------


def test_perfect_predictions_score_one():
    records = P(rec([0.9, 0.1], {0}), rec([0.1, 0.9], {1}))
    assert micro_f1(records) == 1.0
    assert macro_f1(records) == 1.0


def test_micro_macro_hand_pooled_example():
    # label 0 always predicted, never true; label 1 predicted iff true
    records = P(
        rec([0.9, 0.9], {1}),
        rec([0.9, 0.1], {1}),   # label-1 FN
        rec([0.9, 0.9], {1}),
        rec([0.9, 0.1], set(), n_unseen=1),
    )
    # pooled: TP=2 (label1), FP=4 (label0) , FN=1 (label1) + 1 unseen
    assert micro_f1(records) == pytest.approx(2 * 2 / (2 * 2 + 4 + 2))
    # macro: only label 1 has eval positives → F1 = 2*2/(2*2+0+1)
    assert macro_f1(records) == pytest.approx(4 / 5)


def test_threshold_is_strict_and_zero_predicts_every_positive_score():
    # a probability exactly at the threshold is not predicted: only label 1 is
    at = P(rec([0.5, 0.9], {0, 1}))
    assert instance_f1(at, 0.5)[0] == pytest.approx(2 / 3)  # P = 1, R = 1/2
    assert micro_f1(at, 0.5) == pytest.approx(2 / 3)  # TP 1, FP 0, FN 1
    # threshold 0 predicts labels 0 and 1, not the label scored exactly 0
    low = P(rec([0.4, 0.2, 0.0], {0}))
    assert instance_f1(low, 0.0)[0] == pytest.approx(2 / 3)  # P = 1/2, R = 1
    assert micro_f1(low, 0.0) == pytest.approx(2 / 3)  # TP 1, FP 1, FN 0
    assert instance_f1(low, 0.5)[0] == 0.0  # nothing above 0.5


def test_f1_no_positives_is_error():
    with pytest.raises(UndefinedMetricError):
        micro_f1(P(rec([0.9], set())))
    with pytest.raises(UndefinedMetricError):
        macro_f1(P(rec([0.9], set())))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_micro_f1_matches_single_pass_counter(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    rows = []
    for _ in range(int(rng.integers(1, 12))):
        probs = rng.uniform(size=n)
        gt = {int(i) for i in rng.choice(n, int(rng.integers(1, n)), replace=False)}
        rows.append(rec(probs, gt))
    tp = fp = fn = 0
    for r in rows:
        pred = {int(i) for i in np.nonzero(r["probs"] > 0.5)[0]}
        for i in range(n):
            if i in pred and i in r["gt"]:
                tp += 1
            elif i in pred:
                fp += 1
            elif i in r["gt"]:
                fn += 1
    want = 2 * tp / (2 * tp + fp + fn)
    assert micro_f1(P(*rows)) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def test_auc_perfect_separation():
    records = P(rec([0.9, 0.2], {0}), rec([0.8, 0.1], {0}))
    assert auc_micro(records) == 1.0


def test_auc_constant_scores_half():
    records = P(rec([0.5, 0.5], {0}))
    assert auc_micro(records) == 0.5


def test_auc_single_class_is_error():
    with pytest.raises(UndefinedMetricError):
        auc_micro(P(rec([0.9, 0.8], {0, 1})))


def test_auc_macro_excludes_single_class_labels():
    records = P(
        rec([0.9, 0.9], {0, 1}),
        rec([0.2, 0.9], {1}),  # label 0 varies; label 1 always positive
    )
    assert auc_macro(records) == 1.0  # only label 0 participates


def _pairwise_auc(scores, ys):
    pos = [s for s, y in zip(scores, ys) if y]
    neg = [s for s, y in zip(scores, ys) if not y]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_auc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    scores = rng.integers(0, 6, size=n) / 5.0  # coarse grid forces ties
    ys = rng.integers(0, 2, size=n).astype(bool)
    if ys.all() or not ys.any():
        ys[0] = not ys[0]
    records = P(*(rec([s], {0} if y else set(), n_unseen=0 if y else 1)
                  for s, y in zip(scores, ys)))
    assert auc_micro(records) == pytest.approx(_pairwise_auc(scores, ys), abs=1e-12)


def test_rank_metrics_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    records = P(*(rec(rng.uniform(size=8), {int(i) for i in rng.choice(8, 2, replace=False)})
                  for _ in range(6)))
    transformed = replace(records, probs=np.sqrt(records.probs) * 3 + 1)
    assert mean_recall_at_k(records, 5) == mean_recall_at_k(transformed, 5)
    assert auc_micro(records) == pytest.approx(auc_micro(transformed), abs=1e-12)


def test_rankdata_matches_tie_loop():
    rng = np.random.default_rng(3)
    cases = [rng.integers(0, 4, size=size) / 3.0 for size in (1, 2, 7, 50)]
    cases += [rng.uniform(size=30), np.zeros(5), np.array([0.5, 0.1, 0.5, 0.1, 0.9])]
    for x in cases:
        size = x.size
        order = np.argsort(x, kind="stable")
        want = np.empty(size)
        i = 0
        while i < size:  # each run of equal sorted values shares its mean rank
            j = i
            while j + 1 < size and x[order[j + 1]] == x[order[i]]:
                j += 1
            want[order[i:j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        np.testing.assert_array_equal(_rankdata(x), want)


# ---------------------------------------------------------------------------
# breakdown
# ---------------------------------------------------------------------------


def groups(records, key):
    """The breakdown over R@5 and iF1 at 0.5, as `report` computes it."""
    return breakdown(records, key, recall_at_k(records, 5), instance_f1(records, 0.5))


def test_breakdown_single_group_equals_global():
    records = P(rec([0.9, 0.1], {0}, dept="D1"), rec([0.1, 0.9], {1}, dept="D1"))
    out = groups(records, "dept")
    assert len(out) == 1
    assert out[0].group == "D1"
    assert out[0].size == 2
    assert out[0].recall_at_5 == mean_recall_at_k(records, 5)
    assert out[0].instance_f1 == mean_instance_f1(records, 0.5)


def test_breakdown_sorted_by_size_desc():
    records = P(rec([0.9], {0}, dept="A"), rec([0.9], {0}, dept="B"),
                rec([0.9], {0}, dept="B"))
    out = groups(records, "dept")
    assert [g.group for g in out] == ["B", "A"]


def test_breakdown_first_visit_key():
    records = P(rec([0.9], {0}, first_visit=True), rec([0.9], {0}, first_visit=False))
    names = {g.group for g in groups(records, "first_visit")}
    assert names == {"first", "recurring"}


def test_breakdown_unknown_key_rejected():
    with pytest.raises(ValidationError):
        groups(P(rec([0.9], {0})), "nope")


def test_breakdown_distinct_labels_per_period():
    records = P(
        rec([0.9], {0}, dept="A", encounter=_enc("P1", 1, ["A00.0", "B00.0"])),
        rec([0.9], {0}, dept="A", encounter=_enc("P2", 5, ["A00.0", "C00.0"])),
    )
    out = groups(records, "dept")
    assert out[0].distinct_labels_per_period == 3.0  # one year, 3 distinct codes
    assert "distinct_labels_per_period" in breakdown_csv(out).splitlines()[0]


def test_breakdown_micro_counts_are_additive():
    rng = np.random.default_rng(11)
    rows = []
    for i in range(10):
        probs = rng.uniform(size=4)
        gt = {int(j) for j in rng.choice(4, 2, replace=False)}
        rows.append(rec(probs, gt, dept="A" if i % 2 else "B"))
    records = P(*rows)

    def counts(mask):
        pred, gt = records.probs[mask] > 0.5, records.gt[mask]
        return np.array([(pred & gt).sum(), (pred & ~gt).sum(), (~pred & gt).sum()])

    a = records.dept == "A"
    np.testing.assert_array_equal(counts(a) + counts(~a), counts(np.ones(10, bool)))


def test_predictions_reject_mismatched_shapes():
    good = P(rec([0.9, 0.1], {0}))
    with pytest.raises(ValidationError):
        replace(good, gt=np.zeros((1, 3), bool))
    with pytest.raises(ValidationError):
        replace(good, dept=["A", "B"])
    with pytest.raises(ValidationError):
        replace(good, probs=np.array([0.9, 0.1]), gt=np.array([True, False]))


# ---------------------------------------------------------------------------
# spearman
# ---------------------------------------------------------------------------


def test_spearman_monotone_is_one():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_with_ties_matches_definition():
    xs = [1.0, 2.0, 2.0, 3.0, 4.0]
    ys = [1.0, 3.0, 2.0, 2.0, 5.0]
    # average ranks: xs → [1, 2.5, 2.5, 4, 5]; ys → [1, 4, 2.5, 2.5, 5]
    rx = np.array([1, 2.5, 2.5, 4, 5])
    ry = np.array([1, 4, 2.5, 2.5, 5])
    want = np.corrcoef(rx, ry)[0, 1]
    assert spearman(xs, ys) == pytest.approx(want, abs=1e-12)


def test_spearman_zero_variance_is_error():
    with pytest.raises(UndefinedMetricError):
        spearman([1, 1, 1], [1, 2, 3])


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_all_ones():
    records = P(*(rec([0.9], {0}) for _ in range(4)))
    counts, frac = score_histogram(recall_at_k(records, 5))
    assert counts[-1] == 4 and counts[:-1].sum() == 0
    assert frac == 1.0


def test_histogram_bin_edges():
    # scores 0, 0.5, 1 land in bins 0, 5, 9
    probs = [0.9, 0.8, 0.7, 0.6, 0.5, 0.1]
    records = P(
        rec(probs, {5}),       # last-ranked label misses the top 5 → recall 0
        rec(probs, {0, 5}),    # recall 0.5
        rec(probs, {0}),       # recall 1
    )
    counts, frac = score_histogram(recall_at_k(records, 5))
    assert counts[0] == 1 and counts[5] == 1 and counts[9] == 1
    assert counts.sum() == 3
    assert frac == pytest.approx(1 / 3)


def test_histogram_if1_metric_and_validation():
    records = P(rec([0.9], {0}))
    counts, frac = score_histogram(instance_f1(records))
    assert counts.sum() == 1 and frac == 1.0
    with pytest.raises(ValidationError):
        score_histogram(instance_f1(records), bins=0)


# ---------------------------------------------------------------------------
# level-3 consistency
# ---------------------------------------------------------------------------


def test_worked_inconsistent_pairs():
    assert codes_inconsistent("E78.2", "E78.5")
    assert codes_inconsistent("I70.203", "I70.202")


def test_identity_and_cross_chapter_pairs_consistent():
    assert not codes_inconsistent("E11.9", "E11.9")
    assert not codes_inconsistent("E78.2", "I70.203")


def test_malformed_code_rejected():
    with pytest.raises(ValidationError):
        codes_inconsistent("bad", "E78.5")


def test_consistency_check_window():
    encs = [
        _enc("P1", 1, ["E78.2"]),
        _enc("P1", 3, ["E78.5"]),    # within 7 days, same chapter, differs
        _enc("P1", 20, ["E78.2"]),   # outside the window
        _enc("P2", 1, ["I70.203"]),
        _enc("P2", 2, ["I70.203"]),  # identical → consistent
    ]
    report = consistency_check(encs, window_days=7)
    assert report == ConsistencyReport(matched_pairs=2, inconsistent_pairs=1)
    assert report.rate == 0.5


def test_consistency_empty_is_zero():
    assert consistency_check([]).rate == 0.0


# ---------------------------------------------------------------------------
# headline report
# ---------------------------------------------------------------------------


def test_report_csv_scales_by_100():
    records = P(rec([0.9, 0.1], {0}), rec([0.2, 0.8], {1}))
    report = compute_report(records)
    csv = report.as_csv()
    header, row = csv.strip().splitlines()
    assert header.startswith("auc_macro,auc_micro")
    assert row.split(",")[-1] == "100.00"
    text = report.as_text()
    assert "Recall@5" in text and "100.00" in text
