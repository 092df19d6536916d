"""Acceptance gate: eleven numbered end-to-end checks.

Each test prints one verdict line,

    [criterion NN] PASS — <measurements>

before asserting, so the line also appears when a criterion fails. Run
``pytest tests/test_acceptance.py -s`` to watch the lines stream; plain
``pytest`` shows them only for failures. Everything is seeded and
single-threaded, so the measured numbers are bit-reproducible; the whole
suite takes about five minutes on one core, dominated by the default-corpus
training fixture shared by criteria 4 and 9.
"""

import datetime as dt
import hashlib
import json
import time
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest

from icdlab import autodiff as ad
from icdlab.calibrate import (
    _pav,
    ece,
    evaluate_automation,
    fit_isotonic,
    search_thresholds,
)
from icdlab.cli import main as cli_main
from icdlab.corpus import CorpusConfig, Encounter, LabelSpace, generate_corpus, split_by_patient
from icdlab.metrics import (
    Predictions,
    auc_macro,
    auc_micro,
    codes_inconsistent,
    consistency_check,
    macro_f1,
    mean_instance_f1,
    mean_recall_at_k,
    micro_f1,
    recall_at_k,
    spearman,
)
from icdlab.model import (
    BaseHParams,
    BaseModel,
    MetadataReranker,
    ModalityVocabs,
    RerankerHParams,
)
from icdlab.preprocess import (
    build_vocab,
    dedup_ditto,
    encounter_aux_text,
    filter_min_frequency,
    preprocess_train,
)
from icdlab.train import (
    Notes,
    TrainConfig,
    data_fraction_experiment,
    predict_records,
    predict_records_reranked,
    train,
    train_reranker,
)
from oracles import grad_check, marginal_baseline_records, uniform_baseline_records


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def _notes(encounters, vocab, labels):
    return Notes.of(encounters, vocab, labels)


def _prepared(corpus_config, n_dev, n_test, split_seed, scope="consecutive"):
    """Generate → split → dedup+filter → vocab/labels, the standard chain."""
    corpus, labels = generate_corpus(corpus_config)
    split = split_by_patient(corpus, n_dev, n_test, seed=split_seed)
    filtered, _, _ = preprocess_train(split.train, 1, scope)
    vocab = build_vocab([e.text for e in filtered]
                        + [encounter_aux_text(e) for e in filtered], 1)
    return filtered, split, vocab, labels.with_train_counts(filtered), len(corpus)


# ---------------------------------------------------------------------------
# criterion 1 — gradient correctness on toy shapes
# ---------------------------------------------------------------------------


def _base_grad_error(arch: str, seed: int) -> float:
    rng = np.random.default_rng(seed)
    hp = BaseHParams(d_e=5, d_c=6, kernel_width=3, d_a=4)
    model = BaseModel.init(arch, 10, 3, hp, seed=seed)
    length = int(rng.integers(2, 7))  # T ≤ 6
    nt = np.asarray(rng.integers(2, 10, size=length), dtype=np.int64)
    target = ad.tensor(rng.integers(0, 2, size=(1, 3)).astype(np.float64))
    tensors = [model.params[k] for k in sorted(model.params)]

    def loss(*_):
        probs, _ = model.forward(nt, [length])
        return ad.bce_loss(probs, target)

    return grad_check(loss, tensors, eps=1e-4)


def _reranker_grad_error(seed: int) -> float:
    rng = np.random.default_rng(seed)
    vocabs = ModalityVocabs(med=("M1", "M2"), proc=("R1",),
                            doctor=("DR0",), dept=("D0",))
    rr = MetadataReranker.init(3, 6, vocabs, RerankerHParams(d=4, n_heads=2),
                               seed=seed)
    # a zero projection would zero most parameter gradients; small scales keep
    # the residual scores inside (0, 1) where the loss's clip is differentiable
    rr.params["proj_w"].data[:] = rng.normal(size=(3, 4)) * 0.2
    rr.params["proj_b"].data[:] = rng.normal(size=3) * 0.05
    base_p = ad.tensor(np.full((1, 3), 0.5))
    h_note = ad.tensor(rng.normal(size=(4, 6)))
    h_aux = ad.tensor(rng.normal(size=(2, 6)))
    enc = Encounter("P0", dt.date(2020, 1, 1), "D0", "DR0", "t",
                    frozenset(["A00.0"]), ("M1",), ("R1",))
    metadata = [(rows, np.diff(offsets)) for offsets, rows in
                rr.vocabs.rows(_notes([enc], build_vocab([]), LabelSpace(("A00.0",))))]
    target = ad.tensor(rng.integers(0, 2, size=(1, 3)).astype(np.float64))
    tensors = [rr.params[k] for k in sorted(rr.params)]

    def loss(*_):
        return ad.bce_loss(rr.forward(base_p, h_note, [4], h_aux, [2], metadata), target)

    return grad_check(loss, tensors, eps=1e-4)


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        worst = max(worst,
                    _base_grad_error("caml", seed),
                    _base_grad_error("laat", seed),
                    _reranker_grad_error(seed))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(1, ok, f"max grad-check error {worst:.2e} over 20 seeds × "
                    f"(caml, laat, reranker) in {elapsed:.1f}s (< 1e-4, < 30s)")


# ---------------------------------------------------------------------------
# criterion 2 — metric implementations against brute-force oracles
# ---------------------------------------------------------------------------


# one document as the brute-force oracles read it
_Row = namedtuple("_Row", "probs gt_indices n_unseen")
_ENC = Encounter("P0", dt.date(2020, 1, 1), "D0", "DR0", "t", frozenset(["A00.0"]))


def _predictions(rows) -> Predictions:
    """The Predictions value holding the given oracle rows, in order."""
    probs = np.array([r.probs for r in rows], dtype=np.float64)
    gt = np.zeros(probs.shape, dtype=bool)
    for i, r in enumerate(rows):
        gt[i, sorted(r.gt_indices)] = True
    m = len(rows)
    return Predictions(probs, gt, [r.n_unseen for r in rows], ["D0"] * m, [True] * m,
                       [""] * m, **_visit_columns([_ENC] * m))


def _visit_columns(encounters) -> dict:
    """The patient, date and code columns of Predictions over `encounters`."""
    codes = [sorted(e.codes) for e in encounters]
    return {"patient_id": [e.patient_id for e in encounters],
            "date": [e.date for e in encounters],
            "code_offsets": np.cumsum([0, *map(len, codes)]),
            "codes": [c for row in codes for c in row]}


def _visits(encounters) -> Predictions:
    """Predictions over `encounters` that score no label: their columns only."""
    m = len(encounters)
    return Predictions(np.zeros((m, 0)), np.zeros((m, 0), dtype=bool), [0] * m,
                       [e.dept for e in encounters], [True] * m, [""] * m,
                       **_visit_columns(encounters))


def _quantized_record(rng, n_labels, max_unseen=2):
    # a coarse score grid forces ties, the part worth testing
    probs = rng.integers(0, 21, size=n_labels) / 20
    n_gt = int(rng.integers(1, min(4, n_labels) + 1))
    gt = frozenset(int(i) for i in rng.choice(n_labels, size=n_gt, replace=False))
    return _Row(probs, gt, n_unseen=int(rng.integers(0, max_unseen + 1)))


def _recall_oracle(rec, k):
    order = sorted(range(rec.probs.size), key=lambda i: (-rec.probs[i], i))
    hits = sum(1 for i in order[:k] if i in rec.gt_indices)
    return hits / (len(rec.gt_indices) + rec.n_unseen)


def _f1_oracles(recs, thr):
    n = recs[0].probs.size
    tp = fp = fn = 0
    inst = []
    per_tp, per_fp, per_fn = [0] * n, [0] * n, [0] * n
    for r in recs:
        pred = {i for i in range(n) if r.probs[i] > thr}
        t = len(pred & r.gt_indices)
        total_gt = len(r.gt_indices) + r.n_unseen
        if not pred:
            inst.append(0.0)
        else:
            precision = t / len(pred)
            recall = t / total_gt
            inst.append(0.0 if precision + recall == 0.0
                        else 2.0 * precision * recall / (precision + recall))
        tp += t
        fp += len(pred - r.gt_indices)
        fn += len(r.gt_indices - pred) + r.n_unseen
        for i in pred & r.gt_indices:
            per_tp[i] += 1
        for i in pred - r.gt_indices:
            per_fp[i] += 1
        for i in r.gt_indices - pred:
            per_fn[i] += 1
    micro = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    per_label = [2 * per_tp[i] / (2 * per_tp[i] + per_fp[i] + per_fn[i])
                 for i in range(n) if per_tp[i] + per_fn[i] > 0]
    macro = float(np.mean(np.asarray(per_label))) if per_label else None
    return float(np.mean(np.asarray(inst))), micro, macro


def _pairwise_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(1.0 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _avg_ranks(values):
    return [sum(1 for u in values if u < w)
            + (sum(1 for u in values if u == w) + 1) / 2 for w in values]


def _pav_partition_oracle(means, weights):
    """Least-squares monotone fit by enumerating contiguous partitions."""
    n = len(means)
    best_sse, best_fit = None, None
    for mask in range(1 << (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        fit = np.empty(n)
        prev = -np.inf
        ok = True
        for a, b in zip(bounds, bounds[1:]):
            w = weights[a:b]
            v = float(np.dot(w, means[a:b]) / w.sum())
            if v < prev:
                ok = False
                break
            prev = v
            fit[a:b] = v
        if not ok:
            continue
        sse = float(np.dot(weights, (fit - means) ** 2))
        if best_sse is None or sse < best_sse:
            best_sse, best_fit = sse, fit
    return best_fit


def test_criterion_02_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    bad = []

    for case in range(1000):  # recall@k, exact
        rec = _quantized_record(rng, int(rng.integers(4, 13)))
        k = int(rng.integers(1, rec.probs.size + 1))
        if recall_at_k(_predictions([rec]), k)[0] != _recall_oracle(rec, k):
            bad.append(f"recall case {case}")

    for case in range(1000):  # instance/micro/macro F1, exact
        n = int(rng.integers(4, 9))
        recs = [_quantized_record(rng, n) for _ in range(int(rng.integers(1, 6)))]
        thr = int(rng.integers(0, 20)) / 20
        want_inst, want_micro, want_macro = _f1_oracles(recs, thr)
        preds = _predictions(recs)
        if mean_instance_f1(preds, thr) != want_inst:
            bad.append(f"iF1 case {case}")
        if micro_f1(preds, thr) != want_micro:
            bad.append(f"micro case {case}")
        if want_macro is not None and macro_f1(preds, thr) != want_macro:
            bad.append(f"macro case {case}")

    for case in range(1000):  # micro AUC, exact (ties via the score grid)
        n = int(rng.integers(4, 9))
        recs = [_quantized_record(rng, n, max_unseen=0)
                for _ in range(int(rng.integers(2, 7)))]
        scores, ys = [], []
        for r in recs:
            for j in range(n):
                scores.append(float(r.probs[j]))
                ys.append(j in r.gt_indices)
        if not (any(ys) and not all(ys)):
            continue
        if auc_micro(_predictions(recs)) != _pairwise_auc(scores, ys):
            bad.append(f"auc-micro case {case}")

    for case in range(1000):  # macro AUC: mean over two-class labels
        n = int(rng.integers(4, 9))
        recs = [_quantized_record(rng, n, max_unseen=0)
                for _ in range(int(rng.integers(2, 7)))]
        vals = []
        for j in range(n):
            col = [float(r.probs[j]) for r in recs]
            ys = [j in r.gt_indices for r in recs]
            if any(ys) and not all(ys):
                vals.append(_pairwise_auc(col, ys))
        if not vals:
            continue
        if auc_macro(_predictions(recs)) != float(np.mean(np.asarray(vals))):
            bad.append(f"auc-macro case {case}")

    for case in range(1000):  # spearman: brute-force average ranks
        size = int(rng.integers(3, 13))
        xs = rng.integers(0, 5, size=size).astype(float)
        ys = rng.integers(0, 5, size=size).astype(float)
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        rx = np.asarray(_avg_ranks(list(xs)))
        ry = np.asarray(_avg_ranks(list(ys)))
        want = float(((rx - rx.mean()) * (ry - ry.mean())).mean()
                     / (rx.std() * ry.std()))
        if spearman(xs, ys) != want:
            bad.append(f"spearman case {case}")

    pav_worst = 0.0
    for case in range(1000):  # PAV against partition enumeration, 1e-9
        size = int(rng.integers(3, 11))
        means = rng.uniform(size=size)
        weights = rng.integers(1, 6, size=size).astype(float)
        got = _pav(means * weights, weights)
        want = _pav_partition_oracle(means, weights)
        pav_worst = max(pav_worst, float(np.max(np.abs(got - want))))
        if not np.allclose(got, want, atol=1e-9):
            bad.append(f"pav case {case}")

    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    extra = f"; first failures: {bad[:3]}" if bad else ""
    _verdict(2, ok, f"recall@k/F1/AUC/spearman exact and PAV ≤ {pav_worst:.1e} "
                    f"over 1000 cases each in {elapsed:.1f}s (< 60s){extra}")


# ---------------------------------------------------------------------------
# criterion 3 — dedup and label-filter properties
# ---------------------------------------------------------------------------

_C3_CODES = ("A00.0", "B11.1", "C22.2", "D33.3", "E44.4", "F55.5")


def _random_history(rng, pid):
    day0 = dt.date(2021, 1, 1)
    encs, prev = [], None
    for i in range(int(rng.integers(1, 13))):
        date = day0 + dt.timedelta(days=int(rng.integers(0, 60)))
        if prev is not None and rng.random() < 0.5:
            codes = prev  # copied-forward visit
        else:
            picks = rng.choice(len(_C3_CODES), size=int(rng.integers(1, 4)),
                               replace=False)
            codes = frozenset(_C3_CODES[j] for j in picks)
        prev = codes
        encs.append(Encounter(pid, date, "D0", "DR0", f"note {i}", codes))
    return encs


def _first_of_run_oracle(history):
    ordered = sorted(history, key=lambda e: e.date)
    kept = [ordered[0]]
    for enc in ordered[1:]:
        if enc.codes != kept[-1].codes:
            kept.append(enc)
    return kept


def _first_ever_oracle(history):
    ordered = sorted(history, key=lambda e: e.date)
    kept, seen = [], set()
    for enc in ordered:
        if enc.codes not in seen:
            kept.append(enc)
            seen.add(enc.codes)
    return kept


def test_criterion_03_preprocessing_properties():
    rng = np.random.default_rng(814)
    pool, mismatches = [], 0
    for i in range(1000):
        history = _random_history(rng, f"P{i}")
        pool.extend(history)
        for scope, oracle in (("consecutive", _first_of_run_oracle),
                              ("global", _first_ever_oracle)):
            deduped = dedup_ditto(history, scope)
            if deduped != oracle(history):
                mismatches += 1
            if dedup_ditto(deduped, scope) != deduped:  # idempotence
                mismatches += 1
            if deduped[0] != min(history, key=lambda e: e.date):
                mismatches += 1

    # min-frequency recount over pools of very different sizes, including one
    # where a hand-planted rare code must disappear
    rare = [Encounter(f"Q{i}", dt.date(2021, 1, 1), "D0", "DR0", "x",
                      frozenset(["Z99.9", "A00.0"])) for i in range(3)]
    recount_ok, rare_gone = True, True
    for docs in (pool, pool[:300] + rare, pool[:40], pool[:5]):
        for min_count in (2, 5, 100):
            filtered, retained = filter_min_frequency(docs, min_count)
            counts = Counter(c for e in filtered for c in e.codes)
            recount_ok &= set(counts) <= retained
            recount_ok &= all(v >= min_count for v in counts.values())
    filtered, _ = filter_min_frequency(pool[:300] + rare, 5)
    rare_gone = all("Z99.9" not in e.codes for e in filtered)

    ok = mismatches == 0 and recount_ok and rare_gone
    _verdict(3, ok, f"dedup idempotent + first-of-run retention on 1000 histories "
                    f"({mismatches} mismatches); post-filter counts ≥ K for "
                    f"K∈{{2,5,100}} on 4 pools: {recount_ok and rare_gone}")


# ---------------------------------------------------------------------------
# criterion 4 — end-to-end learnability on the default corpus
# (the trained run is shared with criterion 9)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def default_run():
    t0 = time.perf_counter()
    filtered, split, vocab, labels, n_enc = _prepared(CorpusConfig(), 75, 75,
                                                      split_seed=42)
    dev = _notes(split.dev, vocab, labels)
    model = BaseModel.init("caml", len(vocab), len(labels), BaseHParams(), seed=7)
    train(model, _notes(filtered, vocab, labels), dev,
          TrainConfig(learning_rate=5e-3, batch_size=32, max_epochs=20,
                      patience=5, seed=0))
    return {
        "labels": labels,
        "dev_notes": dev,
        "dev_records": predict_records(model, dev),
        "test_records": predict_records(model, _notes(split.test, vocab, labels)),
        "n_encounters": n_enc,
        "seconds": time.perf_counter() - t0,
    }


def test_criterion_04_end_to_end_learnability(default_run):
    labels, dev = default_run["labels"], default_run["dev_notes"]
    model_r5 = mean_recall_at_k(default_run["dev_records"], 5)
    uniform_r5 = mean_recall_at_k(uniform_baseline_records(dev, seed=0), 5)
    marginal_r5 = mean_recall_at_k(marginal_baseline_records(dev, labels), 5)
    secs = default_run["seconds"]
    ok = (model_r5 >= 0.85
          and model_r5 - uniform_r5 >= 0.25
          and model_r5 - marginal_r5 >= 0.25
          and 6000 <= default_run["n_encounters"] <= 8000
          and len(labels) == 300
          and secs < 600.0)
    _verdict(4, ok, f"dev R@5 {model_r5:.4f} ≥ 0.85; margins +{model_r5 - uniform_r5:.3f} "
                    f"over uniform ({uniform_r5:.4f}), +{model_r5 - marginal_r5:.3f} over "
                    f"marginal ({marginal_r5:.4f}); {default_run['n_encounters']} encounters, "
                    f"{len(labels)} codes, {secs:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# criterion 5 — metadata reranker pays off iff notes omit evidence
# ---------------------------------------------------------------------------


def _reranker_arm(omitted: float):
    cc = CorpusConfig(n_patients=180, n_codes=120, n_depts=8, n_doctors=24,
                      mean_encounters_per_patient=10.0, mean_codes_per_encounter=2.0,
                      omitted_evidence_fraction=omitted, seed=5)
    filtered, split, vocab, labels, _ = _prepared(cc, 40, 40, split_seed=3)
    tr, dv, ts = (_notes(filtered, vocab, labels), _notes(split.dev, vocab, labels),
                  _notes(split.test, vocab, labels))
    hp = BaseHParams(d_e=24, d_c=32, kernel_width=5, d_a=16)
    base = BaseModel.init("caml", len(vocab), len(labels), hp, seed=7)
    train(base, tr, dv,
          TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=30,
                      patience=10, seed=0))
    base_r5 = mean_recall_at_k(predict_records(base, ts), 5)
    reranker = MetadataReranker.init(len(labels), hp.d_c, ModalityVocabs.of(tr),
                                     RerankerHParams(d=32, n_heads=2), seed=11)
    train_reranker(base, reranker, tr, dv,
                   TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=25,
                               patience=3, seed=1))
    reranked_r5 = mean_recall_at_k(
        predict_records_reranked(base, reranker, ts), 5)
    return base_r5, reranked_r5


def test_criterion_05_reranker_trend():
    base_hi, rr_hi = _reranker_arm(0.2)
    base_no, rr_no = _reranker_arm(0.0)
    gain_hi, gap_no = rr_hi - base_hi, rr_no - base_no
    ok = gain_hi >= 0.02 and abs(gap_no) <= 0.01
    _verdict(5, ok, f"omitted-evidence 0.2: test R@5 {base_hi:.4f} → {rr_hi:.4f} "
                    f"(gain {gain_hi:+.4f} ≥ 0.02); omitted-evidence 0: "
                    f"{base_no:.4f} → {rr_no:.4f} (gap {gap_no:+.4f}, |gap| ≤ 0.01)")


# ---------------------------------------------------------------------------
# criterion 6 — dedup matches full training at equal epoch budget
# ---------------------------------------------------------------------------


def test_criterion_06_dedup_budget():
    cc = CorpusConfig(n_patients=250, n_codes=150, ditto_probability=0.6,
                      mean_encounters_per_patient=12.0, seed=9)
    corpus, labels = generate_corpus(cc)
    split = split_by_patient(corpus, 40, 40, seed=3)
    full_train, _, _ = preprocess_train(split.train, 1, "none")
    dedup_train, _, _ = preprocess_train(split.train, 1, "consecutive")
    # shared vocabulary and label counts: the arms differ only in examples
    vocab = build_vocab([e.text for e in full_train]
                        + [encounter_aux_text(e) for e in full_train], 1)
    labels = labels.with_train_counts(full_train)
    dev = _notes(split.dev, vocab, labels)
    hp = BaseHParams(d_e=24, d_c=32, kernel_width=5, d_a=16)
    config = TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=30,
                         patience=30, seed=0)
    best = {}
    for name, encounters in (("full", full_train), ("dedup", dedup_train)):
        model = BaseModel.init("caml", len(vocab), len(labels), hp, seed=7)
        _, history = train(model, _notes(encounters, vocab, labels), dev, config)
        best[name] = max(e.dev_recall_at_5 for e in history.epochs)
    ratio = len(dedup_train) / len(full_train)
    ok = best["dedup"] >= best["full"] and ratio <= 0.75
    _verdict(6, ok, f"equal 30-epoch budget: dedup dev R@5 {best['dedup']:.4f} ≥ "
                    f"full {best['full']:.4f} with {100 * (1 - ratio):.0f}% fewer "
                    f"training examples ({len(dedup_train)} vs {len(full_train)})")


# ---------------------------------------------------------------------------
# criterion 7 — data-fraction saturation
# ---------------------------------------------------------------------------


def test_criterion_07_data_fraction_saturation():
    cc = CorpusConfig(n_patients=400, n_codes=60,
                      mean_encounters_per_patient=12.0, seed=13)
    filtered, split, vocab, labels, _ = _prepared(cc, 40, 40, split_seed=3)
    hp = BaseHParams(d_e=24, d_c=32, kernel_width=5, d_a=16)
    config = TrainConfig(learning_rate=5e-3, batch_size=16, max_epochs=40,
                         patience=6, seed=0)
    rows = data_fraction_experiment(
        lambda: BaseModel.init("caml", len(vocab), len(labels), hp, seed=7),
        _notes(filtered, vocab, labels), _notes(split.dev, vocab, labels),
        [0.05, 0.1, 0.25, 0.5, 1.0], config,
        eval_notes=_notes(split.test, vocab, labels))
    rel = {r.fraction: r.relative_recall_at_5 for r in rows}
    curve = [rel[f] for f in (0.05, 0.1, 0.25, 0.5, 1.0)]
    monotone = all(b >= a - 0.02 for a, b in zip(curve, curve[1:]))
    ok = rel[0.5] >= 0.95 and monotone
    _verdict(7, ok, "normalized test R@5 at fraction 0.5 is "
                    f"{rel[0.5]:.4f} (≥ 0.95); curve "
                    + "/".join(f"{v:.3f}" for v in curve)
                    + f" non-decreasing within 0.02: {monotone}")


# ---------------------------------------------------------------------------
# criterion 8 — automation threshold search under a false-positive budget
# ---------------------------------------------------------------------------


def _confusable_records(rng, n=400, n_labels=8):
    """Mostly well-separated documents plus 15% near-threshold confusers."""
    records = []
    for _ in range(n):
        gt = {int(i) for i in rng.choice(n_labels, size=int(rng.integers(1, 3)),
                                         replace=False)}
        probs = rng.uniform(0.02, 0.30, size=n_labels)
        for i in gt:
            probs[i] = rng.uniform(0.55, 0.95)
        roll = rng.random()
        if roll < 0.075:  # spurious extra prediction just above threshold
            extras = [j for j in range(n_labels) if j not in gt]
            probs[extras[int(rng.integers(0, len(extras)))]] = rng.uniform(0.50, 0.60)
        elif roll < 0.15:  # one true code sinks below threshold
            probs[next(iter(gt))] = rng.uniform(0.32, 0.48)
        records.append(_Row(probs, frozenset(gt), 0))
    return _predictions(records)


def _separable_records(rng, n=200, n_labels=6):
    """Exact-match documents score high and clean; the rest miss one code."""
    records = []
    for i in range(n):
        gt = [int(j) for j in rng.choice(n_labels, size=2, replace=False)]
        probs = rng.uniform(0.01, 0.05, size=n_labels)
        probs[gt[0]] = rng.uniform(0.92, 0.99)
        if i % 5 < 3:
            probs[gt[1]] = rng.uniform(0.92, 0.99)
        else:
            probs[gt[1]] = rng.uniform(0.30, 0.45)  # below the decision threshold
        records.append(_Row(probs, frozenset(gt), 0))
    return _predictions(records)


def test_criterion_08_automation_budget():
    rng = np.random.default_rng(88)
    dev = _confusable_records(rng)
    budget_ok, any_tp = True, False
    compliance = []
    budgets = (0.05, 0.10, 0.15, 0.20)
    for max_fp, (identified, fp_rate) in zip(
            budgets, evaluate_automation(dev, search_thresholds(dev, budgets))):
        budget_ok &= fp_rate <= max_fp + 1e-12
        any_tp |= identified > 0  # some exact match selected
        compliance.append(f"{max_fp:.2f}:{fp_rate:.3f}")

    violations = 0
    for _ in range(10_000):
        probs = rng.integers(0, 21, size=6) / 20
        gt = frozenset(int(i) for i in rng.choice(6, size=2, replace=False))
        record = _predictions([_Row(probs, gt, 0)])
        u1, u2 = sorted(rng.integers(0, 21, size=2) / 20)
        l2, l1 = sorted(rng.integers(0, 21, size=2) / 20)
        loose = (float(u1), float(l1))
        tight = (float(u2), float(l2))  # higher t_u, lower t_l
        # one document: a rule selects it iff it counts as identified or as a false positive
        tight_sel, loose_sel = (hit + fpr > 0 for hit, fpr
                                in evaluate_automation(record, [tight, loose]))
        if tight_sel and not loose_sel:
            violations += 1

    sep_rules = search_thresholds(_separable_records(np.random.default_rng(881)), [0.05])
    [(pct, _)] = evaluate_automation(_separable_records(np.random.default_rng(882)), sep_rules)

    ok = budget_ok and any_tp and violations == 0 and pct >= 0.5
    _verdict(8, ok, f"dev fp-rate within budget at {' '.join(compliance)} "
                    f"(TP found: {any_tp}); tighter-rule⊆looser-rule held on "
                    f"10000 probes ({violations} violations); separable fixture "
                    f"identified {100 * pct:.0f}% of possible at budget 0.05 (≥ 50%)")


# ---------------------------------------------------------------------------
# criterion 9 — isotonic calibration improves ECE
# ---------------------------------------------------------------------------


def test_criterion_09_calibration(default_run):
    dev_records = default_run["dev_records"]
    test_records = default_run["test_records"]
    maps = fit_isotonic(dev_records)
    cal_dev = maps.apply(dev_records)
    cal_test = maps.apply(test_records)
    n = len(default_run["labels"])
    def label_ece(p, j):
        return ece(p.probs[:, j], p.gt[:, j])

    fit_ok = sum(label_ece(cal_dev, j) <= label_ece(dev_records, j) + 1e-9 for j in range(n))
    test_down = sum(label_ece(cal_test, j) < label_ece(test_records, j) for j in range(n))
    ok = fit_ok == n and test_down > n / 2
    _verdict(9, ok, f"fit-data ECE non-increasing for {fit_ok}/{n} labels "
                    f"(need {n}/{n}); held-out ECE strictly lower for "
                    f"{test_down}/{n} labels (need > {n // 2})")


# ---------------------------------------------------------------------------
# criterion 10 — level-3 consistency worked examples
# ---------------------------------------------------------------------------


def test_criterion_10_consistency_examples():
    conflicts = [("E78.2", "E78.5"), ("I70.203", "I70.202")]
    flagged = all(codes_inconsistent(a, b) and codes_inconsistent(b, a)
                  for a, b in conflicts)
    identity = not any(codes_inconsistent(c, c)
                       for pair in conflicts for c in pair)
    cross_chapter = codes_inconsistent("E78.2", "I70.203")
    # a revisit three days later with the sibling code is one matched pair,
    # flagged; the revisit outside the window is ignored
    visits = [
        Encounter("P1", dt.date(2024, 3, 1), "D0", "DR0", "a", frozenset(["E78.2"])),
        Encounter("P1", dt.date(2024, 3, 4), "D0", "DR0", "b", frozenset(["E78.5"])),
        Encounter("P1", dt.date(2024, 3, 30), "D0", "DR0", "c", frozenset(["E78.5"])),
    ]
    report = consistency_check(_visits(visits), window_days=7)
    ok = (flagged and identity and not cross_chapter
          and (report.matched_pairs, report.inconsistent_pairs, report.rate)
          == (1, 1, 1.0))
    _verdict(10, ok, f"(E78.2,E78.5) and (I70.203,I70.202) inconsistent: {flagged}; "
                     f"identity pairs consistent: {identity}; cross-chapter ignored: "
                     f"{not cross_chapter}; windowed report {report.matched_pairs} "
                     f"matched / {report.inconsistent_pairs} flagged")


# ---------------------------------------------------------------------------
# criterion 11 — byte-identical replays of the whole pipeline
# ---------------------------------------------------------------------------

_PIPELINE_CFG = """\
seed = 11
n_patients = 30
n_codes = 12
n_depts = 3
n_doctors = 5
tokens_per_code = 3
vocab_size = 120
mean_encounters_per_patient = 6.0
mean_codes_per_encounter = 1.3
n_dev_patients = 5
n_test_patients = 5
min_code_count = 1
d_e = 8
d_c = 8
kernel_width = 3
d_a = 4
reranker_d = 8
learning_rate = 0.01
batch_size = 8
max_epochs = 1
patience = 1
reranker_max_epochs = 1
fractions = 0.5,1.0
"""


def _pipeline_argv(cfg: str) -> list[list[str]]:
    return [
        ["gen-corpus", "--config", cfg, "--out", "corpus"],
        ["preprocess", "--config", cfg, "--in", "corpus", "--out", "prep"],
        ["train", "--config", cfg, "--in", "prep", "--out", "model"],
        ["train-reranker", "--config", cfg, "--in", "prep", "--base", "model",
         "--out", "reranker"],
        ["evaluate", "--config", cfg, "--in", "prep", "--model", "model",
         "--out", "eval_dev", "--split", "dev"],
        ["evaluate", "--config", cfg, "--in", "prep", "--model", "model",
         "--out", "eval_test", "--breakdown", "dept"],
        ["evaluate", "--config", cfg, "--in", "prep", "--model", "model",
         "--reranker", "reranker", "--out", "eval_rr"],
        ["calibrate", "--config", cfg, "--in", "eval_dev", "--out", "calib"],
        ["automate", "--config", cfg, "--dev", "eval_dev", "--test", "eval_test",
         "--out", "auto", "--max-fp", "0.1,0.2", "--calibrated", "--maps", "calib"],
        ["report", "--config", cfg, "--in", "eval_test", "--out", "report"],
        ["fractions", "--config", cfg, "--in", "prep", "--out", "fractions"],
    ]


def test_criterion_11_manifest_replay_determinism(tmp_path, monkeypatch):
    roots = []
    for run in ("run_a", "run_b"):  # relative argv keeps manifests comparable
        root = tmp_path / run
        root.mkdir()
        monkeypatch.chdir(root)
        Path("run.cfg").write_text(_PIPELINE_CFG, encoding="utf-8")
        for argv in _pipeline_argv("run.cfg"):
            assert cli_main(argv) == 0, argv
        roots.append(root)
    a, b = roots

    log_names = set()
    for mf in a.rglob("manifest.json"):
        log_names.update(json.loads(mf.read_text(encoding="utf-8")).get("logs", []))
    rel_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    rel_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    cross_run_diffs = [str(rel) for rel in sorted(rel_a & rel_b)
                       if rel.name not in log_names
                       and (a / rel).read_bytes() != (b / rel).read_bytes()]

    # replay each stage of run A from its recorded argv; every declared output
    # must re-hash to the digest the manifest froze
    monkeypatch.chdir(a)
    replay_mismatches = []
    for argv in _pipeline_argv("run.cfg"):
        out_dir = a / argv[argv.index("--out") + 1]
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        assert cli_main(manifest["argv"]) == 0, manifest["command"]
        for name, digest in manifest["outputs"].items():
            got = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            if got != digest:
                replay_mismatches.append(f"{manifest['command']}/{name}")

    n_compared = sum(1 for rel in rel_a if rel.name not in log_names)
    ok = rel_a == rel_b and not cross_run_diffs and not replay_mismatches
    detail = (f"two pipeline runs byte-identical on {n_compared} files; "
              f"11 stages replayed from their manifests with all output "
              f"digests unchanged")
    if cross_run_diffs or replay_mismatches:
        detail += f"; diffs {cross_run_diffs[:3]} replay {replay_mismatches[:3]}"
    _verdict(11, ok, detail)
