"""Training loop semantics on toy models."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdlab import autodiff as ad
from icdlab.corpus import Encounter, LabelSpace
from icdlab.errors import ConfigError, NumericError, ValidationError
from icdlab.metrics import mean_recall_at_k
from icdlab.model import BaseHParams, BaseModel, MetadataReranker, ModalityVocabs, RerankerHParams
from icdlab.preprocess import TokenizedNote, Vocabulary, tokenize
from icdlab.train import (
    Adam,
    TrainConfig,
    TrainHistory,
    _batch_mean_grads,
    _fit,
    data_fraction_experiment,
    fraction_csv,
    frequency_bucket,
    label_targets,
    marginal_baseline_records,
    predict_records,
    predict_records_reranked,
    subsample_train,
    train,
    train_reranker,
    uniform_baseline_records,
)

VOCAB = Vocabulary(("aches", "bruise", "cough", "dizzy", "edema"))
LABELS = LabelSpace(("A00.0", "B11.1"), {"A00.0": 40, "B11.1": 4})
HP = BaseHParams(d_e=8, d_c=8, kernel_width=3, d_a=4)


def enc(pid="P1", day=1, codes=("A00.0",), text="aches cough", **kw):
    return Encounter(pid, dt.date(2021, 1, day), kw.get("dept", "D0"),
                     kw.get("doctor", "DR000"), text, frozenset(codes),
                     meds=kw.get("meds", ()), procs=kw.get("procs", ()))


def note(text="aches cough", **kw):
    return tokenize(text, VOCAB, encounter=enc(text=text, **kw))


def toy_model(seed=0, arch="caml"):
    return BaseModel.init(arch, vocab_size=len(VOCAB), n_labels=len(LABELS),
                          hp=HP, seed=seed)


# ---------------------------------------------------------------------------
# config and targets
# ---------------------------------------------------------------------------


def test_config_validation():
    for kw in ({"learning_rate": 0.0}, {"batch_size": 0}, {"patience": 0},
               {"max_epochs": -1}, {"decision_threshold": 1.0}):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


def test_label_targets_split_in_and_out_of_space():
    n = tokenize("aches", VOCAB, encounter=enc(codes=("A00.0", "Z99.9")))
    assert label_targets(n, LABELS).tolist() == [1.0, 0.0]
    records = predict_records(toy_model(), [n], LABELS)
    assert records.gt.tolist() == [[True, False]] and records.n_unseen.tolist() == [1]


def test_label_targets_need_encounter():
    with pytest.raises(ValidationError):
        label_targets(TokenizedNote((2, 3)), LABELS)


def test_frequency_bucket_edges():
    labels = LabelSpace(("A00.0", "B11.1", "C22.2", "D33.3"),
                        {"A00.0": 500, "B11.1": 50, "C22.2": 5})
    assert frequency_bucket(["A00.0"], labels) == "100+"
    assert frequency_bucket(["B11.1"], labels) == "10-99"
    assert frequency_bucket(["C22.2"], labels) == "1-9"
    assert frequency_bucket(["D33.3"], labels) == "0"
    assert frequency_bucket(["A00.0", "D33.3"], labels) == "0"  # rarest wins


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_step_is_signed_descent_at_start():
    w = ad.tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"w": w}, learning_rate=0.1)
    opt.step({w: np.array([3.0, -4.0])})
    # first step moves each coordinate by ~lr against the gradient sign
    np.testing.assert_allclose(w.data, [0.9, -1.9], atol=1e-6)


def test_adam_skips_untouched_params():
    w = ad.tensor(np.array([1.0]), requires_grad=True)
    u = ad.tensor(np.array([5.0]), requires_grad=True)
    opt = Adam({"w": w, "u": u})
    opt.step({w: np.array([1.0])})
    assert u.data[0] == 5.0


def test_single_step_decreases_batch_loss():
    # line-search probe: a small step along Adam's direction must help
    model = toy_model(seed=3)
    notes = [note(), note(text="bruise dizzy", codes=("B11.1",))]
    pairs = [(n, ad.tensor(label_targets(n, LABELS))) for n in notes]

    def batch_loss():
        vals = []
        with ad.no_grad():
            for n, y in pairs:
                p, _, _ = model.forward(n)
                vals.append(float(ad.bce_loss(p, y).data))
        return float(np.mean(vals))

    def loss_of(pair):
        p, _, _ = model.forward(pair[0])
        return ad.bce_loss(p, pair[1])

    before = batch_loss()
    loss, grads = _batch_mean_grads(loss_of, pairs, epoch=1, batch_index=0)
    assert loss == pytest.approx(before)
    Adam(model.params, learning_rate=1e-4).step(grads)
    assert batch_loss() < before


# ---------------------------------------------------------------------------
# the epoch loop, driven through a scripted dev evaluator
# ---------------------------------------------------------------------------


def scripted_fit(dev_r5_values, patience, max_epochs=50):
    w = ad.tensor(np.array([1.0, 2.0]), requires_grad=True)
    params = {"w": w}
    captures = []  # w as of each dev evaluation (index 0 = before training)
    script = iter(dev_r5_values)

    def dev_scores():
        captures.append(w.data.copy())
        return next(script), 0.0

    def loss_of(_):
        return ad.tensor_sum(ad.mul(w, w))

    config = TrainConfig(learning_rate=0.05, batch_size=1, max_epochs=max_epochs,
                         patience=patience)
    snap, history = _fit(params, [0], loss_of, dev_scores, config)
    return snap, history, captures, w


def test_early_stop_patience_counts_from_best_epoch():
    vals = [0.5, 0.6, 0.8] + [0.7] * 47
    snap, history, captures, w = scripted_fit(vals, patience=2)
    assert len(history.epochs) == 4  # best at 2, two stale epochs, stop
    np.testing.assert_array_equal(w.data, captures[2])
    np.testing.assert_array_equal(snap["w"], captures[2])


def test_ties_keep_the_earliest_epoch():
    snap, history, captures, _ = scripted_fit([0.5, 0.8, 0.8, 0.8, 0.8], patience=3)
    assert len(history.epochs) == 4
    np.testing.assert_array_equal(snap["w"], captures[1])


def test_initial_params_win_when_training_never_helps():
    snap, history, captures, w = scripted_fit([0.9, 0.5, 0.5], patience=2)
    assert len(history.epochs) == 2
    np.testing.assert_array_equal(snap["w"], captures[0])
    np.testing.assert_array_equal(w.data, captures[0])


def test_history_runs_to_max_epochs_when_improving():
    vals = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    _, history, _, _ = scripted_fit(vals, patience=2, max_epochs=5)
    assert [e.epoch for e in history.epochs] == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# end-to-end base training
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_initial_params():
    model = toy_model()
    before = {k: t.data.copy() for k, t in model.params.items()}
    snap, history = train(model, [note()], [note()], LABELS,
                          TrainConfig(max_epochs=0))
    assert history == TrainHistory()
    for k in before:
        np.testing.assert_array_equal(snap[k], before[k])


def test_single_example_memorization():
    model = toy_model(seed=1)
    n = note()
    config = TrainConfig(learning_rate=0.05, batch_size=1, max_epochs=200,
                         patience=200)
    _, history = train(model, [n], [n], LABELS, config)
    assert history.epochs[-1].loss < 0.01


def test_same_seed_reproduces_history_exactly():
    notes = [note(), note(text="bruise dizzy", codes=("B11.1",)),
             note(text="cough edema", codes=("A00.0", "B11.1"))]
    runs = []
    for _ in range(2):
        model = toy_model(seed=5)
        _, history = train(model, notes, notes, LABELS,
                           TrainConfig(max_epochs=3, patience=3, seed=11))
        # everything but wall-clock must reproduce bit-for-bit
        runs.append([(e.epoch, e.loss, e.dev_recall_at_5, e.dev_instance_f1)
                     for e in history.epochs])
    assert runs[0] == runs[1]


def test_non_finite_loss_names_the_batch():
    model = toy_model()
    model.params["out_b"].data[0] = np.nan
    with pytest.raises(NumericError, match=r"batch 0"):
        train(model, [note()], [note()], LABELS, TrainConfig(max_epochs=1))


def test_empty_sets_rejected():
    model = toy_model()
    with pytest.raises(ValidationError):
        train(model, [], [note()], LABELS, TrainConfig())
    with pytest.raises(ValidationError):
        train(model, [note()], [], LABELS, TrainConfig())


def test_history_csv_shape():
    model = toy_model()
    _, history = train(model, [note()], [note()], LABELS,
                       TrainConfig(max_epochs=2, patience=5))
    lines = history.to_csv().strip().splitlines()
    assert lines[0] == "epoch,loss,dev_r5,dev_if1,seconds"
    assert len(lines) == 1 + len(history.epochs)
    assert lines[1].startswith("1,")


# ---------------------------------------------------------------------------
# evaluation records and baselines
# ---------------------------------------------------------------------------


def test_first_visit_flags_by_patient_and_date():
    notes = [note(pid="P1", day=5), note(pid="P1", day=2), note(pid="P2", day=9)]
    records = predict_records(toy_model(), notes, LABELS)
    assert records.first_visit.tolist() == [False, True, True]


def test_uniform_baseline_is_seed_deterministic():
    notes = [note(), note(text="dizzy")]
    a = uniform_baseline_records(notes, LABELS, seed=4)
    b = uniform_baseline_records(notes, LABELS, seed=4)
    np.testing.assert_array_equal(a.probs, b.probs)
    assert not np.array_equal(a.probs[0], a.probs[1])


def test_marginal_baseline_ranks_by_train_count():
    records = marginal_baseline_records([note()], LABELS)
    assert records.probs[0, 0] == 1.0  # A00.0: most frequent
    assert records.probs[0, 1] == pytest.approx(4 / 40)


# ---------------------------------------------------------------------------
# reranker training
# ---------------------------------------------------------------------------


def reranker_fixture():
    base = toy_model(seed=2)
    encs = [enc(meds=("M1",), procs=("R1",))]
    vocabs = ModalityVocabs.from_encounters(encs)
    rr = MetadataReranker.init(len(LABELS), HP.d_c, vocabs,
                               RerankerHParams(d=8, n_heads=2), seed=7)
    notes = [tokenize("aches cough", VOCAB, encounter=encs[0])]
    return base, rr, notes


def test_fresh_reranker_matches_base_metrics():
    base, rr, notes = reranker_fixture()
    base_r5 = mean_recall_at_k(predict_records(base, notes, LABELS), 5)
    rr_r5 = mean_recall_at_k(predict_records_reranked(base, rr, notes, LABELS, VOCAB), 5)
    assert rr_r5 == base_r5


def test_reranked_predictions_accept_a_generator():
    base, rr, _ = reranker_fixture()
    notes = [note(pid="P1", day=5, meds=("M1",)), note(pid="P1", day=2),
             note(pid="P2", day=9, codes=("B11.1",))]
    want = predict_records_reranked(base, rr, notes, LABELS, VOCAB)
    got = predict_records_reranked(base, rr, (n for n in notes), LABELS, VOCAB)
    assert len(got) == 3
    np.testing.assert_array_equal(got.probs, want.probs)
    np.testing.assert_array_equal(got.gt, want.gt)
    assert got.first_visit.tolist() == want.first_visit.tolist() == [False, True, True]


def test_reranker_training_freezes_base():
    base, rr, notes = reranker_fixture()
    before = {k: t.data.copy() for k, t in base.params.items()}
    train_reranker(base, rr, notes, notes, LABELS, VOCAB,
                   TrainConfig(max_epochs=2, patience=5, batch_size=1))
    for k, arr in before.items():
        np.testing.assert_array_equal(base.params[k].data, arr)


def test_reranker_zero_epochs_keeps_zero_projection():
    base, rr, notes = reranker_fixture()
    snap, history = train_reranker(base, rr, notes, notes, LABELS, VOCAB,
                                   TrainConfig(max_epochs=0))
    assert history == TrainHistory()
    assert not snap["proj_w"].any() and not snap["proj_b"].any()


# ---------------------------------------------------------------------------
# subsampling and fractions
# ---------------------------------------------------------------------------


def test_subsample_validates_fraction():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            subsample_train([1, 2, 3], bad)


def test_subsample_ceiling_and_identity():
    docs = list(range(10))
    assert len(subsample_train(docs, 0.25, seed=0)) == 3
    assert subsample_train(docs, 1.0, seed=0) == docs


def test_subsample_preserves_order_and_determinism():
    docs = list(range(100))
    a = subsample_train(docs, 0.3, seed=9)
    assert a == sorted(a)
    assert a == subsample_train(docs, 0.3, seed=9)
    assert a != subsample_train(docs, 0.3, seed=10)


@given(st.integers(1, 200), st.floats(0.01, 1.0))
@settings(max_examples=60, deadline=None)
def test_subsample_size_is_ceil(n, fraction):
    got = subsample_train(list(range(n)), fraction, seed=1)
    assert len(got) == math.ceil(fraction * n)
    assert len(set(got)) == len(got)  # without replacement


def test_fraction_experiment_requires_full_run():
    with pytest.raises(ValidationError):
        data_fraction_experiment(toy_model, [note()], [note()], LABELS, [0.5],
                                 TrainConfig(max_epochs=1))


def test_fraction_experiment_normalizes_to_full():
    notes = [note(), note(text="bruise dizzy", codes=("B11.1",)),
             note(text="cough edema", codes=("A00.0", "B11.1")),
             note(text="edema aches", codes=("B11.1",))]
    rows = data_fraction_experiment(toy_model, notes, notes, LABELS,
                                    [0.5, 1.0], TrainConfig(max_epochs=1))
    assert [r.fraction for r in rows] == [0.5, 1.0]
    assert rows[-1].relative_recall_at_5 == 1.0
    assert rows[-1].relative_instance_f1 == 1.0
    csv = fraction_csv(rows)
    assert csv.splitlines()[0].startswith("fraction,recall_at_5")
    assert len(csv.strip().splitlines()) == 3
