"""Training loop semantics on toy models."""

import datetime as dt
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdlab import autodiff as ad
from icdlab.corpus import Encounter, LabelSpace
from icdlab.errors import NumericError, ValidationError
from icdlab.metrics import mean_recall_at_k
from icdlab.model import BaseHParams, BaseModel, MetadataReranker, ModalityVocabs, RerankerHParams
from icdlab.preprocess import PAD_ID, UNK_ID, Vocabulary
from icdlab.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    Notes,
    TrainConfig,
    _first_visit_flags,
    _fit,
    data_fraction_experiment,
    fraction_csv,
    frequency_bucket,
    predict_records,
    predict_records_reranked,
    subsample_train,
    train,
    train_reranker,
)
from oracles import marginal_baseline_records, tensor_sum, uniform_baseline_records

VOCAB = Vocabulary(("aches", "bruise", "cough", "dizzy", "edema"))
LABELS = LabelSpace(("A00.0", "B11.1"), {"A00.0": 40, "B11.1": 4})
HP = BaseHParams(d_e=8, d_c=8, kernel_width=3, d_a=4)


def enc(pid="P1", day=1, codes=("A00.0",), text="aches cough", **kw):
    return Encounter(pid, dt.date(2021, 1, day), kw.get("dept", "D0"),
                     kw.get("doctor", "DR000"), text, frozenset(codes),
                     meds=kw.get("meds", ()), procs=kw.get("procs", ()))


def notes(*encounters):
    return Notes.of(encounters, VOCAB, LABELS)


def note(text="aches cough", **kw):
    """A split of one note."""
    return notes(enc(text=text, **kw))


def toy_model(seed=0, arch="caml"):
    return BaseModel.init(arch, vocab_size=len(VOCAB), n_labels=len(LABELS),
                          hp=HP, seed=seed)


# ---------------------------------------------------------------------------
# config and targets
# ---------------------------------------------------------------------------


def test_config_validation():
    for kw, match in (({"learning_rate": 0.0}, "learning_rate must be positive"),
                      ({"batch_size": 0}, "batch_size must be ≥ 1"),
                      ({"patience": 0}, "patience must be ≥ 1"),
                      ({"max_epochs": -1}, "max_epochs must be ≥ 0"),
                      ({"decision_threshold": 1.0}, "decision_threshold must lie strictly")):
        with pytest.raises(ValidationError, match=match):
            TrainConfig(**kw)


def test_targets_split_in_and_out_of_space():
    split = note(text="aches", codes=("A00.0", "Z99.9"))
    assert split.gt.tolist() == [[True, False]] and split.n_unseen.tolist() == [1]
    assert split.probs is None  # no score matrix until the split is scored
    records = predict_records(toy_model(), split)
    assert records.gt.tolist() == [[True, False]] and records.n_unseen.tolist() == [1]


def test_notes_keep_encounter_reference():
    e = enc(text="aches zzz", doctor="DR007", meds=("Cough syrup", "M1"), procs=("R1",))
    split = notes(e)
    assert split.doctor.tolist() == ["DR007"] and split.dept.tolist() == ["D0"]
    assert split.meds.tolist() == ["Cough syrup", "M1"] and split.procs.tolist() == ["R1"]
    assert split.aux.tolist() == [4, UNK_ID, UNK_ID, UNK_ID]  # "cough syrup m1 r1"
    assert split.tokens.tolist() == [2, UNK_ID] and np.diff(split.offsets).tolist() == [2]


def test_notes_pack_and_batch_in_index_order():
    split = notes(enc(text="aches cough bruise"), enc(text="dizzy"), enc(text=""),
                  enc(text="edema cough"))
    assert split.tokens.tolist() == [2, 4, 3, 5, UNK_ID, 6, 4] and PAD_ID not in split.tokens
    assert split.offsets.tolist() == [0, 3, 4, 5, 7]
    assert np.diff(split.offsets).tolist() == [3, 1, 1, 2]  # a blank note is one unknown token
    for idx, tokens, lengths in (([1, 3], [5, 6, 4], [1, 2]), ([2], [UNK_ID], [1]),
                                 ([3, 0], [6, 4, 2, 4, 3], [2, 3])):
        got = split.batch(np.array(idx))
        assert got[0].tolist() == tokens and got[1].tolist() == lengths
    sub = split.rows([0, 3])
    assert sub.tokens.tolist() == [2, 4, 3, 6, 4] and np.diff(sub.offsets).tolist() == [3, 2]
    assert sub.gt.shape == (2, len(LABELS)) and len(sub) == 2
    for column in ("gt", "n_unseen", "dept", "doctor", "patient_id", "date", "first_visit"):
        assert getattr(sub, column).tolist() == getattr(split, column)[[0, 3]].tolist()


def test_notes_hold_each_record_s_patient_date_and_sorted_codes():
    split = notes(enc(pid="P2", day=3, codes=("Z99.9", "B11.1", "A00.0")),
                  enc(pid="P1", day=9, codes=("B11.1",)), enc(pid="P2", day=4, codes=("C22.2",)))
    assert split.patient_id.tolist() == ["P2", "P1", "P2"]
    assert split.date.tolist() == [dt.date(2021, 1, 3), dt.date(2021, 1, 9), dt.date(2021, 1, 4)]
    assert split.codes.tolist() == ["A00.0", "B11.1", "Z99.9", "B11.1", "C22.2"]
    assert split.code_offsets.tolist() == [0, 3, 4, 5]
    assert split.gt.tolist() == [[True, True], [False, True], [False, False]]
    assert split.n_unseen.tolist() == [1, 0, 1]
    sub = split.rows([2, 0])
    assert sub.patient_id.tolist() == ["P2", "P2"] and sub.code_offsets.tolist() == [0, 1, 4]
    assert sub.codes.tolist() == ["C22.2", "A00.0", "B11.1", "Z99.9"]
    records = predict_records(toy_model(), sub)
    assert records.codes.tolist() == sub.codes.tolist()
    with pytest.raises(ValidationError):
        notes(enc(codes=()))


def test_a_scored_split_is_the_split_with_its_scores():
    split = notes(enc(), enc(text="dizzy", codes=("B11.1",)))
    scored = split.scored(np.asfortranarray([[1, 0], [0, 1]]))  # integers, Fortran order
    assert scored.probs.dtype == np.float64 and scored.probs.flags["C_CONTIGUOUS"]
    assert scored.probs.tolist() == [[1.0, 0.0], [0.0, 1.0]] and len(scored) == 2
    for f in fields(Notes):
        if f.name != "probs":
            assert getattr(scored, f.name) is getattr(split, f.name), f.name
    assert split.probs is None and scored.rows([1]).probs is None


def test_notes_rows_slice_every_packed_column_alike():
    split = notes(enc(pid="P1", text="aches", codes=("A00.0", "B11.1"), meds=("Edema", "M1")),
                  enc(pid="P2", text="", procs=("R1", "cough", "R2")),
                  enc(pid="P3", text="dizzy edema bruise", codes=("Z99.9",), meds=("dizzy",),
                      procs=("R9",)))
    packed = [("offsets", "tokens"), ("code_offsets", "codes"), ("med_offsets", "meds"),
              ("proc_offsets", "procs"), ("aux_offsets", "aux")]
    idx = [2, 0, 2, 1]
    sub = split.rows(idx)
    for offsets, values in packed:
        o, v, so, sv = (getattr(split, offsets), getattr(split, values),
                        getattr(sub, offsets), getattr(sub, values))
        assert so.tolist() == np.cumsum([0, *(o[i + 1] - o[i] for i in idx)]).tolist()
        for k, i in enumerate(idx):
            assert sv[so[k]:so[k + 1]].tolist() == v[o[i]:o[i + 1]].tolist(), (values, k)
    assert split.aux.tolist() == [6, UNK_ID, UNK_ID, 4, UNK_ID, 5, UNK_ID]
    assert sub.aux_offsets.tolist() == [0, 2, 4, 6, 9] and sub.doctor.shape == (4,)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["P1", "P2", "P10", "P1\u00e9"]),
                          st.integers(1, 4)), max_size=12))
def test_first_visit_is_the_earliest_date_ties_to_input_order(visits):
    first: dict[str, int] = {}  # the loop the flags replace
    for i, (pid, day) in enumerate(visits):
        if pid not in first or day < visits[first[pid]][1]:
            first[pid] = i
    flags = _first_visit_flags(np.array([pid for pid, _ in visits], dtype=str),
                               np.array([f"2021-01-0{day}" for _, day in visits],
                                        dtype="datetime64[D]"))
    assert flags.dtype == bool
    assert flags.tolist() == [i in first.values() for i in range(len(visits))]


def test_notes_truncate_to_max_len():
    split = Notes.of([enc(text="aches cough bruise dizzy")], VOCAB, LABELS, max_len=2)
    assert split.tokens.tolist() == [2, 4]


def _equal_columns(a: Notes, b: Notes) -> None:
    for f in fields(Notes):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x is None or y is None:  # the probs of an unscored split
            assert x is y, f.name
            continue
        assert x.dtype == y.dtype and x.shape == y.shape, f.name
        assert np.array_equal(x, y), f.name


SAVED = [enc("P2", 3, ("B11.1", "A00.0"), "aches cough bruise dizzy edema aches cough",
             meds=("Été 5 mg",), procs=("R1",)),
         enc("P1", 2, ("A00.0",), "", dept="D\u2028X"),  # a blank note
         enc("P2", 1, ("Z99.9",), "cough unknownword", doctor="DR\u0085"),
         enc("P1", 4, ("B11.1", "C00"), "dizzy", meds=("M1", "M2"))]


@pytest.mark.parametrize("max_len", [1, 3, 512])
def test_a_saved_split_loads_as_the_split_of_its_max_len(tmp_path, max_len):
    # tokens are saved untruncated and cut on load, a blank note staying one
    # unknown token; the columns labels.json gives are derived again
    Notes.of(SAVED, VOCAB, LABELS, max_len=None).save(tmp_path / "s.notes", VOCAB, LABELS)
    loaded = Notes.load(tmp_path / "s.notes", VOCAB, LABELS, max_len)
    _equal_columns(loaded, Notes.of(SAVED, VOCAB, LABELS, max_len))
    assert np.diff(loaded.offsets).tolist() == [min(7, max_len), 1, min(2, max_len), 1]


def test_a_saved_split_is_the_same_bytes_each_time(tmp_path):
    for name in ("a", "b"):
        Notes.of(SAVED, VOCAB, LABELS, max_len=None).save(tmp_path / name, VOCAB, LABELS)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    _equal_columns(Notes.load(tmp_path / "a", VOCAB, LABELS), notes(*SAVED))


def test_an_empty_split_saves_and_loads(tmp_path):
    Notes.of([], VOCAB, LABELS, max_len=None).save(tmp_path / "s.notes", VOCAB, LABELS)
    _equal_columns(Notes.load(tmp_path / "s.notes", VOCAB, LABELS), Notes.of([], VOCAB, LABELS))


def test_auxiliary_ids_are_never_cut(tmp_path):
    # 600 medications, more than the 512 tokens a note is cut to by default
    many = enc(meds=("aches",) * 600, text="cough " * 600)
    for max_len in (None, 512, 2):
        split = Notes.of([many], VOCAB, LABELS, max_len)
        assert split.aux.tolist() == [2] * 600 and len(split.tokens) == min(600, max_len or 600)
    Notes.of([many], VOCAB, LABELS, max_len=None).save(tmp_path / "s.notes", VOCAB, LABELS)
    assert Notes.load(tmp_path / "s.notes", VOCAB, LABELS).aux.tolist() == [2] * 600


def test_frequency_bucket_edges():
    lowest = np.array([500, 100, 99, 50, 10, 9, 5, 1, 0])
    assert frequency_bucket(lowest).tolist() == ["100+", "100+", "10-99", "10-99", "10-99",
                                                 "1-9", "1-9", "1-9", "0"]
    labels = LabelSpace(("A00.0", "B11.1", "C22.2", "D33.3"),
                        {"A00.0": 500, "B11.1": 50, "C22.2": 5})
    split = Notes.of([enc(codes=codes) for codes in (
        ["A00.0"], ["B11.1"], ["C22.2"], ["D33.3"], ["A00.0", "D33.3"], ["B11.1", "Z99.9"])],
        VOCAB, labels)
    # the rarest code wins, and a code outside the label space counts 0
    assert split.freq_bucket.tolist() == ["100+", "10-99", "1-9", "0", "0", "0"]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_step_is_signed_descent_at_start():
    w = ad.tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"w": w}, learning_rate=0.1)
    opt.step({w: np.array([3.0, -4.0])})
    # first step moves each coordinate by ~lr against the gradient sign
    np.testing.assert_allclose(w.data, [0.9, -1.9], atol=1e-6)


def test_adam_steps_equal_the_textbook_formula_bitwise():
    rng = np.random.default_rng(12)
    w = ad.tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.tensor(rng.normal(size=4), requires_grad=True)
    lr, b1, b2, eps = 0.01, ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    opt = Adam({"w": w, "b": b}, learning_rate=lr)
    want = {"w": w.data.copy(), "b": b.data.copy()}
    m = {k: np.zeros_like(v) for k, v in want.items()}
    v = {k: np.zeros_like(x) for k, x in want.items()}
    for step in range(1, 4):
        grads = {k: rng.normal(size=x.shape) for k, x in want.items()}
        opt.step({w: grads["w"], b: grads["b"]})
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            m_hat, v_hat = m[k] / (1.0 - b1**step), v[k] / (1.0 - b2**step)
            want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(w.data, want["w"]) and np.array_equal(b.data, want["b"])


def test_adam_skips_untouched_params():
    w = ad.tensor(np.array([1.0]), requires_grad=True)
    u = ad.tensor(np.array([5.0]), requires_grad=True)
    opt = Adam({"w": w, "u": u})
    opt.step({w: np.array([1.0])})
    assert u.data[0] == 5.0


def batch_loss(model, split, idx):
    """Mean BCE of one packed batch of notes."""
    probs, _ = model.forward(*split.batch(idx))
    return ad.bce_loss(probs, ad.tensor(split.gt[idx]))


def test_single_step_decreases_batch_loss():
    # line-search probe: a small step along Adam's direction must help
    model = toy_model(seed=3)
    split = notes(enc(), enc(text="bruise dizzy", codes=("B11.1",)))

    def per_note_mean():
        with ad.no_grad():
            return float(np.mean([batch_loss(model, split, [i]).data for i in range(2)]))

    before = per_note_mean()
    loss = batch_loss(model, split, [0, 1])
    assert float(loss.data) == pytest.approx(before)
    Adam(model.params, learning_rate=1e-4).step(ad.backward(loss))
    assert per_note_mean() < before


@pytest.mark.parametrize("arch", ["caml", "laat"])
def test_batch_gradient_is_mean_of_note_gradients(arch):
    # mixed lengths: each note's windows and softmax stay within its own rows
    model = toy_model(seed=4, arch=arch)
    split = notes(enc(text="aches cough bruise dizzy edema"), enc(text="dizzy", codes=("B11.1",)),
                  enc(text="cough edema", codes=("A00.0", "B11.1")))
    grads = ad.backward(batch_loss(model, split, [0, 1, 2]))
    singles = [ad.backward(batch_loss(model, split, [i])) for i in range(3)]
    assert set(grads) == set(model.params.values())
    for t, g in grads.items():
        mean = sum(s[t] for s in singles) / 3
        np.testing.assert_allclose(g, mean, rtol=0, atol=1e-12)


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
        return tensor_sum(ad.mul(w, w))

    config = TrainConfig(learning_rate=0.05, batch_size=1, max_epochs=max_epochs,
                         patience=patience)
    return _fit(params, 1, loss_of, dev_scores, config), captures, w


def test_early_stop_patience_counts_from_best_epoch():
    vals = [0.5, 0.6, 0.8] + [0.7] * 47
    history, captures, w = scripted_fit(vals, patience=2)
    assert len(history.epochs) == 4  # best at 2, two stale epochs, stop
    np.testing.assert_array_equal(w.data, captures[2])


def test_ties_keep_the_earliest_epoch():
    history, captures, w = scripted_fit([0.5, 0.8, 0.8, 0.8, 0.8], patience=3)
    assert len(history.epochs) == 4
    np.testing.assert_array_equal(w.data, captures[1])


def test_initial_params_win_when_training_never_helps():
    history, captures, w = scripted_fit([0.9, 0.5, 0.5], patience=2)
    assert len(history.epochs) == 2
    np.testing.assert_array_equal(w.data, captures[0])


def test_history_runs_to_max_epochs_when_improving():
    vals = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    history, _, _ = scripted_fit(vals, patience=2, max_epochs=5)
    assert [e.epoch for e in history.epochs] == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# end-to-end base training
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_initial_params():
    model = toy_model()
    before = {k: t.data.copy() for k, t in model.params.items()}
    history = train(model, note(), note(), TrainConfig(max_epochs=0))
    assert history.epochs == () and history.best_epoch == 0
    for k in before:
        np.testing.assert_array_equal(model.params[k].data, before[k])


def test_single_example_memorization():
    model = toy_model(seed=1)
    n = note()
    config = TrainConfig(learning_rate=0.05, batch_size=1, max_epochs=200,
                         patience=200)
    history = train(model, n, n, config)
    assert history.epochs[-1].loss < 0.01


def test_same_seed_reproduces_history_exactly():
    split = notes(enc(), enc(text="bruise dizzy", codes=("B11.1",)),
                  enc(text="cough edema", codes=("A00.0", "B11.1")))
    runs = []
    for _ in range(2):
        model = toy_model(seed=5)
        history = train(model, split, split, TrainConfig(max_epochs=3, patience=3, seed=11))
        # everything but wall-clock must reproduce bit-for-bit
        runs.append([(e.epoch, e.loss, e.dev_recall_at_5, e.dev_instance_f1)
                     for e in history.epochs])
    assert runs[0] == runs[1]


def test_non_finite_loss_names_the_batch():
    model = toy_model()
    model.params["out_b"].data[0] = np.nan
    with pytest.raises(NumericError, match=r"batch 0"):
        train(model, note(), note(), TrainConfig(max_epochs=1))


def test_empty_sets_rejected():
    model = toy_model()
    with pytest.raises(ValidationError, match="training set is empty"):
        train(model, notes(), note(), TrainConfig())
    with pytest.raises(ValidationError, match="dev set is empty"):
        train(model, note(), notes(), TrainConfig())


def test_history_csv_shape():
    model = toy_model()
    history = train(model, note(), note(), TrainConfig(max_epochs=2, patience=5))
    lines = history.to_csv().strip().splitlines()
    assert lines[0] == "epoch,loss,dev_r5,dev_if1,seconds"
    assert len(lines) == 1 + len(history.epochs)
    assert lines[1].startswith("1,")


# ---------------------------------------------------------------------------
# evaluation records and baselines
# ---------------------------------------------------------------------------


def test_first_visit_flags_by_patient_and_date():
    split = notes(enc(pid="P1", day=5), enc(pid="P1", day=2), enc(pid="P2", day=9),
                  enc(pid="P1", day=2))  # a date tie goes to the first in input order
    records = predict_records(toy_model(), split)
    assert records.first_visit.tolist() == [False, True, True, False]


def test_uniform_baseline_is_seed_deterministic():
    split = notes(enc(), enc(text="dizzy"))
    a = uniform_baseline_records(split, seed=4)
    b = uniform_baseline_records(split, seed=4)
    np.testing.assert_array_equal(a.probs, b.probs)
    assert not np.array_equal(a.probs[0], a.probs[1])


def test_marginal_baseline_ranks_by_train_count():
    records = marginal_baseline_records(note(), LABELS)
    assert records.probs[0, 0] == 1.0  # A00.0: most frequent
    assert records.probs[0, 1] == pytest.approx(4 / 40)


# ---------------------------------------------------------------------------
# reranker training
# ---------------------------------------------------------------------------


def reranker_fixture():
    base = toy_model(seed=2)
    encs = [enc(meds=("M1",), procs=("R1",))]
    split = notes(*encs)
    rr = MetadataReranker.init(len(LABELS), HP.d_c, ModalityVocabs.of(split),
                               RerankerHParams(d=8, n_heads=2), seed=7)
    return base, rr, split


def test_fresh_reranker_matches_base_metrics():
    base, rr, split = reranker_fixture()
    base_r5 = mean_recall_at_k(predict_records(base, split), 5)
    rr_r5 = mean_recall_at_k(predict_records_reranked(base, rr, split), 5)
    assert rr_r5 == base_r5


def test_reranked_predictions_accept_a_generator():
    base, rr, _ = reranker_fixture()
    encs = [enc(pid="P1", day=5, meds=("M1",)), enc(pid="P1", day=2),
            enc(pid="P2", day=9, codes=("B11.1",))]
    want = predict_records_reranked(base, rr, Notes.of(encs, VOCAB, LABELS))
    got = predict_records_reranked(base, rr, Notes.of((e for e in encs), VOCAB, LABELS))
    assert len(got) == 3
    np.testing.assert_array_equal(got.probs, want.probs)
    np.testing.assert_array_equal(got.gt, want.gt)
    assert got.first_visit.tolist() == want.first_visit.tolist() == [False, True, True]


def test_reranker_training_freezes_base():
    base, rr, split = reranker_fixture()
    before = {k: t.data.copy() for k, t in base.params.items()}
    train_reranker(base, rr, split, split, TrainConfig(max_epochs=2, patience=5, batch_size=1))
    for k, arr in before.items():
        np.testing.assert_array_equal(base.params[k].data, arr)


def test_reranker_zero_epochs_keeps_zero_projection():
    base, rr, split = reranker_fixture()
    history = train_reranker(base, rr, split, split, TrainConfig(max_epochs=0))
    assert history.epochs == () and history.best_epoch == 0
    assert not rr.params["proj_w"].data.any() and not rr.params["proj_b"].data.any()


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
        data_fraction_experiment(toy_model, note(), note(), [0.5],
                                 TrainConfig(max_epochs=1), eval_notes=note())


def test_fraction_experiment_normalizes_to_full():
    split = notes(enc(), enc(text="bruise dizzy", codes=("B11.1",)),
                  enc(text="cough edema", codes=("A00.0", "B11.1")),
                  enc(text="edema aches", codes=("B11.1",)))
    rows = data_fraction_experiment(toy_model, split, split, [0.5, 1.0],
                                    TrainConfig(max_epochs=1), eval_notes=split)
    assert [r.fraction for r in rows] == [0.5, 1.0]
    assert rows[-1].relative_recall_at_5 == 1.0
    assert rows[-1].relative_instance_f1 == 1.0
    csv = fraction_csv(rows)
    assert csv.splitlines()[0].startswith("fraction,recall_at_5")
    assert len(csv.strip().splitlines()) == 3
