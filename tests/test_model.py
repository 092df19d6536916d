"""Classifier and reranker semantics, against plain-numpy oracles."""

import datetime as dt
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from icdlab import autodiff as ad
from icdlab.checkpoint import load_params, save_params
from icdlab.corpus import Encounter, LabelSpace
from icdlab.errors import NumericError, ValidationError
from icdlab.model import (
    BaseHParams,
    BaseModel,
    MetadataReranker,
    ModalityVocabs,
    RerankerHParams,
    load_base_model,
    load_reranker,
    save_base_model,
    save_reranker,
)
from icdlab.preprocess import Vocabulary
from icdlab.train import Notes, _FrozenBase
from oracles import grad_check


def note(ids):
    """A batch of one note, packed: its ids and its length."""
    return np.array(ids, dtype=np.int64), np.array([len(ids)])


def packed(notes):
    """A batch of notes, packed."""
    return np.concatenate(notes).astype(np.int64), np.array([len(n) for n in notes])


def softmax_cols(scores):
    z = scores.copy()
    z -= z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def toy_model(arch, vocab_size=6, n_labels=3, seed=1):
    hp = BaseHParams(d_e=4, d_c=5, kernel_width=3, d_a=3)
    return BaseModel.init(arch, vocab_size, n_labels, hp, seed=seed)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def test_zero_kernels_give_zero_encoding():
    m = toy_model("caml")
    m.params["conv_w"].data[:] = 0.0
    m.params["conv_b"].data[:] = 0.0
    h = m.encode(*note([2, 3, 4]))
    np.testing.assert_array_equal(h.data, np.zeros((3, 5)))


def test_encoder_matches_manual_convolution():
    m = toy_model("caml", seed=3)
    ids = [2, 4, 5, 3]
    h = m.encode(*note(ids))
    emb = m.params["emb"].data[ids]
    k = m.params["conv_w"].data
    b = m.params["conv_b"].data
    xp = np.zeros((len(ids) + 2, emb.shape[1]))
    xp[1:-1] = emb
    want = np.empty((len(ids), k.shape[0]))
    for t in range(len(ids)):
        for c in range(k.shape[0]):
            want[t, c] = (xp[t : t + 3] * k[c]).sum() + b[c]
    np.testing.assert_allclose(h.data, np.tanh(want), atol=1e-12)


def test_out_of_range_token_rejected():
    with pytest.raises(ValidationError):
        toy_model("caml").encode(*note([99]))
    with pytest.raises(ValidationError):  # padding is not a token of a packed batch
        toy_model("caml").encode(*note([2, 0]))


def test_all_padding_note_raises_empty_source():
    m = toy_model("caml")
    with pytest.raises(NumericError, match="label_attention: a segment has no position"):
        m.forward(*note([]))
    # one note of no token fails its whole batch
    with pytest.raises(NumericError, match="label_attention: a segment has no position"):
        m.forward(*packed([[2, 3], []]))


def test_even_kernel_width_rejected():
    with pytest.raises(ValidationError, match="kernel_width must be odd, got 4"):
        BaseHParams(kernel_width=4)


# ---------------------------------------------------------------------------
# attention heads against numpy oracles
# ---------------------------------------------------------------------------


def test_caml_forward_matches_numpy_oracle():
    m = toy_model("caml", seed=7)
    ids = [2, 3, 4, 5]
    p, h = m.forward(*note(ids))
    H = h.data
    U = m.params["attn_u"].data
    A = softmax_cols(H @ U.T)
    V = A.T @ H
    logits = (V * m.params["out_w"].data).sum(axis=1) + m.params["out_b"].data
    np.testing.assert_allclose(p.data[0], 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_laat_forward_matches_numpy_oracle():
    m = toy_model("laat", seed=9)
    ids = [3, 2, 5]
    p, h = m.forward(*note(ids))
    H = h.data
    Z = np.tanh(H @ m.params["laat_w"].data.T)
    A = softmax_cols(Z @ m.params["laat_u"].data.T)
    V = A.T @ H
    logits = (V * m.params["out_w"].data).sum(axis=1) + m.params["out_b"].data
    np.testing.assert_allclose(p.data[0], 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_single_position_attention_copies_row():
    # T=1: attention weight is 1, V_l = H_1 for every label
    for arch in ("caml", "laat"):
        m = toy_model(arch, seed=5)
        p, h = m.forward(*note([4]))
        logits = (np.tile(h.data[0], (3, 1)) * m.params["out_w"].data).sum(axis=1) \
            + m.params["out_b"].data
        np.testing.assert_allclose(p.data[0], 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_zero_attention_params_give_uniform_attention():
    m = toy_model("caml", seed=11)
    m.params["attn_u"].data[:] = 0.0
    p, h = m.forward(*note([2, 3, 4]))
    v = h.data.mean(axis=0)
    logits = (np.tile(v, (3, 1)) * m.params["out_w"].data).sum(axis=1) + m.params["out_b"].data
    np.testing.assert_allclose(p.data[0], 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_caml_bag_of_positions_invariance_for_width_one():
    # with w=1 kernels the encoder is positionless, so permuting tokens
    # permutes attention weights and leaves V (hence P) unchanged
    hp = BaseHParams(d_e=4, d_c=5, kernel_width=1, d_a=3)
    m = BaseModel.init("caml", 8, 3, hp, seed=13)
    p1, _ = m.forward(*note([2, 3, 4, 5]))
    p2, _ = m.forward(*note([5, 3, 2, 4]))
    np.testing.assert_allclose(p1.data, p2.data, atol=1e-12)


def test_probabilities_lie_in_unit_interval():
    m = toy_model("laat", seed=17)
    p, _ = m.forward(*note([2, 3]))
    assert ((p.data >= 0) & (p.data <= 1)).all()


# ---------------------------------------------------------------------------
# gradient checks through full models
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["caml", "laat"])
def test_base_model_grad_check(arch):
    m = toy_model(arch, seed=23)
    y = ad.tensor(np.array([1.0, 0.0, 1.0]))
    ids = [2, 3, 4]
    names = sorted(m.params)
    tensors = [m.params[n] for n in names]

    def f(*ts):
        return ad.bce_loss(m.forward(*note(ids))[0], ad.tensor(y.data[None]))

    assert grad_check(f, tensors, eps=1e-4) < 1e-4


MIXED = [(2, 3, 4, 5, 2), (4,), (5, 3), (3, 2, 2, 4)]  # lengths 5, 1, 2, 4


@pytest.mark.parametrize("arch", ["caml", "laat"])
def test_padded_batch_rows_equal_notes_alone(arch):
    # a packed batch: each note's rows, and its probabilities, as if alone
    m = toy_model(arch, seed=25)
    p, h = m.forward(*packed(MIXED))
    assert p.shape == (4, 3) and h.shape == (12, 5)
    rows = np.split(h.data, np.cumsum([5, 1, 2, 4])[:-1])
    for i, ids in enumerate(MIXED):
        p1, h1 = m.forward(*note(ids))
        np.testing.assert_allclose(p.data[i], p1.data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rows[i], h1.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("arch", ["caml", "laat"])
def test_padded_batch_grad_check(arch):
    m = toy_model(arch, seed=27)
    batch = packed(MIXED)
    y = ad.tensor(np.random.default_rng(2).integers(0, 2, size=(4, 3)).astype(float))
    tensors = [m.params[n] for n in sorted(m.params)]

    def f(*ts):
        return ad.bce_loss(m.forward(*batch)[0], y)

    assert grad_check(f, tensors, eps=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# reranker
# ---------------------------------------------------------------------------


def make_enc(meds=(), procs=(), doctor="DR000", dept="D00"):
    return Encounter("P0", dt.date(2020, 1, 1), dept, doctor, "t",
                     frozenset(["A00.0"]), tuple(meds), tuple(procs))


def toy_reranker(n_labels=2, d=4, d_keys=5, seed=31, meds=("M1", "M2")):
    vocabs = ModalityVocabs(med=meds, proc=("R1",), doctor=("DR000",), dept=("D00",))
    hp = RerankerHParams(d=d, n_heads=2)
    return MetadataReranker.init(n_labels, d_keys, vocabs, hp, seed=seed)


NO_AUX = (None, None)  # a batch without auxiliary tokens


def metadata(rr, *encs):
    """The modality rows of `encs` as one batch, as the reranker reads them."""
    split = Notes.of(encs, TOY_VOCAB, LabelSpace(("A00.0",)))
    return [(rows, np.diff(offsets)) for offsets, rows in rr.vocabs.rows(split)]


def test_zero_projection_is_exact_residual():
    rr = toy_reranker()
    base_p = ad.tensor(np.array([[0.3, 0.8]]))
    h = ad.tensor(np.random.default_rng(0).normal(size=(4, 5)))
    pf = rr.forward(base_p, h, [4], *NO_AUX, metadata(rr, make_enc()))
    assert pf.data.tobytes() == base_p.data.tobytes()


def table_row(vocabs, modality, value):
    """The embedding-table row of a modality value: 1 + its place in the
    listed values, 0 for a value not listed."""
    listed = getattr(vocabs, modality)
    return listed.index(value) + 1 if value in listed else 0


def modality_vector(rr, enc):
    return rr.embed_modalities(metadata(rr, enc)).data[0]


def test_modality_average_of_duplicate_med():
    rr = toy_reranker()
    e1 = rr.params["med_emb"].data[table_row(rr.vocabs, "med", "M1")]
    enc = make_enc(meds=("M1", "M1"))
    vec = modality_vector(rr, enc)
    enc_single = make_enc(meds=("M1",))
    np.testing.assert_allclose(vec, modality_vector(rr, enc_single), atol=1e-12)
    base = modality_vector(rr, make_enc())
    np.testing.assert_allclose(vec - base, e1, atol=1e-12)


def test_modality_mean_of_two_meds():
    rr = toy_reranker()
    e1 = rr.params["med_emb"].data[table_row(rr.vocabs, "med", "M1")]
    e2 = rr.params["med_emb"].data[table_row(rr.vocabs, "med", "M2")]
    both = modality_vector(rr, make_enc(meds=("M1", "M2")))
    none = modality_vector(rr, make_enc())
    np.testing.assert_allclose(both - none, (e1 + e2) / 2.0, atol=1e-12)


def test_unknown_metadata_maps_to_zero_rows():
    rr = toy_reranker()
    vec = modality_vector(rr, make_enc(doctor="DRX", dept="DX"))
    np.testing.assert_array_equal(vec, np.zeros(4))


def test_modality_rows_of_a_batch_are_per_encounter():
    rr = toy_reranker()
    encs = [make_enc(meds=("M1", "M2")), make_enc(), make_enc(procs=("R1",), dept="DX")]
    rows = rr.embed_modalities(metadata(rr, *encs)).data
    assert rows.shape == (3, 4)
    for row, enc in zip(rows, encs):
        np.testing.assert_allclose(row, modality_vector(rr, enc), rtol=0, atol=1e-15)


def loop_weights(rr, encs):
    """Each modality's (B, rows) weights, as the reranker built them one
    encounter at a time: the oracle of the packed path."""
    out = {}
    for m in ("med", "proc", "doctor", "dept"):
        weights = np.zeros((len(encs), len(getattr(rr.vocabs, m)) + 1))
        for b, enc in enumerate(encs):
            values = {"med": enc.meds, "proc": enc.procs,
                      "doctor": (enc.doctor,), "dept": (enc.dept,)}[m]
            for v in values:
                weights[b, table_row(rr.vocabs, m, v)] += 1.0 / len(values)
        out[m] = weights
    return out


def test_modality_weights_are_the_bits_of_the_per_encounter_loop(monkeypatch):
    # three M1 of five meds add 0.2 three times, 0.6000000000000001, not 3/5
    encs = [make_enc(meds=("M1", "M2", "M1", "MX", "M1"), procs=("R1",)),
            make_enc(doctor="DRX"), make_enc(meds=("MX", "M2"), procs=("R1", "RX"), dept="DX")]
    base = toy_model("caml", seed=69)
    rr = toy_reranker(n_labels=3, seed=70)
    frozen = _FrozenBase(base, rr, frozen_notes([("a b", e) for e in encs]))
    tables = {id(rr.params[f"{m}_emb"]): m for m in ("med", "proc", "doctor", "dept")}
    seen, matmul = {}, ad.matmul

    def spy(a, b, **kw):
        if id(b) in tables:
            seen[tables[id(b)]] = a.data.copy()
        return matmul(a, b, **kw)

    monkeypatch.setattr(ad, "matmul", spy)
    for idx in ([0, 1, 2], [2, 0], [1]):
        seen.clear()
        frozen.forward(np.array(idx))
        want = loop_weights(rr, [encs[i] for i in idx])
        assert sorted(seen) == sorted(m for m, w in want.items() if w.any())
        for m, weights in seen.items():
            assert weights.tobytes() == want[m].tobytes(), (idx, m)


def test_modality_vocabs_are_each_column_s_sorted_distinct_values():
    encs = [make_enc(meds=("b", "É", "a", "b"), procs=(), doctor="DR2", dept="Z"),
            make_enc(meds=("B", "é"), procs=("R2", "R1", "R10"), doctor="DR10", dept="A"),
            make_enc(meds=(), procs=("R1",), doctor="DR2", dept="a")]
    vocabs = ModalityVocabs.of(frozen_notes([("a", e) for e in encs]))
    assert vocabs == ModalityVocabs(
        med=tuple(sorted({v for e in encs for v in e.meds})),
        proc=tuple(sorted({v for e in encs for v in e.procs})),
        doctor=tuple(sorted({e.doctor for e in encs})),
        dept=tuple(sorted({e.dept for e in encs})))
    assert vocabs.med == ("B", "a", "b", "É", "é") and vocabs.proc == ("R1", "R10", "R2")
    assert all(type(v) is str for m in ("med", "proc", "doctor", "dept")
               for v in getattr(vocabs, m))


def test_reranker_forward_matches_numpy_oracle():
    rr = toy_reranker(seed=41)
    rng = np.random.default_rng(8)
    rr.params["proj_w"].data[:] = rng.normal(size=(2, 4))
    rr.params["proj_b"].data[:] = rng.normal(size=2)
    base_p = np.array([0.2, 0.9])
    Hn = rng.normal(size=(3, 5))
    Ha = rng.normal(size=(2, 5))
    enc = make_enc(meds=("M1",), procs=("R1",))

    pf = rr.forward(ad.tensor(base_p[None]), ad.tensor(Hn), [3], ad.tensor(Ha), [2],
                    metadata(rr, enc))

    # independent recomputation with plain numpy
    P = rr.params
    mv = (P["med_emb"].data[1] + P["proc_emb"].data[1]
          + P["doctor_emb"].data[1] + P["dept_emb"].data[1])
    el = P["label_emb"].data + mv

    def attn(side, source):
        # head h is the h-th two-column block of wq, wk and wv
        heads = []
        for h in range(2):
            block = slice(2 * h, 2 * h + 2)
            q = el @ P[f"{side}.wq"].data[:, block]
            k = source @ P[f"{side}.wk"].data[:, block]
            v = source @ P[f"{side}.wv"].data[:, block]
            s = q @ k.T / math.sqrt(2)
            s -= s.max(axis=1, keepdims=True)
            a = np.exp(s)
            a /= a.sum(axis=1, keepdims=True)
            heads.append(a @ v)
        return np.concatenate(heads, axis=1) @ P[f"{side}.wo"].data

    mixed = attn("attn_n", Hn) + attn("attn_m", Ha)
    want_raw = (mixed * P["proj_w"].data).sum(axis=1) + P["proj_b"].data + base_p
    np.testing.assert_allclose(pf.data[0], want_raw, atol=1e-10)


def test_missing_aux_encoding_drops_attn_m_term():
    rr = toy_reranker(seed=43)
    rr.params["proj_w"].data[:] = 0.5
    base_p = ad.tensor(np.array([[0.5, 0.5]]))
    h = ad.tensor(np.random.default_rng(3).normal(size=(3, 5)))
    enc = make_enc()
    pf_masked = rr.forward(base_p, h, [3], ad.tensor(np.zeros((1, 5))), [1], metadata(rr, enc))
    # one zero aux row behaves exactly as a reranker with no attn_m output
    rr.params["attn_m.wo"].data[:] = 0.0
    pf_none = rr.forward(base_p, h, [3], *NO_AUX, metadata(rr, enc))
    np.testing.assert_array_equal(pf_none.data, pf_masked.data)


def test_parameters_a_batch_does_not_use_get_no_gradient():
    # as with one graph per note, Adam must skip what no note of the batch
    # reached: the aux attention without aux tokens, a table with no entries
    rr = toy_reranker(seed=45)
    rr.params["proj_w"].data[:] = 0.3
    h = ad.tensor(np.random.default_rng(6).normal(size=(6, 5)))
    pf = rr.forward(ad.tensor(np.full((2, 2), 0.5)), h, [3, 3], *NO_AUX,
                    metadata(rr, make_enc(), make_enc(procs=("R1",))))
    grads = ad.backward(ad.bce_loss(pf, ad.tensor(np.ones((2, 2)))))
    unused = [rr.params[k] for k in rr.params if k.startswith("attn_m") or k == "med_emb"]
    assert unused and not any(t in grads for t in unused)
    assert rr.params["proc_emb"] in grads and rr.params["attn_n.wo"] in grads


def test_reranker_grad_check():
    rr = toy_reranker(seed=47)
    rng = np.random.default_rng(5)
    rr.params["proj_w"].data[:] = rng.normal(size=(2, 4)) * 0.3
    base_p = ad.tensor(np.full((1, 2), 0.5))
    h = ad.tensor(rng.normal(size=(3, 5)))
    ha = ad.tensor(rng.normal(size=(2, 5)))
    enc = make_enc(meds=("M1",))
    y = ad.tensor(np.array([[1.0, 0.0]]))
    names = sorted(rr.params)
    tensors = [rr.params[n] for n in names]

    def f(*ts):
        return ad.bce_loss(rr.forward(base_p, h, [3], ha, [2], metadata(rr, enc)), y)

    assert grad_check(f, tensors, eps=1e-4) < 1e-4


# the toy base models read ids 0..5: padding, unknown and these four tokens
TOY_VOCAB = Vocabulary(("a", "b", "c", "d"))


def frozen_notes(texts_and_encs):
    return Notes.of([replace(enc, text=text) for text, enc in texts_and_encs], TOY_VOCAB,
                    LabelSpace(("A00.0",)))


def test_frozen_base_gets_no_gradient():
    base = toy_model("caml", seed=51)
    rr = toy_reranker(n_labels=3, d=4, d_keys=5, seed=53)
    rr.params["proj_w"].data[:] = 0.2
    frozen = _FrozenBase(base, rr, frozen_notes([("a b c", make_enc(meds=("M1",)))]))
    pf = frozen.forward(np.arange(1))
    grads = ad.backward(ad.bce_loss(pf, ad.tensor(np.array([[1.0, 0.0, 1.0]]))))
    for t in base.params.values():
        assert t not in grads
    assert rr.params["proj_w"] in grads
    assert rr.params["label_emb"] in grads


def test_frozen_outputs_all_pad_aux_is_none():
    base = toy_model("caml", seed=55)
    frozen = _FrozenBase(base, toy_reranker(n_labels=3), frozen_notes([("a b", make_enc())]))
    assert frozen.h.shape == (2, 5) and frozen.has_aux.tolist() == [False]
    np.testing.assert_array_equal(frozen.h_aux, np.zeros((1, 5)))  # one zero row


MIXED_ENCOUNTERS = [("a b c d a", make_enc(meds=("M1", "M2"))), ("b", make_enc()),
                    ("c a", make_enc(procs=("R1",), dept="DX")), ("d d b c", make_enc())]


def reranker_on_mixed_batch(seed):
    base = toy_model("laat", seed=seed)
    rr = toy_reranker(n_labels=3, d=4, d_keys=5, seed=seed + 1)
    rng = np.random.default_rng(seed)
    rr.params["proj_w"].data[:] = rng.normal(size=(3, 4)) * 0.3
    rr.params["proj_b"].data[:] = rng.normal(size=3) * 0.05
    return rr, _FrozenBase(base, rr, frozen_notes(MIXED_ENCOUNTERS))


def test_reranker_padded_batch_rows_equal_notes_alone():
    rr, frozen = reranker_on_mixed_batch(57)
    assert np.diff(frozen.offsets).tolist() == [5, 1, 2, 4]
    assert frozen.has_aux.tolist() == [True, False, True, False]  # "m1 m2" and "r1"
    assert np.diff(frozen.aux_offsets).tolist() == [2, 1, 1, 1]  # are unknown tokens
    pf = frozen.forward(np.arange(4))
    for i in range(4):
        pf1 = frozen.forward(np.array([i]))
        np.testing.assert_allclose(pf.data[i], pf1.data[0], rtol=0, atol=1e-12)


def test_reranker_padded_batch_grad_check():
    rr, frozen = reranker_on_mixed_batch(59)
    y = ad.tensor(np.random.default_rng(4).integers(0, 2, size=(4, 3)).astype(float))
    tensors = [rr.params[n] for n in sorted(rr.params)]

    def f(*ts):
        return ad.bce_loss(frozen.forward(np.arange(4)), y)

    assert grad_check(f, tensors, eps=1e-4) < 1e-4


def test_batch_without_aux_tokens_leaves_attn_m_out_of_the_graph():
    # notes 1 and 3 have no auxiliary tokens: a zero gradient for attn_m
    # instead of none would still move it through Adam's moments
    rr, frozen = reranker_on_mixed_batch(61)
    attn_m = [rr.params[k] for k in rr.params if k.startswith("attn_m")]
    for idx, used in (([1, 3], False), ([3, 0], True)):
        pf = frozen.forward(np.array(idx))
        grads = ad.backward(ad.bce_loss(pf, ad.tensor(np.ones((2, 3)))))
        assert all((t in grads) == used for t in attn_m)


def primitive_counts(out):
    """How many nodes of each autodiff primitive the graph of `out` holds."""
    return Counter(node.grad_fn.__qualname__.split(".")[0] for node in ad._toposort(out)
                   if node.grad_fn is not None)


def test_forward_graphs_hold_one_label_attention_per_attention():
    # a reranker's heads are column blocks of one attention per side; a caml
    # base model's scores and per-position values live inside its attention
    rr = toy_reranker(seed=63)
    rng = np.random.default_rng(9)
    pf = rr.forward(ad.tensor(np.full((1, 2), 0.5)), ad.tensor(rng.normal(size=(3, 5))),
                    [3], ad.tensor(rng.normal(size=(2, 5))), [2],
                    metadata(rr, make_enc(meds=("M1",), procs=("R1",))))
    counts = primitive_counts(pf)
    assert counts["label_attention"] == 2 and counts["matmul"] <= 16
    counts = primitive_counts(toy_model("caml").forward(*note([2, 3, 4]))[0])
    assert counts["label_attention"] == 1 and counts["matmul"] == 0


def test_fresh_reranker_scores_are_the_base_probs_without_a_forward(monkeypatch):
    # the zero-initialized projection makes the residual exactly zero, so
    # scoring the epoch-0 candidate needs no reranker pass
    rr, frozen = reranker_on_mixed_batch(65)
    fresh = _FrozenBase(toy_model("laat", seed=65),
                        toy_reranker(n_labels=3, d=4, d_keys=5, seed=66),
                        frozen_notes(MIXED_ENCOUNTERS))

    def no_forward(*args):
        raise AssertionError("MetadataReranker.forward was called")

    monkeypatch.setattr(MetadataReranker, "forward", no_forward)
    scores = fresh.reranked()
    assert scores is not fresh.probs and scores.tobytes() == fresh.probs.tobytes()
    with pytest.raises(AssertionError):
        frozen.reranked()


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["caml", "laat", "reranker"])
def test_shape_tables_are_the_shapes_init_draws(arch):
    """The loaders check a checkpoint against the shape table; init must
    create exactly those parameters, in the table's order."""
    if arch == "reranker":
        args = (7, 5, ModalityVocabs(("M1", "M2"), ("R1",), ("DR000", "DR001", "DR002"), ()),
                RerankerHParams(d=6, n_heads=3))
        table, model = MetadataReranker.shapes(*args), MetadataReranker.init(*args)
    else:
        args = (arch, 11, 7, BaseHParams(d_e=3, d_c=4, kernel_width=5, d_a=2))
        table, model = BaseModel.shapes(*args), BaseModel.init(*args)
    assert list(table.items()) == [(k, t.data.shape) for k, t in model.params.items()]


def test_base_model_round_trip(tmp_path):
    m = toy_model("laat", seed=61)
    path = tmp_path / "base.ckpt"
    save_base_model(path, m, "vhash", "lhash")
    back = load_base_model(path, "vhash", "lhash")
    assert back.arch == "laat"
    assert back.hp == m.hp
    for k in m.params:
        assert back.params[k].data.tobytes() == m.params[k].data.tobytes()
        assert back.params[k].requires_grad
    p1, _ = m.forward(*note([2, 3]))
    p2, _ = back.forward(*note([2, 3]))
    assert p1.data.tobytes() == p2.data.tobytes()


def test_base_model_hash_mismatch_rejected(tmp_path):
    m = toy_model("caml")
    path = tmp_path / "base.ckpt"
    save_base_model(path, m, "vhash", "lhash")
    with pytest.raises(ValidationError):
        load_base_model(path, "other", "lhash")
    with pytest.raises(ValidationError):
        load_base_model(path, "vhash", "other")


def test_reranker_round_trip(tmp_path):
    rr = toy_reranker(seed=67)
    path, base = tmp_path / "rr.ckpt", tmp_path / "base.ckpt"
    save_base_model(base, toy_model("caml"), "v", "l")
    save_reranker(path, rr, "v", "l", base)
    back = load_reranker(path, "v", "l", base)
    assert back.vocabs == rr.vocabs
    assert back.hp == rr.hp
    for k in rr.params:
        assert back.params[k].data.tobytes() == rr.params[k].data.tobytes()


def test_a_reranker_with_unsorted_modality_lists_maps_each_value_to_its_listed_row(tmp_path):
    vocabs = ModalityVocabs(med=("M2", "M1"), proc=("R2", "R1"), doctor=("DR9", "DR0"),
                            dept=("D00",))
    rr = MetadataReranker.init(2, 5, vocabs, RerankerHParams(d=4, n_heads=2), seed=71)
    path, base = tmp_path / "rr.ckpt", tmp_path / "base.ckpt"
    save_base_model(base, toy_model("caml"), "v", "l")
    save_reranker(path, rr, "v", "l", base)
    back = load_reranker(path, "v", "l", base)
    assert (back.vocabs.med, back.vocabs.proc) == (("M2", "M1"), ("R2", "R1"))
    split = frozen_notes([("a", make_enc(meds=("M1", "M2"), procs=("R1",), doctor="DR0")),
                          ("a", make_enc(meds=("M2",), procs=("R2", "R3"), doctor="DR9"))])
    rows = [(offsets.tolist(), table_rows.tolist())
            for offsets, table_rows in back.vocabs.rows(split)]
    assert rows == [([0, 2, 3], [2, 1, 1]), ([0, 1, 3], [2, 1, 0]), ([0, 1, 2], [2, 1]),
                    ([0, 1, 2], [1, 1])]


@pytest.mark.parametrize("key, value", [("vocab_size", 6.0), ("vocab_size", -6),
                                        ("kernel_width", 3.0)])
def test_base_checkpoint_with_a_non_integer_or_negative_dimension_is_rejected(
        tmp_path, key, value):
    path = tmp_path / "base.ckpt"
    save_base_model(path, toy_model("caml"), "v", "l")
    meta, arrays = load_params(path)
    if key in meta:
        meta[key] = value
    else:
        meta["hparams"][key] = value
    save_params(path, arrays, meta)
    with pytest.raises(ValidationError, match="base.ckpt"):
        load_base_model(path, "v", "l")


def test_wrong_kind_rejected(tmp_path):
    m = toy_model("caml")
    path = tmp_path / "x.ckpt"
    save_base_model(path, m, "v", "l")
    with pytest.raises(ValidationError):
        load_reranker(path, "v", "l", path)
