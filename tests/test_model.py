"""Classifier and reranker semantics, against plain-numpy oracles."""

import datetime as dt
import math

import numpy as np
import pytest

from icdlab import autodiff as ad
from icdlab.corpus import Encounter
from icdlab.errors import ConfigError, EmptySourceError, ValidationError
from icdlab.model import (
    BaseHParams,
    BaseModel,
    MetadataReranker,
    ModalityVocabs,
    RerankerHParams,
    frozen_base_outputs,
    load_base_model,
    load_reranker,
    save_base_model,
    save_reranker,
)
from icdlab.preprocess import TokenizedNote


def note(ids):
    return TokenizedNote(tuple(ids))


def softmax_cols(scores, mask=None):
    z = scores.copy()
    if mask is not None:
        z[~mask, :] = -np.inf
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
    h, mask = m.encode(note([2, 3, 4]))
    np.testing.assert_array_equal(h.data, np.zeros((3, 5)))
    assert mask.all()


def test_encoder_matches_manual_convolution():
    m = toy_model("caml", seed=3)
    ids = [2, 4, 5, 3]
    h, _ = m.encode(note(ids))
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
        toy_model("caml").encode(note([99]))


def test_all_padding_note_raises_empty_source():
    m = toy_model("caml")
    with pytest.raises(EmptySourceError):
        m.forward(note([0]))


def test_even_kernel_width_rejected():
    with pytest.raises(ConfigError):
        BaseHParams(kernel_width=4)


# ---------------------------------------------------------------------------
# attention heads against numpy oracles
# ---------------------------------------------------------------------------


def test_caml_forward_matches_numpy_oracle():
    m = toy_model("caml", seed=7)
    ids = [2, 3, 4, 5]
    p, h, mask = m.forward(note(ids))
    H = h.data
    U = m.params["attn_u"].data
    A = softmax_cols(H @ U.T, mask)
    V = A.T @ H
    logits = (V * m.params["out_w"].data).sum(axis=1) + m.params["out_b"].data
    np.testing.assert_allclose(p.data, 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_laat_forward_matches_numpy_oracle():
    m = toy_model("laat", seed=9)
    ids = [3, 2, 5]
    p, h, mask = m.forward(note(ids))
    H = h.data
    Z = np.tanh(H @ m.params["laat_w"].data.T)
    A = softmax_cols(Z @ m.params["laat_u"].data.T, mask)
    V = A.T @ H
    logits = (V * m.params["out_w"].data).sum(axis=1) + m.params["out_b"].data
    np.testing.assert_allclose(p.data, 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_single_position_attention_copies_row():
    # T=1: attention weight is 1, V_l = H_1 for every label
    for arch in ("caml", "laat"):
        m = toy_model(arch, seed=5)
        p, h, _ = m.forward(note([4]))
        logits = (np.tile(h.data[0], (3, 1)) * m.params["out_w"].data).sum(axis=1) \
            + m.params["out_b"].data
        np.testing.assert_allclose(p.data, 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_zero_attention_params_give_uniform_attention():
    m = toy_model("caml", seed=11)
    m.params["attn_u"].data[:] = 0.0
    _, h, mask = m.forward(note([2, 3, 4]))
    p, _, _ = m.forward(note([2, 3, 4]))
    v = h.data.mean(axis=0)
    logits = (np.tile(v, (3, 1)) * m.params["out_w"].data).sum(axis=1) + m.params["out_b"].data
    np.testing.assert_allclose(p.data, 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_caml_bag_of_positions_invariance_for_width_one():
    # with w=1 kernels the encoder is positionless, so permuting tokens
    # permutes attention weights and leaves V (hence P) unchanged
    hp = BaseHParams(d_e=4, d_c=5, kernel_width=1, d_a=3)
    m = BaseModel.init("caml", 8, 3, hp, seed=13)
    p1, _, _ = m.forward(note([2, 3, 4, 5]))
    p2, _, _ = m.forward(note([5, 3, 2, 4]))
    np.testing.assert_allclose(p1.data, p2.data, atol=1e-12)


def test_probabilities_lie_in_unit_interval():
    m = toy_model("laat", seed=17)
    p, _, _ = m.forward(note([2, 3]))
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
        return ad.bce_loss(m.forward(note(ids))[0], y)

    assert ad.grad_check(f, tensors, eps=1e-4) < 1e-4


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


def test_zero_projection_is_exact_residual():
    rr = toy_reranker()
    base_p = ad.tensor(np.array([0.3, 0.8]))
    h = ad.tensor(np.random.default_rng(0).normal(size=(4, 5)))
    pf, raw = rr.forward(base_p, h, np.ones(4, bool), None, None, make_enc())
    assert raw.data.tobytes() == base_p.data.tobytes()
    assert pf.data.tobytes() == base_p.data.tobytes()


def test_modality_average_of_duplicate_med():
    rr = toy_reranker()
    e1 = rr.params["med_emb"].data[rr.vocabs.row("med", "M1")]
    enc = make_enc(meds=("M1", "M1"))
    vec = rr.embed_modalities(enc).data
    enc_single = make_enc(meds=("M1",))
    np.testing.assert_allclose(vec, rr.embed_modalities(enc_single).data, atol=1e-12)
    base = rr.embed_modalities(make_enc()).data
    np.testing.assert_allclose(vec - base, e1, atol=1e-12)


def test_modality_mean_of_two_meds():
    rr = toy_reranker()
    e1 = rr.params["med_emb"].data[rr.vocabs.row("med", "M1")]
    e2 = rr.params["med_emb"].data[rr.vocabs.row("med", "M2")]
    both = rr.embed_modalities(make_enc(meds=("M1", "M2"))).data
    none = rr.embed_modalities(make_enc()).data
    np.testing.assert_allclose(both - none, (e1 + e2) / 2.0, atol=1e-12)


def test_unknown_metadata_maps_to_zero_rows():
    rr = toy_reranker()
    vec = rr.embed_modalities(make_enc(doctor="DRX", dept="DX")).data
    np.testing.assert_array_equal(vec, np.zeros(4))


def test_reranker_forward_matches_numpy_oracle():
    rr = toy_reranker(seed=41)
    rng = np.random.default_rng(8)
    rr.params["proj_w"].data[:] = rng.normal(size=(2, 4))
    rr.params["proj_b"].data[:] = rng.normal(size=2)
    base_p = np.array([0.2, 0.9])
    Hn = rng.normal(size=(3, 5))
    Ha = rng.normal(size=(2, 5))
    enc = make_enc(meds=("M1",), procs=("R1",))

    pf, raw = rr.forward(ad.tensor(base_p), ad.tensor(Hn), np.ones(3, bool),
                         ad.tensor(Ha), np.ones(2, bool), enc)

    # independent recomputation with plain numpy
    P = rr.params
    mv = (P["med_emb"].data[1] + P["proc_emb"].data[1]
          + P["doctor_emb"].data[1] + P["dept_emb"].data[1])
    el = P["label_emb"].data + mv

    def attn(side, source):
        heads = []
        for h in range(2):
            q = el @ P[f"{side}.h{h}.wq"].data
            k = source @ P[f"{side}.h{h}.wk"].data
            v = source @ P[f"{side}.h{h}.wv"].data
            s = q @ k.T / math.sqrt(2)
            s -= s.max(axis=1, keepdims=True)
            a = np.exp(s)
            a /= a.sum(axis=1, keepdims=True)
            heads.append(a @ v)
        return np.concatenate(heads, axis=1) @ P[f"{side}.wo"].data

    mixed = attn("attn_n", Hn) + attn("attn_m", Ha)
    want_raw = (mixed * P["proj_w"].data).sum(axis=1) + P["proj_b"].data + base_p
    np.testing.assert_allclose(raw.data, want_raw, atol=1e-10)
    np.testing.assert_allclose(pf.data, np.clip(want_raw, 0, 1), atol=1e-10)


def test_missing_aux_encoding_drops_attn_m_term():
    rr = toy_reranker(seed=43)
    rr.params["proj_w"].data[:] = 0.5
    base_p = ad.tensor(np.array([0.5, 0.5]))
    h = ad.tensor(np.random.default_rng(3).normal(size=(3, 5)))
    enc = make_enc()
    pf_none, _ = rr.forward(base_p, h, np.ones(3, bool), None, None, enc)
    # all-masked aux behaves identically to absent aux
    pf_masked, _ = rr.forward(base_p, h, np.ones(3, bool),
                              ad.tensor(np.zeros((2, 5))), np.zeros(2, bool), enc)
    np.testing.assert_array_equal(pf_none.data, pf_masked.data)


def test_reranker_grad_check():
    rr = toy_reranker(seed=47)
    rng = np.random.default_rng(5)
    rr.params["proj_w"].data[:] = rng.normal(size=(2, 4)) * 0.3
    base_p = ad.tensor(np.full(2, 0.5))
    h = ad.tensor(rng.normal(size=(3, 5)))
    ha = ad.tensor(rng.normal(size=(2, 5)))
    enc = make_enc(meds=("M1",))
    y = ad.tensor(np.array([1.0, 0.0]))
    names = sorted(rr.params)
    tensors = [rr.params[n] for n in names]

    def f(*ts):
        pf, _ = rr.forward(base_p, h, np.ones(3, bool), ha, np.ones(2, bool), enc)
        return ad.bce_loss(pf, y)

    assert ad.grad_check(f, tensors, eps=1e-4) < 1e-4


def test_frozen_base_gets_no_gradient():
    base = toy_model("caml", seed=51)
    rr = toy_reranker(n_labels=3, d=4, d_keys=5, seed=53)
    rr.params["proj_w"].data[:] = 0.2
    enc = make_enc(meds=("M1",))
    n = note([2, 3, 4])
    aux = note([2])
    p_c, h_c, mask, ha_c, am = frozen_base_outputs(base, n, aux)
    pf, _ = rr.forward(p_c, h_c, mask, ha_c, am, enc)
    grads = ad.backward(ad.bce_loss(pf, ad.tensor(np.array([1.0, 0.0, 1.0]))))
    for t in base.params.values():
        assert t not in grads
    assert rr.params["proj_w"] in grads
    assert rr.params["label_emb"] in grads


def test_frozen_outputs_all_pad_aux_is_none():
    base = toy_model("caml", seed=55)
    _, _, _, ha, am = frozen_base_outputs(base, note([2, 3]), note([0]))
    assert ha is None and am is None


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


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
    p1, _, _ = m.forward(note([2, 3]))
    p2, _, _ = back.forward(note([2, 3]))
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
    path = tmp_path / "rr.ckpt"
    save_reranker(path, rr, "v", "l")
    back = load_reranker(path, "v", "l")
    assert back.vocabs == rr.vocabs
    assert back.hp == rr.hp
    for k in rr.params:
        assert back.params[k].data.tobytes() == rr.params[k].data.tobytes()


def test_wrong_kind_rejected(tmp_path):
    m = toy_model("caml")
    path = tmp_path / "x.ckpt"
    save_base_model(path, m, "v", "l")
    with pytest.raises(ValidationError):
        load_reranker(path, "v", "l")
