"""Numerics engine: forward oracles, gradient checks, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdlab import autodiff as ad
from icdlab.errors import ContractError, EmptySourceError, ShapeError


def t(x, grad=False):
    return ad.tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward oracles (hand-computed)
# ---------------------------------------------------------------------------


def test_matmul_known_product():
    out = ad.matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_add_bias_row_broadcast():
    out = ad.add(t([[1.0, 2.0], [3.0, 4.0]]), t([10.0, 20.0]))
    np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])


def test_add_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        ad.add(t([[1.0, 2.0]]), t([[1.0], [2.0]]))


def test_softmax_reference_values():
    out = ad.softmax(t([1.0, 2.0, 3.0]), axis=0)
    np.testing.assert_allclose(
        out.data, [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
        rtol=0, atol=1e-15,
    )
    assert out.data.sum() == pytest.approx(1.0, abs=1e-15)


def test_softmax_shift_invariance_is_bitwise():
    logits = np.array([3.0, -1.0, 0.0, 7.0])
    a = ad.softmax(t(logits), axis=0).data
    b = ad.softmax(t(logits + 100.0), axis=0).data
    assert a.tobytes() == b.tobytes()


def test_softmax_mask_zeroes_excluded_positions():
    mask = np.array([True, False, True, False])
    out = ad.softmax(t([1.0, 50.0, 2.0, 50.0]), axis=0, mask=mask).data
    assert out[1] == 0.0 and out[3] == 0.0
    e = np.exp([1.0 - 2.0, 2.0 - 2.0])
    np.testing.assert_allclose(out[[0, 2]], e / e.sum(), atol=1e-15)


def test_softmax_all_masked_raises():
    with pytest.raises(EmptySourceError):
        ad.softmax(t([1.0, 2.0]), axis=0, mask=np.array([False, False]))


def test_softmax_extreme_logits_stay_finite():
    out = ad.softmax(t([1000.0, 0.0, -1000.0]), axis=0).data
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0)


def test_conv1d_same_padding_oracle():
    # single kernel of ones, width 3, over [1,2,3]: edges see zero padding
    x = t([[1.0], [2.0], [3.0]])
    k = t(np.ones((1, 3, 1)))
    b = t(np.zeros(1))
    out = ad.conv1d(x, k, b).data
    np.testing.assert_array_equal(out, [[3.0], [6.0], [5.0]])


def test_conv1d_even_width_rejected():
    with pytest.raises(ShapeError):
        ad.conv1d(t(np.ones((4, 2))), t(np.ones((1, 4, 2))), t(np.zeros(1)))


def test_conv1d_matches_direct_dense_computation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 3))
    k = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=2)
    out = ad.conv1d(t(x), t(k), t(b)).data
    xp = np.zeros((8, 3))
    xp[1:7] = x
    want = np.empty((6, 2))
    for i in range(6):
        window = xp[i : i + 3]  # (w, d_e)
        for c in range(2):
            want[i, c] = (window * k[c]).sum() + b[c]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_bce_reference_value():
    # -(log .9 + log .9)/2
    loss = ad.bce_loss(t([0.9, 0.1]), t([1.0, 0.0]))
    assert loss.data == pytest.approx(0.10536051565782628, abs=1e-15)


def test_bce_survives_hard_zero_and_one():
    loss = ad.bce_loss(t([0.0, 1.0]), t([1.0, 0.0]))
    assert np.isfinite(loss.data)
    grads = ad.backward(ad.bce_loss(t([0.0, 1.0], grad=True), t([1.0, 0.0])))
    assert all(np.isfinite(g).all() for g in grads.values())


def test_embedding_rows_and_scatter_gradient():
    table = t(np.arange(12.0).reshape(4, 3), grad=True)
    out = ad.embedding(table, [2, 0, 2])
    np.testing.assert_array_equal(out.data, [[6, 7, 8], [0, 1, 2], [6, 7, 8]])
    grads = ad.backward(ad.tensor_sum(out))
    # row 2 was looked up twice, so its gradient accumulates both visits
    np.testing.assert_array_equal(
        grads[table], [[1, 1, 1], [0, 0, 0], [2, 2, 2], [0, 0, 0]]
    )


def test_embedding_rejects_out_of_range_id():
    with pytest.raises(ContractError):
        ad.embedding(t(np.zeros((3, 2))), [3])


def test_clamp01_values_and_gradient_gate():
    x = t([-0.5, 0.25, 1.5], grad=True)
    out = ad.clamp01(x)
    np.testing.assert_array_equal(out.data, [0.0, 0.25, 1.0])
    grads = ad.backward(ad.tensor_sum(out))
    np.testing.assert_array_equal(grads[x], [0.0, 1.0, 0.0])


def test_sum_axes():
    x = t([[1.0, 2.0], [3.0, 4.0]])
    assert ad.tensor_sum(x).data == 10.0
    np.testing.assert_array_equal(ad.tensor_sum(x, axis=0).data, [4.0, 6.0])
    np.testing.assert_array_equal(ad.tensor_sum(x, axis=1).data, [3.0, 7.0])


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# backward machinery
# ---------------------------------------------------------------------------


def test_backward_requires_scalar_loss():
    x = t([1.0, 2.0], grad=True)
    with pytest.raises(ContractError):
        ad.backward(ad.scale(x, 2.0))


def test_gradient_map_covers_unreached_parameters():
    used = t([1.0, 2.0], grad=True)
    loss = ad.tensor_sum(ad.mul(used, used))
    grads = ad.backward(loss)
    assert used in grads
    np.testing.assert_array_equal(grads[used], [2.0, 4.0])


def test_diamond_graph_accumulates_both_paths():
    x = t(3.0, grad=True)
    y = ad.add(ad.scale(x, 2.0), ad.scale(x, 5.0))  # 7x
    grads = ad.backward(y)
    assert grads[x] == pytest.approx(7.0)


def test_no_grad_suppresses_graph():
    x = t([1.0, 2.0], grad=True)
    with ad.no_grad():
        y = ad.scale(x, 3.0)
    assert y.is_leaf and y.parents == ()


def test_constants_get_no_gradient_entry():
    x = t([1.0, 2.0], grad=True)
    c = t([5.0, 5.0])
    grads = ad.backward(ad.tensor_sum(ad.mul(x, c)))
    assert x in grads and c not in grads


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_attention_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    d, dh, s = 4, 2, 3
    q = t(rng.normal(size=(2, d)))
    kv = t(rng.normal(size=(s, d)))
    wq = [t(rng.normal(size=(d, dh)), grad=True) for _ in range(2)]
    wk = [t(rng.normal(size=(d, dh)), grad=True) for _ in range(2)]
    wv = [t(rng.normal(size=(d, dh)), grad=True) for _ in range(2)]
    wo = t(rng.normal(size=(2 * dh, d)), grad=True)
    first = ad.multi_head_attention(q, kv, kv, wq, wk, wv, wo)
    second = ad.multi_head_attention(q, kv, kv, wq, wk, wv, wo)
    assert first.data.tobytes() == second.data.tobytes()


# ---------------------------------------------------------------------------
# attention semantics
# ---------------------------------------------------------------------------


def test_attention_empty_source_raises():
    d = 4
    q = t(np.ones((2, d)))
    empty = t(np.zeros((0, d)))
    ws = [t(np.ones((d, 2)))]
    with pytest.raises(EmptySourceError):
        ad.multi_head_attention(q, empty, empty, ws, ws, ws, t(np.ones((2, d))))


def test_attention_single_source_row_copies_value():
    # with one source row the softmax is 1, output = v W_v W_o exactly
    rng = np.random.default_rng(5)
    d, dh = 3, 3
    q = t(rng.normal(size=(2, d)))
    kv = t(rng.normal(size=(1, d)))
    wq = [t(rng.normal(size=(d, dh)))]
    wk = [t(rng.normal(size=(d, dh)))]
    wv = [t(rng.normal(size=(d, dh)))]
    wo = t(rng.normal(size=(dh, d)))
    out = ad.multi_head_attention(q, kv, kv, wq, wk, wv, wo).data
    want = (kv.data @ wv[0].data) @ wo.data
    np.testing.assert_allclose(out, np.vstack([want, want]), atol=1e-12)


def test_attention_rows_are_convex_mixtures():
    rng = np.random.default_rng(9)
    d, s = 4, 5
    q = t(rng.normal(size=(3, d)))
    kv = t(rng.normal(size=(s, d)))
    eye = [t(np.eye(d))]
    out = ad.multi_head_attention(q, kv, kv, eye, eye, eye, t(np.eye(d))).data
    lo, hi = kv.data.min(axis=0), kv.data.max(axis=0)
    assert (out >= lo - 1e-9).all() and (out <= hi + 1e-9).all()


# ---------------------------------------------------------------------------
# gradient checks: every primitive and the attention composite
# ---------------------------------------------------------------------------

GC_TOL = 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_dense_chain(seed):
    rng = np.random.default_rng(seed)
    x = t(rng.normal(size=(3, 4)))
    w = t(rng.normal(size=(4, 2)), grad=True)
    b = t(rng.normal(size=2), grad=True)
    y = t(rng.integers(0, 2, size=(3, 2)).astype(float))

    def f(w_, b_):
        return ad.bce_loss(ad.sigmoid(ad.add(ad.matmul(x, w_), b_)), y)

    assert ad.grad_check(f, [w, b]) < GC_TOL


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_conv_tanh_softmax(seed):
    rng = np.random.default_rng(100 + seed)
    x = t(rng.normal(size=(5, 3)), grad=True)
    k = t(rng.normal(size=(2, 3, 3)) * 0.5, grad=True)
    b = t(rng.normal(size=2), grad=True)

    def f(x_, k_, b_):
        h = ad.tanh(ad.conv1d(x_, k_, b_))
        a = ad.softmax(h, axis=0)
        return ad.tensor_sum(ad.mul(a, h))

    assert ad.grad_check(f, [x, k, b]) < GC_TOL


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_masked_softmax_and_embedding(seed):
    rng = np.random.default_rng(200 + seed)
    table = t(rng.normal(size=(6, 3)), grad=True)
    mask = np.array([True, False, True, True])
    ids = rng.integers(0, 6, size=4).tolist()
    w = t(rng.normal(size=(3, 1)), grad=True)

    def f(table_, w_):
        e = ad.embedding(table_, ids)
        s = ad.softmax(ad.matmul(e, w_), axis=0, mask=mask)
        return ad.tensor_sum(ad.mul(s, ad.matmul(e, w_)))

    assert ad.grad_check(f, [table, w]) < GC_TOL


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_attention(seed):
    rng = np.random.default_rng(300 + seed)
    d, dh, s, n = 4, 2, 3, 2
    q = t(rng.normal(size=(n, d)), grad=True)
    kv = t(rng.normal(size=(s, d)), grad=True)
    wq = [t(rng.normal(size=(d, dh)), grad=True) for _ in range(2)]
    wk = [t(rng.normal(size=(d, dh)), grad=True) for _ in range(2)]
    wv = [t(rng.normal(size=(d, dh)), grad=True) for _ in range(2)]
    wo = t(rng.normal(size=(2 * dh, d)), grad=True)
    y = t(rng.integers(0, 2, size=(n, d)).astype(float))

    def f(q_, kv_, *ws):
        wq_, wk_, wv_, wo_ = list(ws[0:2]), list(ws[2:4]), list(ws[4:6]), ws[6]
        out = ad.multi_head_attention(q_, kv_, kv_, wq_, wk_, wv_, wo_)
        return ad.bce_loss(ad.sigmoid(out), y)

    # wider step: near-zero coordinates make eps=1e-5 round-off dominated
    assert ad.grad_check(f, [q, kv, *wq, *wk, *wv, wo], eps=1e-4) < GC_TOL


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_clamp_interior(seed):
    # keep coordinates strictly inside (0,1): clamp is differentiable there
    rng = np.random.default_rng(400 + seed)
    x = t(rng.uniform(0.05, 0.95, size=5), grad=True)

    def f(x_):
        return ad.tensor_sum(ad.mul(ad.clamp01(x_), x_))

    assert ad.grad_check(f, [x]) < GC_TOL


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_softmax_simplex_property(logits):
    out = ad.softmax(t(logits), axis=0).data
    assert (out >= 0).all()
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sigmoid_tanh_identity(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=7) * 5
    s = ad.sigmoid(t(x)).data
    th = ad.tanh(t(x / 2.0)).data
    np.testing.assert_allclose(s, (1.0 + th) / 2.0, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_linear_gradient_is_exact(seed):
    # for f(w) = sum(x @ w) the analytic gradient equals column sums of x
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 3))
    w = t(rng.normal(size=(3, 2)), grad=True)
    grads = ad.backward(ad.tensor_sum(ad.matmul(t(x), w)))
    want = np.repeat(x.sum(axis=0)[:, None], 2, axis=1)
    np.testing.assert_allclose(grads[w], want, atol=1e-12)
