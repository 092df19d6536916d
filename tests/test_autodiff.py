"""Numerics engine: forward oracles, gradient checks, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdlab import autodiff as ad
from icdlab.errors import NumericError, ValidationError
from oracles import grad_check, tensor_sum


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
    with pytest.raises(ValidationError, match="add: incompatible shapes"):
        ad.add(t([[1.0, 2.0]]), t([[1.0], [2.0]]))


def pool(scores, values, lengths):
    """label_attention with the given (ΣL, N) scores and per-position values:
    keys and values read out through identity queries and readout."""
    eye = t(np.eye(scores.shape[1]))
    return ad.label_attention(scores, eye, values, eye, lengths)


def pool_weights(scores, lengths=None):
    """The (ΣL, N) weights of the segment softmax inside label_attention:
    pooling the indicator of row k reads back the weights of k in its own
    segment. No lengths makes every row one segment."""
    if lengths is None:
        lengths = [len(scores)]
    segment = np.repeat(np.arange(len(lengths)), lengths)
    weights = []
    for k in range(len(scores)):
        values = np.zeros(scores.shape)
        values[k] = 1.0
        weights.append(pool(t(scores), t(values), lengths).data[segment[k]])
    return np.stack(weights)


def softmax(logits):
    """The softmax of a 1-D vector, as label_attention weighs its positions."""
    return pool_weights(np.asarray(logits, dtype=np.float64)[:, None])[:, 0]


def test_softmax_reference_values():
    out = softmax([1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        out, [0.09003057317038046, 0.24472847105479767, 0.6652409557748219],
        rtol=0, atol=1e-15,
    )
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_softmax_shift_invariance_is_bitwise():
    logits = np.array([3.0, -1.0, 0.0, 7.0])
    assert softmax(logits).tobytes() == softmax(logits + 100.0).tobytes()


def test_softmax_mask_zeroes_excluded_positions():
    # a segment's softmax covers its own rows only: the rows of its
    # neighbour, however large their scores, weigh exactly zero in it
    scores = np.array([[1.0], [2.0], [50.0], [50.0]])
    for k in range(4):
        values = np.zeros((4, 1))
        values[k] = 1.0
        assert pool(t(scores), t(values), [2, 2]).data[1 - k // 2, 0] == 0.0
    e = np.exp([1.0 - 2.0, 2.0 - 2.0])
    np.testing.assert_allclose(pool_weights(scores, [2, 2])[:2, 0], e / e.sum(), atol=1e-15)


def test_softmax_all_masked_raises():
    # a zero-length segment, first, in the middle or last
    scores = t([[1.0], [2.0]])
    for lengths in ([0, 1, 1], [1, 0, 1], [1, 1, 0]):
        with pytest.raises(NumericError, match="label_attention: a segment has no position"):
            pool(scores, scores, lengths)


def test_softmax_extreme_logits_stay_finite():
    out = softmax([1000.0, 0.0, -1000.0])
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0)


def test_conv1d_same_padding_oracle():
    # single kernel of ones, width 3, over [1,2,3]: edges see zero padding
    x = t([[1.0], [2.0], [3.0]])
    k = t(np.ones((1, 3, 1)))
    b = t(np.zeros(1))
    out = ad.conv1d(x, k, b, [3]).data
    np.testing.assert_array_equal(out, [[3.0], [6.0], [5.0]])


def test_conv1d_even_width_rejected():
    with pytest.raises(ValidationError, match="conv1d: kernel width 4 is even"):
        ad.conv1d(t(np.ones((4, 2))), t(np.ones((1, 4, 2))), t(np.zeros(1)), [4])


def test_conv1d_lengths_must_cover_the_rows():
    x, k, b = t(np.ones((4, 2))), t(np.ones((1, 3, 2))), t(np.zeros(1))
    for lengths in ([3], [2, 3], [5, -1], [[4]]):
        with pytest.raises(ValidationError, match="conv1d: expected x"):
            ad.conv1d(x, k, b, lengths)


def test_conv1d_matches_direct_dense_computation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 6, 3))
    k = rng.normal(size=(2, 3, 3))
    b = rng.normal(size=2)
    out = ad.conv1d(t(x.reshape(12, 3)), t(k), t(b), [6, 6]).data.reshape(2, 6, 2)
    for row in range(2):
        xp = np.zeros((8, 3))
        xp[1:7] = x[row]
        want = np.empty((6, 2))
        for i in range(6):
            window = xp[i : i + 3]  # (w, d_e)
            for c in range(2):
                want[i, c] = (window * k[c]).sum() + b[c]
        np.testing.assert_allclose(out[row], want, atol=1e-12)


def test_conv1d_zero_rows_leave_a_row_as_if_alone():
    # packed segments convolve as each would alone: a window reads zeros,
    # not its neighbour's rows, where it leaves its own segment
    rng = np.random.default_rng(8)
    k, b = t(rng.normal(size=(2, 5, 3))), t(rng.normal(size=2))
    short, one, long = (rng.normal(size=(n, 3)) for n in (3, 1, 7))
    out = ad.conv1d(t(np.concatenate([short, one, long])), k, b, [3, 1, 7]).data
    for got, alone in ((out[:3], short), (out[3:4], one), (out[4:], long)):
        np.testing.assert_allclose(got, ad.conv1d(t(alone), k, b, [len(alone)]).data,
                                   rtol=0, atol=1e-12)


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
    grads = ad.backward(tensor_sum(out))
    # row 2 was looked up twice, so its gradient accumulates both visits
    np.testing.assert_array_equal(
        grads[table], [[1, 1, 1], [0, 0, 0], [2, 2, 2], [0, 0, 0]]
    )


def test_embedding_rejects_out_of_range_id():
    with pytest.raises(ValidationError, match=r"embedding: ids \[3\] out of range \[0, 3\)"):
        ad.embedding(t(np.zeros((3, 2))), [3])


def test_embedding_error_lists_only_the_bad_ids():
    ids = np.full((64, 40), 2)
    ids[5, 7], ids[9, 1] = 7, -1
    with pytest.raises(ValidationError, match="embedding: ids") as info:
        ad.embedding(t(np.zeros((3, 2))), ids)
    assert "[-1, 7]" in str(info.value) and len(str(info.value)) < 80


def test_embedding_of_an_id_matrix_scatters_back():
    table = t(np.arange(8.0).reshape(4, 2), grad=True)
    out = ad.embedding(table, np.array([[1, 3], [1, 0]]))
    assert out.shape == (2, 2, 2)
    grads = ad.backward(tensor_sum(out))
    np.testing.assert_array_equal(grads[table], [[1, 1], [2, 2], [0, 0], [1, 1]])


def test_embedding_gradient_has_the_bytes_of_np_add_at():
    rng = np.random.default_rng(5)
    table = t(rng.normal(size=(30, 7)), grad=True)
    ids = rng.integers(0, 30, size=(12, 25))  # 300 lookups into 30 rows: many repeats
    g = rng.normal(size=(12, 25, 7))
    want = np.zeros((30, 7))
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 7))
    grads = ad.backward(tensor_sum(ad.mul(ad.embedding(table, ids), t(g))))
    assert grads[table].tobytes() == want.tobytes()


def test_sigmoid_has_the_bytes_of_the_masked_formula():
    x = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 800.0, -800.0,
                  np.inf, -np.inf, np.nan, -np.nan])
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ea = np.exp(x[~pos])
    want[~pos] = ea / (1.0 + ea)
    assert ad.sigmoid(t(x)).data.tobytes() == want.tobytes()


EPS = ad.PROB_EPS
# one score in each stretch of the line: below 0, (0, ε), [ε, 1 − ε] with
# both ends, (1 − ε, 1] and above 1
CLIP_CASES = [-0.3, EPS / 2, EPS, 0.4, 1.0 - EPS, 1.0 - EPS / 4, 1.0, 1.7]


@pytest.mark.parametrize("target", [0.0, 1.0])
@pytest.mark.parametrize("x", CLIP_CASES)
def test_bce_loss_clips_as_clamp01_then_bce_loss(x, target):
    # the reranker hands its unclamped scores P + Δ to bce_loss: the loss's own
    # clip to [ε, 1 − ε], whose gradient is zero outside it, gives what a clamp
    # to [0, 1] first would give, in value and gradient, to the bit; the
    # clamp's gradient is the clamped score's, gated by [0 ≤ x ≤ 1]
    def loss_and_grad(x):
        score = t([[x]], grad=True)
        loss = ad.bce_loss(score, t([[target]]))
        return loss.data, ad.backward(loss)[score]

    loss, grad = loss_and_grad(x)
    clamped_loss, clamped_grad = loss_and_grad(np.clip(x, 0, 1))
    assert loss.tobytes() == clamped_loss.tobytes()
    assert grad.tobytes() == (clamped_grad * np.array(0.0 <= x <= 1.0)).tobytes()
    # what a reranker correcting in logit space, σ(logit P + Δ), changes: its
    # scores never leave (0, 1), and the gradient of the loss with respect to
    # the logit, σ − y, is never zero, where here a score past the clip gets none
    assert (grad[0, 0] == 0.0) == (not EPS <= x <= 1.0 - EPS)


def test_sum_axes():
    x = t([[1.0, 2.0], [3.0, 4.0]])
    assert tensor_sum(x).data == 10.0
    np.testing.assert_array_equal(tensor_sum(x, axis=0).data, [4.0, 6.0])
    np.testing.assert_array_equal(tensor_sum(x, axis=1).data, [3.0, 7.0])


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ValidationError, match="matmul: incompatible shapes"):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    with pytest.raises(ValidationError, match="matmul: incompatible shapes"):
        ad.matmul(t(np.ones((2, 3, 4))), t(np.ones((3, 4, 1))))
    # one row per packed position, not a batch axis
    with pytest.raises(ValidationError, match="matmul: incompatible shapes"):
        ad.matmul(t(np.ones((2, 3, 4))), t(np.ones((4, 1))))
    with pytest.raises(ValidationError, match=r"matmul: incompatible shapes .* \(transposed\)"):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((3, 2))), transpose_b=True)


def test_matmul_transposed_reads_b_as_its_transpose():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
    np.testing.assert_allclose(ad.matmul(t(a), t(b), transpose_b=True).data,
                               ad.matmul(t(a), t(b.T.copy())).data, rtol=0, atol=1e-12)


def test_softmax_batch_mask_and_empty_row():
    scores = np.arange(12.0).reshape(6, 2)
    out = pool_weights(scores, [2, 1, 3])
    np.testing.assert_array_equal(out[2], [1.0, 1.0])  # a one-row segment weighs it fully
    for rows in (slice(0, 2), slice(3, 6)):
        np.testing.assert_allclose(out[rows], pool_weights(scores[rows]), atol=1e-15)
    with pytest.raises(NumericError, match="label_attention: a segment has no position"):
        pool(t(scores), t(scores), [2, 0, 4])


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2, 3, 4), (4,)), ((2, 3, 4), (2, 3, 1)), ((2, 3, 4), (3, 1)), ((2, 3, 4), (1, 1, 4)),
])
def test_broadcast_add_mul_gradients(a_shape, b_shape):
    rng = np.random.default_rng(17)
    a, b = t(rng.normal(size=a_shape), grad=True), t(rng.normal(size=b_shape), grad=True)
    for op in (ad.add, ad.mul):
        assert grad_check(lambda a_, b_: tensor_sum(ad.tanh(op(a_, b_))), [a, b]) < GC_TOL


@pytest.mark.parametrize("a_shape, b_shape", [
    ((6, 4), (4, 5)), ((6, 4), (4, 1)), ((3, 4), (4, 5)),
])
def test_batched_matmul_gradients(a_shape, b_shape):
    rng = np.random.default_rng(19)
    a, b = t(rng.normal(size=a_shape), grad=True), t(rng.normal(size=b_shape), grad=True)
    got = ad.matmul(a, b)
    np.testing.assert_allclose(got.data, a.data @ b.data, atol=1e-12)
    assert grad_check(lambda a_, b_: tensor_sum(ad.tanh(ad.matmul(a_, b_))),
                         [a, b]) < GC_TOL


# ---------------------------------------------------------------------------
# backward machinery
# ---------------------------------------------------------------------------


def test_backward_requires_scalar_loss():
    x = t([1.0, 2.0], grad=True)
    with pytest.raises(ValidationError, match="backward: loss must be scalar"):
        ad.backward(ad.scale(x, 2.0))


def test_gradient_map_covers_unreached_parameters():
    used = t([1.0, 2.0], grad=True)
    loss = tensor_sum(ad.mul(used, used))
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
    assert y.grad_fn is None and y.parents == ()


def test_constants_get_no_gradient_entry():
    x = t([1.0, 2.0], grad=True)
    c = t([5.0, 5.0])
    grads = ad.backward(tensor_sum(ad.mul(x, c)))
    assert x in grads and c not in grads


def test_a_parameter_that_gets_no_gradient_gets_zeros():
    # bce passes nothing back to its targets; a target that requires grad
    # still gets its zero entry, which an optimizer may step
    p, y = t([0.3, 0.8], grad=True), t([0.0, 1.0], grad=True)
    grads = ad.backward(ad.bce_loss(p, y))
    np.testing.assert_array_equal(grads[y], [0.0, 0.0])
    assert grads[p].shape == (2,)


def test_backward_closures_match_the_plain_expressions():
    # the in-place closures reproduce, bit for bit, the one-expression forms
    rng = np.random.default_rng(17)
    x, w = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
    row = rng.normal(size=5)
    g = rng.normal(size=(7, 5))
    out = np.tanh(x)
    ga, = ad.tanh(t(x, grad=True)).grad_fn(g)
    assert np.array_equal(ga, g * (1.0 - out * out))
    sig = ad.sigmoid(t(x, grad=True))
    ga, = sig.grad_fn(g)
    assert np.array_equal(ga, g * sig.data * (1.0 - sig.data))
    for b in (w, row):
        ga, gb = ad.mul(t(x, grad=True), t(b, grad=True)).grad_fn(g)
        assert np.array_equal(ga, g * b)
        want = (g * x).sum(axis=tuple(range(g.ndim - b.ndim)))
        assert np.array_equal(gb, want.reshape(b.shape))
    p = np.clip(rng.uniform(-0.1, 1.1, size=(7, 5)), 0.0, 1.0)
    p[0, :2] = 0.0, 1.0  # outside [eps, 1 - eps]: no gradient
    y = (rng.uniform(size=(7, 5)) < 0.5).astype(np.float64)
    for upstream in (np.float64(1.0), np.float64(-0.37)):
        gp, gy = ad.bce_loss(t(p, grad=True), t(y)).grad_fn(upstream)
        q = np.clip(p, ad.PROB_EPS, 1.0 - ad.PROB_EPS)
        inside = (p >= ad.PROB_EPS) & (p <= 1.0 - ad.PROB_EPS)
        assert gy is None
        assert np.array_equal(gp, upstream * inside * (-y / q + (1.0 - y) / (1.0 - q)) / p.size)


def test_backward_closures_take_0d_tensors():
    x = t(-0.7, grad=True)
    assert ad.backward(ad.tanh(x))[x] == 1.0 - np.tanh(-0.7) ** 2
    s = 1.0 / (1.0 + np.exp(0.7))
    assert ad.backward(ad.sigmoid(x))[x] == pytest.approx(s * (1.0 - s), rel=1e-15)
    p = t(0.3, grad=True)
    assert ad.backward(ad.bce_loss(p, t(1.0)))[p] == -1.0 / 0.3


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_attention_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    scores, values = t(rng.normal(size=(5, 4))), t(rng.normal(size=(5, 4)))
    first = pool(scores, values, [2, 3])
    second = pool(scores, values, [2, 3])
    assert first.data.tobytes() == second.data.tobytes()


# ---------------------------------------------------------------------------
# attention semantics
# ---------------------------------------------------------------------------


def test_attention_empty_source_raises():
    scores = t(np.ones((1, 4)))
    with pytest.raises(NumericError, match="label_attention: a segment has no position"):
        pool(scores, scores, [1, 0])


def test_attention_mask_must_be_batch_by_positions():
    # the segment lengths are one vector that covers every row exactly
    scores = t(np.ones((3, 4)))
    for lengths in ([2], [2, 2], [[3]]):
        with pytest.raises(ValidationError, match="label_attention: expected keys"):
            pool(scores, scores, lengths)
    with pytest.raises(ValidationError, match="label_attention: expected keys"):
        pool(t(np.ones((1, 3, 4))), t(np.ones((1, 3, 4))), [1])


def test_attention_single_source_row_copies_value():
    # a segment of one row has softmax 1: its output is that row's values
    rng = np.random.default_rng(5)
    scores, values = t(rng.normal(size=(2, 4))), t(rng.normal(size=(2, 4)))
    out = pool(scores, values, [1, 1]).data
    np.testing.assert_array_equal(out, values.data)


def test_attention_rows_are_convex_mixtures():
    rng = np.random.default_rng(9)
    lengths = [3, 1, 5]
    scores, values = t(rng.normal(size=(9, 4)) * 3), t(rng.normal(size=(9, 4)))
    out = pool(scores, values, lengths).data
    for b, rows in enumerate(np.split(values.data, np.cumsum(lengths)[:-1])):
        assert (out[b] >= rows.min(axis=0) - 1e-12).all()
        assert (out[b] <= rows.max(axis=0) + 1e-12).all()


def test_attention_segment_far_below_the_batch_max_falls_back_to_its_own_max():
    # in column 1 the middle segment sits 800 below the batch max, so every
    # exponential of it underflows under the batch-max shift; the result and
    # its gradients must be those of each segment scored on its own, where
    # the batch max is the segment's max
    rng = np.random.default_rng(13)
    lengths = [3, 2, 4]
    scores, values = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
    scores[3:5, 1] -= 800.0
    upstream = rng.normal(size=(3, 3))

    def run(s, v, lens, up):
        s, v = t(s, grad=True), t(v, grad=True)
        out = pool(s, v, lens)
        grads = ad.backward(tensor_sum(ad.mul(out, t(up))))
        return out.data, grads[s], grads[v]

    out, gs, gv = run(scores, values, lengths, upstream)
    assert np.isfinite(out).all() and np.isfinite(gs).all() and np.isfinite(gv).all()
    for b, r in enumerate(np.split(np.arange(9), np.cumsum(lengths)[:-1])):
        alone, gs_alone, gv_alone = run(scores[r], values[r], [len(r)], upstream[b:b + 1])
        np.testing.assert_allclose(out[b], alone[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(gs[r], gs_alone, rtol=0, atol=1e-15)
        np.testing.assert_allclose(gv[r], gv_alone, rtol=0, atol=1e-15)


@pytest.mark.parametrize("heads", [2, 3])
def test_attention_heads_are_the_sum_of_single_head_calls_on_column_blocks(heads):
    rng = np.random.default_rng(heads)
    lengths, dk, dv = [2, 5, 1], 3, 2
    k, q = rng.normal(size=(8, heads * dk)), rng.normal(size=(4, heads * dk))
    v, r = rng.normal(size=(8, heads * dv)), rng.normal(size=(4, heads * dv))
    bias = rng.normal(size=(8, heads))
    out = ad.label_attention(t(k), t(q), t(v), t(r), lengths, t(bias), heads=heads).data
    want = sum(ad.label_attention(t(k[:, h * dk:(h + 1) * dk]), t(q[:, h * dk:(h + 1) * dk]),
                                  t(v[:, h * dv:(h + 1) * dv]), t(r[:, h * dv:(h + 1) * dv]),
                                  lengths, t(bias[:, h:h + 1])).data
               for h in range(heads))
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def test_attention_rejects_blocks_that_do_not_split_into_heads():
    ones = t(np.ones((3, 4)))
    with pytest.raises(ValidationError, match="label_attention: expected keys"):
        ad.label_attention(ones, ones, t(np.ones((3, 3))), t(np.ones((3, 3))), [3], heads=2)
    with pytest.raises(ValidationError, match="label_attention: expected keys"):
        ad.label_attention(ones, ones, ones, ones, [3], t(np.ones((3, 1))), heads=2)


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

    assert grad_check(f, [w, b]) < GC_TOL


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_conv_tanh_softmax(seed):
    rng = np.random.default_rng(100 + seed)
    x = t(rng.normal(size=(10, 3)), grad=True)
    k = t(rng.normal(size=(2, 3, 3)) * 0.5, grad=True)
    b = t(rng.normal(size=2), grad=True)

    def f(x_, k_, b_):
        # Σ_t softmax_t(h) · h_t over the rows of each segment of h (10, 2)
        h = ad.tanh(ad.conv1d(x_, k_, b_, [5, 5]))
        return tensor_sum(pool(h, h, [5, 5]))

    assert grad_check(f, [x, k, b]) < GC_TOL


@pytest.mark.parametrize("lengths", [[1, 4, 3], [4, 1, 3], [4, 3, 1]])
def test_grad_check_conv_and_pool_around_a_length_one_segment(lengths):
    # a one-row segment first, in the middle and last: its window reads only
    # itself and its softmax is 1, and neither leaks into a neighbour
    rng = np.random.default_rng(sum(i * n for i, n in enumerate(lengths)))
    x = t(rng.normal(size=(8, 3)), grad=True)
    k = t(rng.normal(size=(2, 5, 3)) * 0.5, grad=True)
    b = t(rng.normal(size=2), grad=True)
    u = t(rng.normal(size=(2, 2)), grad=True)
    y = t(rng.integers(0, 2, size=(3, 2)).astype(float))

    def f(x_, k_, b_, u_):
        h = ad.tanh(ad.conv1d(x_, k_, b_, lengths))
        return ad.bce_loss(ad.sigmoid(pool(ad.matmul(h, u_), h, lengths)), y)

    assert grad_check(f, [x, k, b, u]) < GC_TOL


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_masked_softmax_and_embedding(seed):
    rng = np.random.default_rng(200 + seed)
    table = t(rng.normal(size=(6, 3)), grad=True)
    ids = rng.integers(0, 6, size=4)
    w = t(rng.normal(size=(3, 1)), grad=True)

    def f(table_, w_):
        # Σ_t softmax(s)_t · s_t over the rows of each segment of s (4, 1)
        s = ad.matmul(ad.embedding(table_, ids), w_)
        return tensor_sum(pool(s, s, [1, 3]))

    assert grad_check(f, [table, w]) < GC_TOL


@pytest.mark.parametrize("seed", range(5))
def test_grad_check_attention(seed):
    rng = np.random.default_rng(300 + seed)
    scores = t(rng.normal(size=(6, 3)), grad=True)
    values = t(rng.normal(size=(6, 3)), grad=True)
    y = t(rng.integers(0, 2, size=(2, 3)).astype(float))

    def f(s_, v_):
        return ad.bce_loss(ad.sigmoid(pool(s_, v_, [2, 4])), y)

    # wider step: near-zero coordinates make eps=1e-5 round-off dominated
    assert grad_check(f, [scores, values], eps=1e-4) < GC_TOL


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_attention_with_row_bias_and_two_heads(seed):
    rng = np.random.default_rng(320 + seed)
    inputs = [t(rng.normal(size=shape), grad=True)
              for shape in ((7, 4), (3, 4), (7, 6), (3, 6), (7, 2))]
    y = t(rng.integers(0, 2, size=(2, 3)).astype(float))

    def f(k, q, v, r, b):
        return ad.bce_loss(ad.sigmoid(ad.label_attention(k, q, v, r, [3, 4], b, heads=2)), y)

    assert grad_check(f, inputs, eps=1e-4) < GC_TOL


def _normal(*shapes):
    return lambda rng: [t(rng.normal(size=s), grad=True) for s in shapes]


def _inside_unit(rng):
    return t(rng.uniform(0.05, 0.95, size=(3, 4)), grad=True)



# name -> (primitive, inputs from a generator)
ONE_PRIMITIVE = {
    "add": (ad.add, _normal((2, 3, 4), (3, 1))),
    "mul": (ad.mul, _normal((2, 3, 4), (4,))),
    "scale": (lambda a: ad.scale(a, -1.7), _normal((3, 4))),
    "matmul": (ad.matmul, _normal((6, 4), (4, 5))),
    "matmul_transposed": (lambda a, b: ad.matmul(a, b, transpose_b=True),
                          _normal((6, 4), (5, 4))),
    "tensor_sum": (tensor_sum, _normal((3, 4))),
    "tensor_sum_axis": (lambda a: tensor_sum(a, axis=1), _normal((2, 3, 4))),
    "tanh": (ad.tanh, _normal((3, 4))),
    "sigmoid": (ad.sigmoid, lambda rng: [t(np.linspace(-6.0, 5.0, 12).reshape(3, 4), grad=True)]),
    "label_attention": (lambda k, q, v, r: ad.label_attention(k, q, v, r, [3, 4]),
                        _normal((7, 2), (3, 2), (7, 4), (3, 4))),
    "embedding": (lambda table: ad.embedding(table, [[1, 3, 1], [0, 1, 1]]), _normal((4, 3))),
    "conv1d": (lambda x, k, b: ad.conv1d(x, k, b, [3, 1, 5]),
               _normal((9, 3), (2, 3, 3), (2,))),
    "bce_loss": (ad.bce_loss, lambda rng: [_inside_unit(rng),
                                            t(rng.integers(0, 2, size=(3, 4)).astype(float))]),
}


@pytest.mark.parametrize("name", list(ONE_PRIMITIVE))
def test_grad_check_one_primitive(name):
    # one primitive alone; a non-scalar output is read out through fixed
    # random weights, so every output coordinate gets its own upstream gradient
    op, make_inputs = ONE_PRIMITIVE[name]
    rng = np.random.default_rng(500)
    inputs = make_inputs(rng)
    readout = t(rng.normal(size=op(*inputs).shape))

    def f(*xs):
        out = op(*xs)
        return out if out.shape == () else tensor_sum(ad.mul(out, readout))

    assert grad_check(f, inputs) < GC_TOL


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_softmax_simplex_property(logits):
    out = softmax(logits)
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
    grads = ad.backward(tensor_sum(ad.matmul(t(x), w)))
    want = np.repeat(x.sum(axis=0)[:, None], 2, axis=1)
    np.testing.assert_allclose(grads[w], want, atol=1e-12)
