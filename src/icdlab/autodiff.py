"""Dense float64 arrays with reverse-mode differentiation.

A deliberately small engine with exactly the primitives the classifiers and
the reranker need. A mini-batch of notes is packed: the positions of all its
notes stacked as the rows of one (ΣL, ...) array, note b being the next
lengths[b] rows. One graph and one `backward` serve the whole batch, and
only real positions are computed. `conv1d` keeps each window inside its own
note. `label_attention` scores every position against every label query,
softmaxes over each note's rows and pools the positions' read-out values,
returning one row per note, all in one primitive; attention heads are
column blocks of its operands. Every other primitive is per position: `add`
and `mul` broadcast their second operand, `matmul` applies a rank-2 weight
to every row.
Each primitive records its parents and a `grad_fn` closure that maps the
upstream gradient to one gradient per parent; `backward` walks that graph
in reverse for exact gradients.

Everything is float64. Forward passes are deterministic: identical inputs
and parameters produce bitwise-identical outputs.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError

PROB_EPS = 1e-12  # clamp applied to probabilities before logs

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (frozen evaluation)."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus its position in the computation graph.

    `data` is the backing ndarray. A leaf has no `grad_fn`; the output of a
    primitive remembers its parents and the `grad_fn` that maps its upstream
    gradient to one gradient (or None) per parent.
    """

    __slots__ = ("data", "requires_grad", "parents", "grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.parents: tuple[Tensor, ...] = ()
        self.grad_fn: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def tensor(data, requires_grad: bool = False) -> Tensor:
    """A leaf, C-contiguous so that a gradient check can perturb it in place."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return Tensor(arr, requires_grad=requires_grad)


def _node(out, parents: tuple[Tensor, ...], grad_fn: Callable) -> Tensor:
    """The output of a primitive; a leaf when recording is off."""
    node = Tensor(out)
    if _grad_enabled:
        node.parents, node.grad_fn = parents, grad_fn
    return node


# ---- add / mul / scale ----------------------------------------------------

def _check_broadcast(name, a, b):
    """`b` must broadcast to the shape of `a` (a bias row, a batch axis)."""
    if b.ndim > a.ndim or any(m not in (1, n) for m, n in zip(b.shape[::-1], a.shape[::-1])):
        raise ValidationError(f"{name}: incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g, shape):
    """Sum a gradient over the axes along which `shape` was broadcast; a
    gradient of that very shape comes back as it is, not copied."""
    if g.shape == tuple(shape):
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    return g.sum(axis=tuple(i for i, n in enumerate(shape) if n < g.shape[i]), keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; `b` may broadcast to the shape of `a`."""
    _check_broadcast("add", a.data, b.data)
    return _node(a.data + b.data, (a, b), lambda g: (g, _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; `b` may broadcast to the shape of `a`."""
    _check_broadcast("mul", a.data, b.data)
    return _node(a.data * b.data, (a, b),
                 lambda g: (g * b.data, _unbroadcast(g * a.data, b.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.data * c, (a,), lambda g: (g * c,))


# ---- matmul ------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """a (m, k) @ b (k, n) as one GEMM: every row of a packed batch shares
    the weight. With `transpose_b`, `b` is (n, k) and is read as a transposed
    view: a weight stored one row per output needs no copy. No gradient is
    formed for a constant operand, a leaf without requires_grad (the frozen H)."""
    x, y = a.data, b.data
    yk = y.T if transpose_b else y
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != yk.shape[0]:
        raise ValidationError(f"matmul: incompatible shapes {x.shape} and {y.shape}"
                              + (" (transposed)" if transpose_b else ""))
    need_a, need_b = (t.requires_grad or t.grad_fn is not None for t in (a, b))
    return _node(x @ yk, (a, b), lambda g: (
        g @ yk.T if need_a else None,
        (g.T @ x if transpose_b else x.T @ g) if need_b else None))


# ---- elementwise nonlinearities ---------------------------------------------

def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def grad_fn(g):
        ga = np.multiply(out, out, out=np.empty_like(out))  # g · (1 - out²), one array
        np.subtract(1.0, ga, out=ga)
        ga *= g
        return (ga,)

    return _node(out, (a,), grad_fn)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(np.minimum(x, -x))  # exp(-x) where x >= 0, exp(x) elsewhere, NaN kept as is
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)

    def grad_fn(g):
        ga = np.multiply(g, out)  # (g · out) · (1 - out)
        ga *= np.subtract(1.0, out)
        return (ga,)

    return _node(out, (a,), grad_fn)


# ---- label attention over packed segments -----------------------------------

_SUM_FLOOR = 1e-290  # below it a segment's exponentials have underflowed


def label_attention(keys: Tensor, queries: Tensor, values: Tensor, readout: Tensor,
                    lengths, row_bias: Tensor | None = None, heads: int = 1) -> Tensor:
    """out[b, n] = Σ_h Σ_t a_h[t, n] · (values_h[t] · readout_h[n]) over the
    positions t of segment b, where a_h[:, n] is the softmax over those
    positions of keys_h[t] · queries_h[n] + row_bias[t, h], and head h is the
    h-th of `heads` equal column blocks of each operand. keys (ΣL, H·k) and
    values (ΣL, H·v) are packed, segment b being the next lengths[b] rows;
    queries are (N, H·k), readout (N, H·v), row_bias (ΣL, H) and out (B, N).
    A segment of no position raises NumericError.

    Each head's score GEMM output becomes its exponentials in place, shifted
    by each column's max over the whole batch. Only when a segment's sum then
    falls below _SUM_FLOOR, a segment far below that max, is the head redone
    with each segment's own max. The graph keeps the exponentials and their
    products with the per-position values for the backward pass."""
    k, q, v, r = keys.data, queries.data, values.data, readout.data
    bias = None if row_bias is None else row_bias.data
    lengths = np.asarray(lengths, dtype=np.int64)
    if (heads < 1 or any(x.ndim != 2 for x in (k, q, v, r)) or len(v) != len(k)
            or q.shape[1] != k.shape[1] or r.shape != (len(q), v.shape[1])
            or k.shape[1] % heads or v.shape[1] % heads
            or (bias is not None and bias.shape != (len(k), heads))
            or lengths.ndim != 1 or lengths.sum() != len(k)):
        raise ValidationError(
            f"label_attention: expected keys (ΣL,H·k), queries (N,H·k), values "
            f"(ΣL,H·v), readout (N,H·v), row_bias (ΣL,H) and lengths (B,) "
            f"summing to ΣL for H={heads}; got {k.shape}, {q.shape}, {v.shape}, "
            f"{r.shape}, {None if bias is None else bias.shape}, {lengths.tolist()}")
    if not (lengths > 0).all():
        raise NumericError("label_attention: a segment has no position")
    starts = np.cumsum(lengths) - lengths
    dk, dv = k.shape[1] // heads, v.shape[1] // heads
    blocks = [(slice(h * dk, (h + 1) * dk), slice(h * dv, (h + 1) * dv)) for h in range(heads)]

    def scores(h):
        kc = blocks[h][0]
        s = k[:, kc] @ q[:, kc].T
        if bias is not None:
            s += bias[:, h, None]
        return s

    kept = []  # per head: exponentials, their products with the values, sums, output
    for h, (_, vc) in enumerate(blocks):
        e = scores(h)
        e -= e.max(axis=0)
        np.exp(e, out=e)
        total = np.add.reduceat(e, starts)
        if (total < _SUM_FLOOR).any():
            e = scores(h)
            e -= np.repeat(np.maximum.reduceat(e, starts), lengths, axis=0)
            np.exp(e, out=e)
            total = np.add.reduceat(e, starts)
        ev = v[:, vc] @ r[:, vc].T
        ev *= e
        out = np.add.reduceat(ev, starts)
        out /= total
        kept.append((e, ev, total, out))

    def grad_fn(g):
        # with weights a_t = e_t / total and per-position values p_t = v_t · r:
        # ∂out/∂p_t = a_t and ∂out/∂s_t = a_t (p_t - out), written (e_t p_t -
        # e_t out) / total from the kept products
        gk, gq, gv, gr = (np.empty_like(x) for x in (k, q, v, r))
        gb = None if bias is None else np.empty_like(bias)
        for h, ((kc, vc), (e, ev, total, out)) in enumerate(zip(blocks, kept)):
            gp = np.repeat(g / total, lengths, axis=0)
            gs = np.repeat(out, lengths, axis=0)
            gs *= e
            np.subtract(ev, gs, out=gs)
            gs *= gp
            gp *= e
            gk[:, kc] = gs @ q[:, kc]
            gq[:, kc] = gs.T @ k[:, kc]
            gv[:, vc] = gp @ r[:, vc]
            gr[:, vc] = gp.T @ v[:, vc]
            if gb is not None:
                gb[:, h] = gs.sum(axis=1)
        return gk, gq, gv, gr, gb

    parents = (keys, queries, values, readout) + (() if row_bias is None else (row_bias,))
    return _node(functools.reduce(np.add, [out for *_, out in kept]), parents, grad_fn)


# ---- embedding lookup --------------------------------------------------------

def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: an int array of ids of any shape -> that shape plus one
    axis of `table` rows. Gradient scatters back."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = table.data
    if rows.ndim != 2:
        raise ValidationError(f"embedding: table must be rank-2, got {rows.shape}")
    bad = (ids < 0) | (ids >= rows.shape[0])
    if bad.any():
        raise ValidationError(f"embedding: ids {np.unique(ids[bad]).tolist()} out of "
                              f"range [0, {rows.shape[0]})")

    def grad_fn(g):  # into each cell in row order, as np.add.at adds
        d = rows.shape[1]
        cells = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        gt = np.bincount(cells, weights=g.reshape(-1), minlength=rows.size)
        return (gt.reshape(rows.shape),)

    return _node(rows[ids], (table,), grad_fn)


# ---- same-padded 1-D convolution over packed segments ------------------------

def _windows(lengths, w):
    """(ΣL, w): the rows t-w//2 .. t+w//2 around each packed row t, or ΣL, a
    zero row past the end, where that position lies outside t's segment."""
    n = int(lengths.sum())
    shift = np.arange(w) - w // 2
    at = (np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths))[:, None] + shift
    inside = (at >= 0) & (at < np.repeat(lengths, lengths)[:, None])
    return np.where(inside, np.arange(n)[:, None] + shift, n)


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor, lengths) -> Tensor:
    """Same-length 1-D convolution (zero padded, odd width) within each
    segment of packed rows, as one im2col GEMM: x (ΣL, d_e) with segment b
    the next lengths[b] rows, kernels (d_c, w, d_e), bias (d_c,) → linear
    (ΣL, d_c). A window reads zero wherever it leaves its segment, so no
    segment sees its neighbour. The backward pass rebuilds the im2col
    matrix rather than the graph holding it.
    """
    xs, k, b = x.data, kernels.data, bias.data
    lengths = np.asarray(lengths, dtype=np.int64)
    if (xs.ndim != 2 or k.ndim != 3 or b.shape != k.shape[:1] or xs.shape[1] != k.shape[2]
            or lengths.ndim != 1 or (lengths < 0).any() or lengths.sum() != len(xs)):
        raise ValidationError(f"conv1d: expected x (ΣL,d_e), kernels (d_c,w,d_e), bias (d_c,), "
                              f"lengths (B,) summing to ΣL; got {xs.shape}, {k.shape}, {b.shape}, "
                              f"{lengths.tolist()}")
    d_c, w, d_e = k.shape
    if w % 2 == 0:
        raise ValidationError(f"conv1d: kernel width {w} is even, same-padding ill-defined")
    idx = _windows(lengths, w)

    def im2col():
        return np.concatenate([xs, np.zeros((1, d_e))])[idx].reshape(len(xs), w * d_e)

    out = im2col() @ k.reshape(d_c, -1).T
    out += b

    def grad_fn(g):
        gk = (g.T @ im2col()).reshape(k.shape)
        gcols = (g @ k.reshape(d_c, -1)).reshape(len(xs), w, d_e)
        gcols[idx == len(xs)] = 0.0  # a read past the segment passes nothing back
        gxp = np.zeros((len(xs) + w - 1, d_e))
        for j in range(w):
            gxp[j : j + len(xs)] += gcols[:, j]
        return gxp[w // 2 : w // 2 + len(xs)], gk, g.sum(axis=0)

    return _node(out, (x, kernels, bias), grad_fn)


# ---- binary cross-entropy -------------------------------------------------------

def bce_loss(probs: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy, probabilities clamped to [eps, 1-eps]. The
    backward pass clips again rather than the graph holding the clipped
    copy."""
    p, y = probs.data, targets.data
    if p.shape != y.shape:
        raise ValidationError(f"bce: shapes differ, {p.shape} vs {y.shape}")
    q = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    out = -np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q))

    def grad_fn(g):
        # g · inside · (-y / q + (1 - y) / (1 - q)) / p.size, in that order,
        # in three arrays (each given as `out`, so a 0-d one stays an array)
        q = np.clip(p, PROB_EPS, 1.0 - PROB_EPS, out=np.empty_like(p))
        gp = np.negative(y, out=np.empty_like(p))
        gp /= q
        pos = np.subtract(1.0, y, out=np.empty_like(p))
        pos /= np.subtract(1.0, q, out=q)
        gp += pos
        gp *= np.multiply(g, (p >= PROB_EPS) & (p <= 1.0 - PROB_EPS), out=pos)
        gp /= p.size
        return gp, None

    return _node(out, (probs, targets), grad_fn)


# --------------------------------------------------------------------------
# Reverse pass.
# --------------------------------------------------------------------------

def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Exact reverse-mode gradients of a scalar loss.

    Returns one entry per requires_grad tensor that participated in the
    computation, each gradient matching the tensor's shape.
    """
    if loss.data.shape != ():
        raise ValidationError(f"backward: loss must be scalar, got shape {loss.shape}")
    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if node.grad_fn is None:
            if g is not None:
                grads[id(node)] = g  # keep leaf gradient
            continue
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            if pg is None or (parent.grad_fn is None and not parent.requires_grad):
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return {node: grads[id(node)] if id(node) in grads else np.zeros_like(node.data)
            for node in order if node.requires_grad}
