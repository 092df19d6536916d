"""Dense float64 arrays with reverse-mode differentiation.

A deliberately small engine with exactly the primitives the classifiers and
the reranker need. A mini-batch of notes is one (B, T, ...) array, so one
graph and one `backward` serve the whole batch: `add` and `mul` broadcast
their second operand, `matmul` applies a rank-2 weight to every position.
Each primitive records its parents and a `grad_fn` closure that maps the
upstream gradient to one gradient per parent; `backward` walks that graph
in reverse for exact gradients. Only `attention_pool` takes a (B, T) mask.
`grad_check` verifies any scalar-valued composite against central
differences.

Everything is float64. Forward passes are deterministic: identical inputs
and parameters produce bitwise-identical outputs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, EmptySourceError, ShapeError

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
    """A leaf, C-contiguous so that `grad_check` can perturb it in place."""
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
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g, shape):
    """Sum a gradient over the axes along which `shape` was broadcast."""
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


# ---- matmul / transpose ----------------------------------------------------

def _swap(a):
    return np.swapaxes(a, -1, -2)


def _flat_matmul(a, b):
    """(..., k) @ (k, n) as one GEMM over every leading position."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes. A rank-2 `b` is shared by every
    leading (batch) position of `a`, in one GEMM; a higher-rank `b` must have
    the same leading axes as `a`."""
    x, y = a.data, b.data
    if (y.ndim < 2 or x.shape[-1:] != y.shape[-2:-1]
            or y.ndim > 2 and x.shape[:-2] != y.shape[:-2]):
        raise ShapeError(f"matmul: incompatible shapes {x.shape} and {y.shape}")

    def grad_fn(g):
        if y.ndim == 2:
            return _flat_matmul(g, y.T), x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return g @ _swap(y), _swap(x) @ g

    return _node(_flat_matmul(x, y) if y.ndim == 2 else x @ y, (a, b), grad_fn)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes, as a C-contiguous copy: BLAS rounds a GEMM that
    reads a transposed view differently from one over the copy on some shapes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: expected rank ≥ 2, got shape {a.shape}")
    return _node(np.ascontiguousarray(_swap(a.data)), (a,),
                 lambda g: (np.ascontiguousarray(_swap(g)),))


# ---- reductions -------------------------------------------------------------

def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is not None and not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"sum: axis {axis} out of range for shape {a.shape}")

    def grad_fn(g):
        if axis is None:
            return (np.full_like(a.data, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _node(np.sum(a.data, axis=axis), (a,), grad_fn)


# ---- elementwise nonlinearities ---------------------------------------------

def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ea = np.exp(x[~pos])
    out[~pos] = ea / (1.0 + ea)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


# ---- softmax and attention pooling ------------------------------------------

def _softmax(z):
    """Overflow-safe softmax of a (B, T, N) array over its positions, axis 1."""
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _softmax_grad(g, out):
    inner = (g * out).sum(axis=1, keepdims=True)
    return out * (g - inner)


def attention_pool(scores: Tensor, values: Tensor, mask: np.ndarray) -> Tensor:
    """out[b, n] = Σ_t a[b, t, n] · values[b, t, n], a = softmax over t of
    scores (both (B, T, N)) with the (B, T) mask: masked positions weigh
    exactly zero; a row with no position left raises EmptySourceError.

    The graph keeps only scores and values: the weights are recomputed in
    the backward pass instead of being held for every batch."""
    if scores.data.ndim != 3 or values.shape != scores.shape:
        raise ShapeError(f"attention_pool: expected two equal (B,T,N) shapes, "
                         f"got {scores.shape} and {values.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape[:2]:
        raise ShapeError(f"softmax: mask of shape {mask.shape} does not match axes (0, 1) "
                         f"of {scores.shape}")
    if not mask.any(axis=-1).all():
        raise EmptySourceError("softmax: every position along the axis is masked")

    def weights():
        return _softmax(np.where(mask[:, :, None], scores.data, -np.inf))

    def grad_fn(g):
        w = weights()
        g = g[:, None]
        return _softmax_grad(g * values.data, w), g * w

    return _node((weights() * values.data).sum(axis=1), (scores, values), grad_fn)


# ---- embedding lookup --------------------------------------------------------

def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: an int array of ids of any shape -> that shape plus one
    axis of `table` rows. Gradient scatters back."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = table.data
    if rows.ndim != 2:
        raise ShapeError(f"embedding: table must be rank-2, got {rows.shape}")
    bad = (ids < 0) | (ids >= rows.shape[0])
    if bad.any():
        raise ContractError(f"embedding: ids {np.unique(ids[bad]).tolist()} out of "
                            f"range [0, {rows.shape[0]})")

    def grad_fn(g):
        gt = np.zeros_like(rows)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, rows.shape[1]))
        return (gt,)

    return _node(rows[ids], (table,), grad_fn)


# ---- same-padded 1-D convolution ---------------------------------------------

def _im2col(x, w):
    """(B, T, d_e) → (B·T, w·d_e): row (b, t) holds positions t-w//2 .. t+w//2
    of row b, zeros beyond either end of the row."""
    n, t, d_e = x.shape
    xp = np.zeros((n, t + w - 1, d_e))
    xp[:, w // 2 : w // 2 + t] = x
    return np.concatenate([xp[:, j : j + t] for j in range(w)], axis=2).reshape(n * t, -1)


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Same-length 1-D convolution over the positions of each row (zero
    padded, odd width) as one im2col GEMM: x (B, T, d_e), kernels
    (d_c, w, d_e), bias (d_c,) → linear (B, T, d_c). A zero row of x adds
    nothing to its neighbours' outputs. The backward pass rebuilds the
    im2col matrix rather than the graph holding it.
    """
    xs, k, b = x.data, kernels.data, bias.data
    if xs.ndim != 3 or k.ndim != 3 or b.shape != k.shape[:1] or xs.shape[2] != k.shape[2]:
        raise ShapeError(f"conv1d: expected x (B,T,d_e), kernels (d_c,w,d_e), bias (d_c,);"
                         f" got {xs.shape}, {k.shape}, {b.shape}")
    d_c, w, d_e = k.shape
    if w % 2 == 0:
        raise ShapeError(f"conv1d: kernel width {w} is even, same-padding ill-defined")
    out = _im2col(xs, w) @ k.reshape(d_c, -1).T
    out += b

    def grad_fn(g):
        n, t, _ = xs.shape
        g2 = g.reshape(-1, d_c)
        gk = (g2.T @ _im2col(xs, w)).reshape(k.shape)
        gcols = (g2 @ k.reshape(d_c, -1)).reshape(n, t, w, d_e)
        gxp = np.zeros((n, t + w - 1, d_e))
        for j in range(w):
            gxp[:, j : j + t] += gcols[:, :, j]
        return gxp[:, w // 2 : w // 2 + t], gk, g2.sum(axis=0)

    return _node(out.reshape(xs.shape[:2] + (d_c,)), (x, kernels, bias), grad_fn)


# ---- clamp to the unit interval ------------------------------------------------

def clamp01(a: Tensor) -> Tensor:
    return _node(np.clip(a.data, 0.0, 1.0), (a,),
                 lambda g: (g * ((a.data >= 0.0) & (a.data <= 1.0)),))


# ---- binary cross-entropy -------------------------------------------------------

def bce_loss(probs: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy, probabilities clamped to [eps, 1-eps]. The
    backward pass clips again rather than the graph holding the clipped
    copy."""
    p, y = probs.data, targets.data
    if p.shape != y.shape:
        raise ShapeError(f"bce: shapes differ, {p.shape} vs {y.shape}")
    q = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    out = -np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q))

    def grad_fn(g):
        q = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
        inside = (p >= PROB_EPS) & (p <= 1.0 - PROB_EPS)
        return g * inside * (-y / q + (1.0 - y) / (1.0 - q)) / p.size, None

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
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
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
    return {node: grads.get(id(node), np.zeros_like(node.data))
            for node in order if node.requires_grad}


def grad_check(
    f: Callable[..., Tensor],
    inputs: Iterable[Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per coordinate: |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    Only requires_grad inputs are perturbed.
    """
    inputs = list(inputs)
    loss = f(*inputs)
    analytic = backward(loss)
    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        # inputs the loss never touched have identically-zero gradient
        grad = analytic.get(t, np.zeros_like(t.data)).reshape(-1)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(*inputs).data)
            flat[i] = orig - eps
            lo = float(f(*inputs).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            rel = abs(grad[i] - numeric) / max(1e-8, abs(grad[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst
