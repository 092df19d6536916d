"""Dense float64 arrays with reverse-mode differentiation.

A deliberately small engine with exactly the primitives the classifiers and
the reranker need. A mini-batch of notes is one (B, T, ...) array, so one
graph and one `backward` serve the whole batch: `add` and `mul` broadcast
their second operand, `matmul` applies a rank-2 weight to every position.
Applying a primitive builds a computation graph; `backward` walks it in
reverse for exact gradients. `grad_check` verifies any scalar-valued
composite against central differences.

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

    `data` is the backing ndarray (row-major). Leaf tensors are created
    directly; non-leaf tensors remember the primitive, parents and
    parameters that produced them.
    """

    __slots__ = ("data", "requires_grad", "op", "parents", "params")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op: str | None = None
        self.parents: tuple[Tensor, ...] = ()
        self.params: dict | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


# --------------------------------------------------------------------------
# Primitive registry. Forward functions are pure (arrays in, array out);
# backward functions receive the upstream gradient, the cached output and
# the input arrays.
# --------------------------------------------------------------------------

_FORWARD: dict[str, Callable] = {}
_BACKWARD: dict[str, Callable] = {}


def _register(name: str, forward: Callable, backward: Callable) -> None:
    _FORWARD[name] = forward
    _BACKWARD[name] = backward


def _apply(name: str, inputs: tuple[Tensor, ...], params: dict) -> Tensor:
    out = Tensor(_FORWARD[name](*(t.data for t in inputs), **params))
    if _grad_enabled:
        out.op, out.parents, out.params = name, inputs, params
    return out


# ---- add / mul / scale ----------------------------------------------------

def _check_broadcast(name, a, b):
    """`b` must broadcast to the shape of `a` (a bias row, a batch axis)."""
    if b.ndim > a.ndim or any(m not in (1, n) for m, n in zip(b.shape[::-1], a.shape[::-1])):
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g, shape):
    """Sum a gradient over the axes along which `shape` was broadcast."""
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    return g.sum(axis=tuple(i for i, n in enumerate(shape) if n < g.shape[i]), keepdims=True)


def _add_fwd(a, b):
    _check_broadcast("add", a, b)
    return a + b


def _add_bwd(g, out, a, b):
    return g, _unbroadcast(g, b.shape)


def _mul_fwd(a, b):
    _check_broadcast("mul", a, b)
    return a * b


def _mul_bwd(g, out, a, b):
    return g * b, _unbroadcast(g * a, b.shape)


def _scale_fwd(a, *, c):
    return a * c


def _scale_bwd(g, out, a, *, c):
    return (g * c,)


_register("add", _add_fwd, _add_bwd)
_register("mul", _mul_fwd, _mul_bwd)
_register("scale", _scale_fwd, _scale_bwd)


# ---- matmul / transpose ----------------------------------------------------

def _swap(a):
    return np.swapaxes(a, -1, -2)


def _flat_matmul(a, b):
    """(..., k) @ (k, n) as one GEMM over every leading position."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])


def _matmul_fwd(a, b):
    if (b.ndim < 2 or a.shape[-1:] != b.shape[-2:-1]
            or b.ndim > 2 and a.shape[:-2] != b.shape[:-2]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _flat_matmul(a, b) if b.ndim == 2 else a @ b


def _matmul_bwd(g, out, a, b):
    if b.ndim == 2:
        return _flat_matmul(g, b.T), a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return g @ _swap(b), _swap(a) @ g


def _transpose_fwd(a):
    if a.ndim < 2:
        raise ShapeError(f"transpose: expected rank ≥ 2, got shape {a.shape}")
    return np.ascontiguousarray(_swap(a))


def _transpose_bwd(g, out, a):
    return (np.ascontiguousarray(_swap(g)),)


_register("matmul", _matmul_fwd, _matmul_bwd)
_register("transpose", _transpose_fwd, _transpose_bwd)


# ---- reductions -------------------------------------------------------------

def _sum_fwd(a, *, axis):
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"sum: axis {axis} out of range for shape {a.shape}")
    return np.sum(a, axis=axis)


def _sum_bwd(g, out, a, *, axis):
    if axis is None:
        return (np.full_like(a, g),)
    return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)


_register("sum", _sum_fwd, _sum_bwd)


# ---- elementwise nonlinearities ---------------------------------------------

def _tanh_fwd(a):
    return np.tanh(a)


def _tanh_bwd(g, out, a):
    return (g * (1.0 - out * out),)


def _sigmoid_fwd(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def _sigmoid_bwd(g, out, a):
    return (g * out * (1.0 - out),)


_register("tanh", _tanh_fwd, _tanh_bwd)
_register("sigmoid", _sigmoid_fwd, _sigmoid_bwd)


# ---- softmax ----------------------------------------------------------------

def _expand_mask(mask: np.ndarray, shape: tuple[int, ...], axis: int) -> np.ndarray:
    """A (L,) mask over the softmax axis, or a (B, L) mask over the leading
    batch axis and the softmax axis, broadcast to the full shape."""
    kept = (axis,) if mask.ndim == 1 else (0, axis)
    if axis in kept[:-1] or mask.shape != tuple(shape[i] for i in kept):
        raise ShapeError(
            f"softmax: mask of shape {mask.shape} does not match axes {kept} of {shape}"
        )
    ix = tuple(slice(None) if i in kept else None for i in range(len(shape)))
    return np.broadcast_to(mask[ix], shape)


def _softmax_fwd(a, *, axis, mask=None):
    if axis >= a.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
    z = a
    if mask is not None:
        full = _expand_mask(mask, a.shape, axis)
        if not mask.any(axis=-1).all():
            raise EmptySourceError("softmax: every position along the axis is masked")
        z = np.where(full, a, -np.inf)
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_bwd(g, out, a, *, axis, mask=None):
    inner = (g * out).sum(axis=axis, keepdims=True)
    return (out * (g - inner),)


_register("softmax", _softmax_fwd, _softmax_bwd)


# ---- attention pooling ----------------------------------------------------------
# One primitive, so the graph keeps only scores and values: the weights are
# recomputed in the backward pass instead of being held for every batch.

def _pool_fwd(scores, values, *, mask):
    if scores.ndim != 3 or values.shape != scores.shape:
        raise ShapeError(f"attention_pool: expected two equal (B,T,N) shapes, "
                         f"got {scores.shape} and {values.shape}")
    return (_softmax_fwd(scores, axis=1, mask=mask) * values).sum(axis=1)


def _pool_bwd(g, out, scores, values, *, mask):
    weights = _softmax_fwd(scores, axis=1, mask=mask)
    g = g[:, None]
    return _softmax_bwd(g * values, weights, scores, axis=1)[0], g * weights


_register("attention_pool", _pool_fwd, _pool_bwd)


# ---- embedding lookup --------------------------------------------------------

def _embed_fwd(table, *, ids):
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be rank-2, got {table.shape}")
    bad = (ids < 0) | (ids >= table.shape[0])
    if bad.any():
        raise ContractError(f"embedding: ids {np.unique(ids[bad]).tolist()} out of "
                            f"range [0, {table.shape[0]})")
    return table[ids]


def _embed_bwd(g, out, table, *, ids):
    gt = np.zeros_like(table)
    np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
    return (gt,)


_register("embed", _embed_fwd, _embed_bwd)


# ---- same-padded 1-D convolution ---------------------------------------------

def _im2col(x, w):
    """(B, T, d_e) → (B·T, w·d_e): row (b, t) holds positions t-w//2 .. t+w//2
    of row b, zeros beyond either end of the row."""
    n, t, d_e = x.shape
    xp = np.zeros((n, t + w - 1, d_e))
    xp[:, w // 2 : w // 2 + t] = x
    return np.concatenate([xp[:, j : j + t] for j in range(w)], axis=2).reshape(n * t, -1)


def _conv1d_fwd(x, k, b):
    if x.ndim != 3 or k.ndim != 3 or b.shape != k.shape[:1] or x.shape[2] != k.shape[2]:
        raise ShapeError(f"conv1d: expected x (B,T,d_e), kernels (d_c,w,d_e), bias (d_c,);"
                         f" got {x.shape}, {k.shape}, {b.shape}")
    d_c, w, d_e = k.shape
    if w % 2 == 0:
        raise ShapeError(f"conv1d: kernel width {w} is even, same-padding ill-defined")
    out = _im2col(x, w) @ k.reshape(d_c, -1).T
    out += b
    return out.reshape(x.shape[:2] + (d_c,))


def _conv1d_bwd(g, out, x, k, b):
    d_c, w, d_e = k.shape
    n, t, _ = x.shape
    g2 = g.reshape(-1, d_c)
    gk = (g2.T @ _im2col(x, w)).reshape(k.shape)
    gcols = (g2 @ k.reshape(d_c, -1)).reshape(n, t, w, d_e)
    gxp = np.zeros((n, t + w - 1, d_e))
    for j in range(w):
        gxp[:, j : j + t] += gcols[:, :, j]
    return gxp[:, w // 2 : w // 2 + t], gk, g2.sum(axis=0)


_register("conv1d", _conv1d_fwd, _conv1d_bwd)


# ---- clamp to the unit interval ------------------------------------------------

def _clamp01_fwd(a):
    return np.clip(a, 0.0, 1.0)


def _clamp01_bwd(g, out, a):
    return (g * ((a >= 0.0) & (a <= 1.0)),)


_register("clamp01", _clamp01_fwd, _clamp01_bwd)


# ---- binary cross-entropy -------------------------------------------------------

def _bce_fwd(p, y):
    if p.shape != y.shape:
        raise ShapeError(f"bce: shapes differ, {p.shape} vs {y.shape}")
    q = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    return np.asarray(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)))


def _bce_bwd(g, out, p, y):
    q = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    inside = (p >= PROB_EPS) & (p <= 1.0 - PROB_EPS)
    gp = g * inside * (-y / q + (1.0 - y) / (1.0 - q)) / p.size
    return gp, None


_register("bce", _bce_fwd, _bce_bwd)


# --------------------------------------------------------------------------
# Public functional surface.
# --------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; `b` may broadcast to the shape of `a`."""
    return _apply("add", (a, b), {})


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; `b` may broadcast to the shape of `a`."""
    return _apply("mul", (a, b), {})


def scale(a: Tensor, c: float) -> Tensor:
    return _apply("scale", (a,), {"c": float(c)})


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes. A rank-2 `b` is shared by every
    leading (batch) position of `a`, in one GEMM; a higher-rank `b` must have
    the same leading axes as `a`."""
    return _apply("matmul", (a, b), {})


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return _apply("transpose", (a,), {})


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    return _apply("sum", (a,), {"axis": axis})


def tanh(a: Tensor) -> Tensor:
    return _apply("tanh", (a,), {})


def sigmoid(a: Tensor) -> Tensor:
    return _apply("sigmoid", (a,), {})


def softmax(a: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Overflow-safe softmax along `axis`.

    `mask` is an optional boolean array over that axis, (L,), or over the
    leading batch axis and that axis, (B, L); masked-out positions receive
    zero weight. Raises EmptySourceError when some row has nothing left to
    attend to.
    """
    ax = axis % max(a.data.ndim, 1)
    m = None if mask is None else np.asarray(mask, dtype=bool)
    return _apply("softmax", (a,), {"axis": ax, "mask": m})


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: an int array of ids of any shape -> that shape plus one
    axis of `table` rows. Gradient scatters back."""
    return _apply("embed", (table,), {"ids": np.asarray(ids, dtype=np.int64)})


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Same-length 1-D convolution over the positions of each row (zero
    padded, odd width) as one im2col GEMM: x (B, T, d_e), kernels
    (d_c, w, d_e), bias (d_c,) → linear (B, T, d_c). A zero row of x adds
    nothing to its neighbours' outputs.
    """
    return _apply("conv1d", (x, kernels, bias), {})


def clamp01(a: Tensor) -> Tensor:
    return _apply("clamp01", (a,), {})


def bce_loss(probs: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy, probabilities clamped to [eps, 1-eps]."""
    return _apply("bce", (probs, targets), {})


def attention_pool(scores: Tensor, values: Tensor, mask: np.ndarray) -> Tensor:
    """out[b, n] = Σ_t a[b, t, n] · values[b, t, n], a = softmax over t of
    scores (both (B, T, N)) with the (B, T) mask: masked positions weigh
    exactly zero; a row with no position left raises EmptySourceError."""
    return _apply("attention_pool", (scores, values), {"mask": np.asarray(mask, dtype=bool)})


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
        if node.op is None:
            if g is not None:
                grads[id(node)] = g  # keep leaf gradient
            continue
        if g is None:
            continue
        parent_grads = _BACKWARD[node.op](
            g, node.data, *(p.data for p in node.parents), **node.params
        )
        if not isinstance(parent_grads, tuple):
            parent_grads = (parent_grads,)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None or (parent.op is None and not parent.requires_grad):
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
