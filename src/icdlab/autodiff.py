"""Dense float64 arrays with reverse-mode differentiation.

A deliberately small engine: rank-0/1/2 arrays, no broadcasting beyond
bias-row addition, and exactly the primitives the classifiers and the
reranker need. Applying a primitive builds a computation graph; `backward`
walks it in reverse for exact gradients. `grad_check` verifies any
scalar-valued composite against central differences.

Everything is float64. Forward passes are deterministic: identical inputs
and parameters produce bitwise-identical outputs.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, EmptySourceError, ShapeError

PROB_EPS = 1e-12  # clamp applied to probabilities before logs

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (frozen evaluation)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float64 array plus its position in the computation graph.

    `data` is the backing ndarray (row-major), `values` a flat view of it.
    Leaf tensors are created directly; non-leaf tensors remember the
    primitive, parents and parameters that produced them.
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

    @property
    def values(self) -> np.ndarray:
        return self.data.reshape(-1)

    @property
    def is_leaf(self) -> bool:
        return self.op is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.op or ("param" if self.requires_grad else "const")
        return f"Tensor(shape={self.shape}, {tag})"


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

def _add_fwd(a, b):
    if a.shape == b.shape:
        return a + b
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return a + b  # bias row added to every row
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def _add_bwd(g, out, a, b):
    gb = g if b.shape == g.shape else g.sum(axis=0)
    return g, gb


def _mul_fwd(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return a * b


def _mul_bwd(g, out, a, b):
    return g * b, g * a


def _scale_fwd(a, *, c):
    return a * c


def _scale_bwd(g, out, a, *, c):
    return (g * c,)


_register("add", _add_fwd, _add_bwd)
_register("mul", _mul_fwd, _mul_bwd)
_register("scale", _scale_fwd, _scale_bwd)


# ---- matmul / transpose ----------------------------------------------------

def _matmul_fwd(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return a @ b


def _matmul_bwd(g, out, a, b):
    return g @ b.T, a.T @ g


def _transpose_fwd(a):
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected rank-2, got shape {a.shape}")
    return np.ascontiguousarray(a.T)


def _transpose_bwd(g, out, a):
    return (np.ascontiguousarray(g.T),)


_register("matmul", _matmul_fwd, _matmul_bwd)
_register("transpose", _transpose_fwd, _transpose_bwd)


# ---- reductions -------------------------------------------------------------

def _sum_fwd(a, *, axis):
    if axis is not None and axis >= a.ndim:
        raise ShapeError(f"sum: axis {axis} out of range for shape {a.shape}")
    return np.sum(a, axis=axis)


def _sum_bwd(g, out, a, *, axis):
    if axis is None:
        return (np.full_like(a, g),)
    if axis == 0:
        return (np.broadcast_to(g, a.shape).copy(),)
    return (np.broadcast_to(g[:, None], a.shape).copy(),)


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
    if mask.ndim != 1 or mask.shape[0] != shape[axis]:
        raise ShapeError(
            f"softmax: mask length {mask.shape} does not match axis {axis} of {shape}"
        )
    ix = [None] * len(shape)
    ix[axis] = slice(None)
    return np.broadcast_to(mask[tuple(ix)], shape)


def _softmax_fwd(a, *, axis, mask=None):
    if axis >= a.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
    z = a
    if mask is not None:
        if not mask.any():
            raise EmptySourceError("softmax: every position along the axis is masked")
        z = np.where(_expand_mask(mask, a.shape, axis), a, -np.inf)
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_bwd(g, out, a, *, axis, mask=None):
    inner = (g * out).sum(axis=axis, keepdims=True)
    return (out * (g - inner),)


_register("softmax", _softmax_fwd, _softmax_bwd)


# ---- embedding lookup --------------------------------------------------------

def _embed_fwd(table, *, ids):
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be rank-2, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(
            f"embedding: id out of range [0, {table.shape[0]}) in {idx.tolist()}"
        )
    return table[idx].copy()


def _embed_bwd(g, out, table, *, ids):
    gt = np.zeros_like(table)
    np.add.at(gt, np.asarray(ids, dtype=np.int64), g)
    return (gt,)


_register("embed", _embed_fwd, _embed_bwd)


# ---- same-padded 1-D convolution ---------------------------------------------

def _conv1d_fwd(x, k, b):
    if x.ndim != 2 or k.ndim != 3 or b.ndim != 1:
        raise ShapeError(
            f"conv1d: expected x (T,d_e), kernels (d_c,w,d_e), bias (d_c,);"
            f" got {x.shape}, {k.shape}, {b.shape}"
        )
    d_c, w, d_e = k.shape
    if w % 2 == 0:
        raise ShapeError(f"conv1d: kernel width {w} is even, same-padding ill-defined")
    if x.shape[1] != d_e or b.shape[0] != d_c:
        raise ShapeError(f"conv1d: incompatible shapes {x.shape}, {k.shape}, {b.shape}")
    t = x.shape[0]
    pad = w // 2
    xp = np.zeros((t + w - 1, d_e))
    xp[pad : pad + t] = x
    out = np.tile(b, (t, 1))
    for j in range(w):
        out += xp[j : j + t] @ k[:, j, :].T
    return out


def _conv1d_bwd(g, out, x, k, b):
    d_c, w, d_e = k.shape
    t = x.shape[0]
    pad = w // 2
    xp = np.zeros((t + w - 1, d_e))
    xp[pad : pad + t] = x
    gk = np.empty_like(k)
    gxp = np.zeros_like(xp)
    for j in range(w):
        gk[:, j, :] = g.T @ xp[j : j + t]
        gxp[j : j + t] += g @ k[:, j, :]
    return gxp[pad : pad + t], gk, g.sum(axis=0)


_register("conv1d", _conv1d_fwd, _conv1d_bwd)


# ---- concatenation -----------------------------------------------------------

def _concat_fwd(*arrays, axis):
    return np.concatenate(arrays, axis=axis)


def _concat_bwd(g, out, *arrays, axis):
    sizes = [a.shape[axis] for a in arrays]
    split_at = np.cumsum(sizes)[:-1]
    return tuple(np.ascontiguousarray(p) for p in np.split(g, split_at, axis=axis))


_register("concat", _concat_fwd, _concat_bwd)


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
    """Elementwise sum; also accepts (m,n) + (n,) bias-row addition."""
    return _apply("add", (a, b), {})


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _apply("mul", (a, b), {})


def scale(a: Tensor, c: float) -> Tensor:
    return _apply("scale", (a,), {"c": float(c)})


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _apply("matmul", (a, b), {})


def transpose(a: Tensor) -> Tensor:
    return _apply("transpose", (a,), {})


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    return _apply("sum", (a,), {"axis": axis})


def tanh(a: Tensor) -> Tensor:
    return _apply("tanh", (a,), {})


def sigmoid(a: Tensor) -> Tensor:
    return _apply("sigmoid", (a,), {})


def softmax(a: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Overflow-safe softmax along `axis`.

    `mask` is an optional boolean array over that axis; masked-out
    positions receive zero weight. Raises EmptySourceError when nothing
    is left to attend to.
    """
    ax = axis % max(a.data.ndim, 1)
    m = None if mask is None else np.asarray(mask, dtype=bool)
    return _apply("softmax", (a,), {"axis": ax, "mask": m})


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Row lookup: ids -> stacked rows of `table`. Gradient scatters back."""
    return _apply("embed", (table,), {"ids": tuple(int(i) for i in ids)})


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Same-length 1-D convolution over positions (zero padded, odd width).

    x is (T, d_e), kernels (d_c, w, d_e), bias (d_c,); output is (T, d_c),
    linear (any nonlinearity is the caller's).
    """
    return _apply("conv1d", (x, kernels, bias), {})


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    return _apply("concat", tuple(parts), {"axis": axis})


def clamp01(a: Tensor) -> Tensor:
    return _apply("clamp01", (a,), {})


def bce_loss(probs: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy, probabilities clamped to [eps, 1-eps]."""
    return _apply("bce", (probs, targets), {})


def multi_head_attention(
    q_in: Tensor,
    k_in: Tensor,
    v_in: Tensor,
    w_q: Sequence[Tensor],
    w_k: Sequence[Tensor],
    w_v: Sequence[Tensor],
    w_o: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Scaled dot-product attention with per-head projections.

    Per head h: softmax(q W_q[h] (k W_k[h])^T / sqrt(d_head)) v W_v[h];
    heads are concatenated column-wise and projected by `w_o`. `mask`
    selects which source rows may be attended to.
    """
    if k_in.shape[0] == 0 or v_in.shape[0] == 0:
        raise EmptySourceError("attention: source sequence is empty")
    if not (len(w_q) == len(w_k) == len(w_v)) or not w_q:
        raise ContractError("attention: need one (W_q, W_k, W_v) triple per head")
    heads = []
    for hq, hk, hv in zip(w_q, w_k, w_v):
        d_head = hq.shape[1]
        q = matmul(q_in, hq)
        k = matmul(k_in, hk)
        v = matmul(v_in, hv)
        scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d_head))
        attn = softmax(scores, axis=1, mask=mask)
        heads.append(matmul(attn, v))
    joined = heads[0] if len(heads) == 1 else concat(heads, axis=1)
    return matmul(joined, w_o)


# --------------------------------------------------------------------------
# Reverse pass.
# --------------------------------------------------------------------------

class GradientMap(dict):
    """Maps each participating requires_grad tensor to its gradient array."""


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


def backward(loss: Tensor) -> GradientMap:
    """Exact reverse-mode gradients of a scalar loss.

    Returns a GradientMap with one entry per requires_grad tensor that
    participated in the computation, each gradient matching the tensor's
    shape.
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
            if pg is None or (parent.is_leaf and not parent.requires_grad):
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    result = GradientMap()
    for node in order:
        if node.requires_grad:
            result[node] = grads.get(id(node), np.zeros_like(node.data))
    return result


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
