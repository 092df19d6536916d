"""Reference code that only the tests run: a scalar reduction of a tensor,
a central-difference gradient check, and the two baselines that criterion 4
measures the trained models against."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from icdlab.autodiff import Tensor, _node, backward
from icdlab.corpus import LabelSpace
from icdlab.errors import ValidationError
from icdlab.metrics import Predictions
from icdlab.train import Notes


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is not None and not -a.data.ndim <= axis < a.data.ndim:
        raise ValidationError(f"sum: axis {axis} out of range for shape {a.shape}")

    def grad_fn(g):
        if axis is None:
            return (np.full_like(a.data, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _node(np.sum(a.data, axis=axis), (a,), grad_fn)


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


def uniform_baseline_records(notes: Notes, seed: int = 0) -> Predictions:
    """Scores every label uniformly at random, fresh per document."""
    return notes.scored(np.random.default_rng(seed).uniform(size=notes.gt.shape))


def marginal_baseline_records(notes: Notes, labels: LabelSpace) -> Predictions:
    """Scores every document with the train-frequency ranking of the codes."""
    counts = np.asarray([labels.train_count(c) for c in labels.codes], dtype=np.float64)
    probs = counts / max(counts.max(), 1.0)
    return notes.scored(np.tile(probs, (len(notes), 1)))
