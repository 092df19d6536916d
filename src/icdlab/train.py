"""Optimization loops with dev-set early stopping, evaluation plumbing,
reference baselines, and the training-data-fraction experiment.

Training minimizes mean binary cross-entropy with per-example gradient
graphs averaged over each mini-batch. After every epoch the dev split is
scored; the parameters with the best dev Recall@5 win, where the untrained
starting point counts as the epoch-0 candidate (for the zero-initialized
reranker that candidate IS the base model, so a reranker can never leave
training worse than the model it corrects).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .corpus import Encounter, LabelSpace
from .errors import ConfigError, NumericError, ValidationError
from .metrics import Predictions, mean_instance_f1, mean_recall_at_k
from .model import BaseModel, MetadataReranker, frozen_base_outputs
from .preprocess import PAD_ID, UNK_ID, TokenizedNote, Vocabulary, encounter_aux_text, tokenize

# --------------------------------------------------------------------------
# configuration and history
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be ≥ 1")
        if self.patience < 1:
            raise ConfigError("patience must be ≥ 1")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be ≥ 0")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ConfigError("decision_threshold must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    dev_recall_at_5: float
    dev_instance_f1: float
    seconds: float


@dataclass(frozen=True)
class TrainHistory:
    epochs: tuple[EpochStats, ...] = ()

    def to_csv(self) -> str:
        lines = ["epoch,loss,dev_r5,dev_if1,seconds"]
        for e in self.epochs:
            lines.append(f"{e.epoch},{e.loss:.6f},{e.dev_recall_at_5:.6f},"
                         f"{e.dev_instance_f1:.6f},{e.seconds:.3f}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------


class Adam:
    """Adaptive-moment gradient descent over named parameter tensors."""

    def __init__(self, params: dict[str, ad.Tensor], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr, self.b1, self.b2, self.eps = learning_rate, beta1, beta2, eps
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.t = 0

    def step(self, grads) -> None:
        self.t += 1
        bias1 = 1.0 - self.b1**self.t
        bias2 = 1.0 - self.b2**self.t
        for name, p in self.params.items():
            g = grads.get(p)
            if g is None:
                continue  # parameter untouched by this batch's losses
            m, v = self.m[name], self.v[name]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def _snapshot(params: dict[str, ad.Tensor]) -> dict[str, np.ndarray]:
    return {k: t.data.copy() for k, t in params.items()}


def _restore(params: dict[str, ad.Tensor], snap: dict[str, np.ndarray]) -> None:
    for k, t in params.items():
        t.data = snap[k].copy()


# --------------------------------------------------------------------------
# targets and evaluation records
# --------------------------------------------------------------------------


def note_for_encounter(enc: Encounter, vocab: Vocabulary, max_len: int = 512) -> TokenizedNote:
    """Tokenize an encounter's note for model consumption.

    A blank note (some encounters carry codes with no prose) becomes a single
    unknown token instead of pure padding, so attention always has one
    position to land on and no document drops out of the denominators.
    """
    note = tokenize(enc.text, vocab, max_len, encounter=enc)
    if all(i == PAD_ID for i in note.token_ids):
        return TokenizedNote((UNK_ID,), enc)
    return note


def label_targets(note: TokenizedNote, labels: LabelSpace) -> np.ndarray:
    """0/1 target vector over the label space; codes outside it get no entry."""
    if note.encounter is None:
        raise ValidationError("note carries no encounter; cannot derive targets")
    y = np.zeros(len(labels))
    for code in sorted(note.encounter.codes):
        if code in labels:
            y[labels.index(code)] = 1.0
    return y


def frequency_bucket(codes, labels: LabelSpace) -> str:
    """Bucket a document by its rarest gt code's train count."""
    lowest = min(labels.train_count(c) for c in codes)
    if lowest == 0:
        return "0"
    if lowest < 10:
        return "1-9"
    if lowest < 100:
        return "10-99"
    return "100+"


def _first_visit_flags(notes) -> list[bool]:
    # a patient's chronologically earliest evaluated encounter is "first";
    # date ties resolve to the earliest in input order
    earliest: dict[str, object] = {}
    for n in notes:
        e = n.encounter
        if e.patient_id not in earliest or e.date < earliest[e.patient_id]:
            earliest[e.patient_id] = e.date
    flags = []
    claimed: set[str] = set()
    for n in notes:
        e = n.encounter
        first = e.date == earliest[e.patient_id] and e.patient_id not in claimed
        if first:
            claimed.add(e.patient_id)
        flags.append(first)
    return flags


def _predictions(probs, notes, labels: LabelSpace) -> Predictions:
    """One score row per note, with the notes' targets and context columns."""
    encs = [n.encounter for n in notes]
    gt = np.array([label_targets(n, labels) for n in notes],
                  dtype=bool).reshape(len(notes), len(labels))
    return Predictions(
        probs=np.array(probs, dtype=np.float64).reshape(gt.shape),
        gt=gt,
        n_unseen=np.array([len(e.codes) for e in encs], dtype=np.int64) - gt.sum(axis=1),
        dept=[e.dept for e in encs],
        first_visit=_first_visit_flags(notes),
        freq_bucket=[frequency_bucket(e.codes, labels) for e in encs],
        encounters=encs)


def predict_records(model: BaseModel, notes, labels: LabelSpace) -> Predictions:
    notes = list(notes)
    return _predictions([model.predict_probs(n) for n in notes], notes, labels)


def predict_records_reranked(base: BaseModel, reranker: MetadataReranker, notes,
                             labels: LabelSpace, vocab: Vocabulary) -> Predictions:
    """Predictions carrying the reranker's pre-clamp residual scores.

    Ranking must use unclamped scores (no ties at the bounds); every decision
    threshold strictly inside (0,1) selects the same set either way.
    """
    items = [_RerankItem.build(base, n, labels, vocab) for n in notes]
    return _reranked_records(reranker, items, labels)


# --------------------------------------------------------------------------
# shared loop machinery
# --------------------------------------------------------------------------


def _batch_mean_grads(loss_of, items, epoch: int, batch_index: int):
    """Mean loss and mean gradients over per-example graphs."""
    total: dict = {}
    loss_sum = 0.0
    for item in items:
        loss = loss_of(item)
        loss_sum += float(loss.data)
        for t, g in ad.backward(loss).items():
            if t in total:
                total[t] += g
            else:
                total[t] = g.copy()
    mean_loss = loss_sum / len(items)
    if not np.isfinite(mean_loss):
        raise NumericError(f"non-finite training loss in batch {batch_index} "
                           f"of epoch {epoch}")
    inv = 1.0 / len(items)
    return mean_loss, {t: g * inv for t, g in total.items()}


def _fit(params: dict[str, ad.Tensor], items, loss_of, dev_scores, config: TrainConfig):
    """The epoch loop shared by base and reranker training."""
    if not items:
        raise ValidationError("training set is empty")
    if config.max_epochs == 0:
        return _snapshot(params), TrainHistory()
    opt = Adam(params, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    best_r5, _ = dev_scores()
    best_epoch = 0
    best_snap = _snapshot(params)
    history = []
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(items))
        losses = []
        for b, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = [items[i] for i in order[lo:lo + config.batch_size]]
            loss, grads = _batch_mean_grads(loss_of, batch, epoch, b)
            opt.step(grads)
            losses.append(loss)
        r5, if1 = dev_scores()
        history.append(EpochStats(epoch, float(np.mean(losses)), r5, if1,
                                  time.perf_counter() - started))
        if r5 > best_r5:
            best_r5, best_epoch = r5, epoch
            best_snap = _snapshot(params)
        elif epoch - best_epoch >= config.patience:
            break
    _restore(params, best_snap)
    return best_snap, TrainHistory(tuple(history))


# --------------------------------------------------------------------------
# base-model training
# --------------------------------------------------------------------------


def train(model: BaseModel, train_notes, dev_notes, labels: LabelSpace,
          config: TrainConfig):
    """Returns (best parameter snapshot, history); the model is left holding
    the snapshot."""
    train_notes, dev_notes = list(train_notes), list(dev_notes)
    if not dev_notes:
        raise ValidationError("dev set is empty; early stopping needs one")
    pairs = [(n, ad.tensor(label_targets(n, labels))) for n in train_notes]

    def loss_of(pair):
        note, y = pair
        probs, _, _ = model.forward(note)
        return ad.bce_loss(probs, y)

    def dev_scores():
        records = predict_records(model, dev_notes, labels)
        return (mean_recall_at_k(records, 5),
                mean_instance_f1(records, config.decision_threshold))

    return _fit(model.params, pairs, loss_of, dev_scores, config)


# --------------------------------------------------------------------------
# reranker training over cached frozen-base outputs
# --------------------------------------------------------------------------


@dataclass
class _RerankItem:
    outputs: tuple  # (P, H, note mask, H_aux, aux mask) as constants
    enc: Encounter
    y: np.ndarray
    note: TokenizedNote

    @classmethod
    def build(cls, base: BaseModel, note: TokenizedNote, labels: LabelSpace,
              vocab: Vocabulary) -> "_RerankItem":
        enc = note.encounter
        if enc is None:
            raise ValidationError("note carries no encounter; reranker needs metadata")
        aux = tokenize(encounter_aux_text(enc), vocab, encounter=enc)
        outputs = frozen_base_outputs(base, note, aux)
        return cls(outputs, enc, label_targets(note, labels), note)


def _rerank_forward(reranker: MetadataReranker, item: _RerankItem):
    p, h, mask, h_aux, aux_mask = item.outputs
    return reranker.forward(p, h, mask, h_aux, aux_mask, item.enc)


def _reranked_records(reranker: MetadataReranker, items, labels: LabelSpace) -> Predictions:
    with ad.no_grad():
        probs = [_rerank_forward(reranker, item)[1].data for item in items]
    return _predictions(probs, [i.note for i in items], labels)


def train_reranker(base: BaseModel, reranker: MetadataReranker, train_notes,
                   dev_notes, labels: LabelSpace, vocab: Vocabulary,
                   config: TrainConfig):
    """Optimizes only the reranker; base outputs are computed once and reused
    every epoch (the frozen contract makes them constants)."""
    train_notes, dev_notes = list(train_notes), list(dev_notes)
    if not dev_notes:
        raise ValidationError("dev set is empty; early stopping needs one")
    items = [_RerankItem.build(base, n, labels, vocab) for n in train_notes]
    dev_items = [_RerankItem.build(base, n, labels, vocab) for n in dev_notes]

    def loss_of(item):
        clamped, _ = _rerank_forward(reranker, item)
        return ad.bce_loss(clamped, ad.tensor(item.y))

    def dev_scores():
        records = _reranked_records(reranker, dev_items, labels)
        return (mean_recall_at_k(records, 5),
                mean_instance_f1(records, config.decision_threshold))

    return _fit(reranker.params, items, loss_of, dev_scores, config)


# --------------------------------------------------------------------------
# baselines
# --------------------------------------------------------------------------


def uniform_baseline_records(notes, labels: LabelSpace, seed: int = 0) -> Predictions:
    """Scores every label uniformly at random, fresh per document."""
    notes = list(notes)
    probs = np.random.default_rng(seed).uniform(size=(len(notes), len(labels)))
    return _predictions(probs, notes, labels)


def marginal_baseline_records(notes, labels: LabelSpace) -> Predictions:
    """Scores every document with the train-frequency ranking of the codes."""
    counts = np.asarray([labels.train_count(c) for c in labels.codes], dtype=np.float64)
    probs = counts / max(counts.max(), 1.0)
    notes = list(notes)
    return _predictions(np.tile(probs, (len(notes), 1)), notes, labels)


# --------------------------------------------------------------------------
# subsampling and the data-fraction experiment
# --------------------------------------------------------------------------


def subsample_train(train, fraction: float, seed: int = 0):
    """Uniform sample without replacement of ⌈fraction·n⌉ items, original
    order preserved."""
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction}")
    train = list(train)
    n_keep = math.ceil(fraction * len(train))
    if n_keep >= len(train):
        return train
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(len(train), size=n_keep, replace=False))
    return [train[i] for i in picked]


@dataclass(frozen=True)
class FractionResult:
    fraction: float
    recall_at_5: float
    instance_f1: float
    relative_recall_at_5: float
    relative_instance_f1: float


def data_fraction_experiment(make_model, train_notes, dev_notes, labels: LabelSpace,
                             fractions, config: TrainConfig,
                             eval_notes=None) -> list[FractionResult]:
    """Trains one freshly-initialized model per training-set fraction and
    reports scores absolute and relative to the full-data run.

    Scoring uses eval_notes when given (a held-out test split), else the dev
    split that also drives early stopping."""
    fractions = sorted({float(f) for f in fractions})
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValidationError("every fraction must lie in (0, 1]")
    if 1.0 not in fractions:
        raise ValidationError("fraction 1.0 is required for normalization")
    scored = list(dev_notes) if eval_notes is None else list(eval_notes)
    scores: dict[float, tuple[float, float]] = {}
    for i, f in enumerate(fractions):
        subset = subsample_train(train_notes, f, seed=config.seed + i)
        model = make_model()
        train(model, subset, dev_notes, labels, config)
        records = predict_records(model, scored, labels)
        scores[f] = (mean_recall_at_k(records, 5),
                     mean_instance_f1(records, config.decision_threshold))
    full_r5, full_if1 = scores[1.0]
    return [FractionResult(f, r5, if1,
                           r5 / full_r5 if full_r5 else 0.0,
                           if1 / full_if1 if full_if1 else 0.0)
            for f, (r5, if1) in scores.items()]


def fraction_csv(rows) -> str:
    lines = ["fraction,recall_at_5,instance_f1,relative_recall_at_5,relative_instance_f1"]
    for r in rows:
        lines.append(f"{r.fraction:.4f},{r.recall_at_5:.6f},{r.instance_f1:.6f},"
                     f"{r.relative_recall_at_5:.6f},{r.relative_instance_f1:.6f}")
    return "\n".join(lines) + "\n"
