"""Optimization loops with dev-set early stopping, evaluation plumbing and
the training-data-fraction experiment.

Training minimizes mean binary cross-entropy over each mini-batch of
notes, packed as one token vector plus the notes' lengths: one graph and
one backward pass per batch. Scoring runs the same batched forward pass in
fixed chunks of SCORE_CHUNK notes. After every epoch the dev split is
scored; the parameters with the best dev Recall@5 win, where the untrained
starting point counts as the epoch-0 candidate (for the zero-initialized
reranker that candidate IS the base model, so a reranker can never leave
training worse than the model it corrects).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .checkpoint import load_params, save_params
from .corpus import LabelSpace, first_empty, first_malformed, first_nul, first_repeat
from .errors import NumericError, ValidationError, reading
from .metrics import Predictions, date_column, mean_instance_f1, mean_recall_at_k
from .model import BaseModel, MetadataReranker
from .preprocess import UNK_ID, Vocabulary, encounter_aux_text, tokenize

SCORE_CHUNK = 32  # notes per no-grad scoring batch (dev scoring and evaluate)

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
            raise ValidationError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be ≥ 1")
        if self.patience < 1:
            raise ValidationError("patience must be ≥ 1")
        if self.max_epochs < 0:
            raise ValidationError("max_epochs must be ≥ 0")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValidationError("decision_threshold must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    dev_recall_at_5: float
    dev_instance_f1: float
    seconds: float


@dataclass(frozen=True)
class TrainHistory:
    """The trained epochs, and the one kept (0: the start) with its dev R@5."""

    epochs: tuple[EpochStats, ...]
    best_epoch: int
    best_dev_recall_at_5: float

    def to_csv(self) -> str:
        lines = ["epoch,loss,dev_r5,dev_if1,seconds"]
        for e in self.epochs:
            lines.append(f"{e.epoch},{e.loss:.6f},{e.dev_recall_at_5:.6f},"
                         f"{e.dev_instance_f1:.6f},{e.seconds:.3f}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator floor


class Adam:
    """Adaptive-moment gradient descent over named parameter tensors."""

    def __init__(self, params: dict[str, ad.Tensor], learning_rate: float = 1e-3):
        self.params = dict(params)
        self.lr = learning_rate
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.t = 0
        self._work = np.empty((2, max((t.data.size for t in params.values()), default=0)))

    def step(self, grads) -> None:
        """In place, bitwise p -= lr · (m / bias1) / (√(v / bias2) + eps)."""
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        for name, p in self.params.items():
            g = grads.get(p)
            if g is None:
                continue  # parameter untouched by this batch's losses
            m, v = self.m[name], self.v[name]
            step, den = (w[:m.size].reshape(m.shape) for w in self._work)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=step)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=den), g, out=den)
            np.sqrt(np.divide(v, bias2, out=den), out=den)
            den += ADAM_EPS
            np.divide(m, bias1, out=step)
            step *= self.lr
            p.data -= np.divide(step, den, out=step)


# --------------------------------------------------------------------------
# a split of notes and its scoring
# --------------------------------------------------------------------------


def frequency_bucket(lowest: np.ndarray) -> np.ndarray:
    """The bucket of each document by its rarest gt code's train count."""
    return np.select([lowest == 0, lowest < 10, lowest < 100], ["0", "1-9", "10-99"], "100+")


def _first_visit_flags(patient_id: np.ndarray, date: np.ndarray) -> np.ndarray:
    # a patient's earliest visit is "first", a date tie going to input order
    order = np.lexsort((date, patient_id))  # stable
    first = np.ones(len(order), dtype=bool)
    first[order[1:]] = patient_id[order[1:]] != patient_id[order[:-1]]
    return first


def _packed(rows, dtype=np.int64) -> tuple[np.ndarray, np.ndarray]:
    """Rows as one (ΣL,) vector plus their (n+1,) offsets (str via a list)."""
    flat = itertools.chain(*rows)
    values = np.array(list(flat), str) if dtype is str else np.fromiter(flat, dtype)
    return values, np.cumsum([0, *map(len, rows)])


def _gather(offsets, values, idx, max_len=None) -> tuple[np.ndarray, np.ndarray]:
    """The rows at `idx` of a packed column, each cut to its first `max_len`
    values if given, concatenated in that order, and their lengths."""
    starts, lengths = offsets[idx], offsets[np.asarray(idx) + 1] - offsets[idx]
    if max_len is not None:
        lengths = np.minimum(lengths, max_len)
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return values[np.arange(lengths.sum()) + shift], lengths


# the packed columns of Notes: (offsets, values)
_CSR = (("offsets", "tokens"), ("code_offsets", "codes"), ("med_offsets", "meds"),
        ("proc_offsets", "procs"), ("aux_offsets", "aux"))
# what a split file holds of Notes: the integer columns and the dates (days
# since 1970) as arrays, the string columns in its header
_STORED_ARRAYS = ("tokens", "offsets", "aux", "aux_offsets", "code_offsets", "med_offsets",
                  "proc_offsets", "date")
_STORED_STRINGS = ("codes", "patient_id", "dept", "doctor", "meds", "procs")
_DATES = np.array(["0001-01-01", "9999-12-31"], "datetime64[D]").astype(np.int64)


@dataclass(frozen=True)
class Notes:
    """One split as columns, built once: per note the ground truth, `doctor`
    and the record columns of Predictions; packed (_CSR, note i of `x` being
    x[x_offsets[i]:x_offsets[i + 1]]) its token ids (`tokens`, `offsets`),
    sorted codes, meds, procs and auxiliary ids. `preprocess` builds each
    split once with `of` and writes it with `save`; later stages `load` it.
    See `scored(probs)`."""

    tokens: np.ndarray
    offsets: np.ndarray
    gt: np.ndarray
    n_unseen: np.ndarray
    dept: np.ndarray
    first_visit: np.ndarray
    freq_bucket: np.ndarray
    patient_id: np.ndarray
    date: np.ndarray
    code_offsets: np.ndarray
    codes: np.ndarray
    doctor: np.ndarray
    med_offsets: np.ndarray
    meds: np.ndarray
    proc_offsets: np.ndarray
    procs: np.ndarray
    aux_offsets: np.ndarray
    aux: np.ndarray

    @classmethod
    def of(cls, encounters, vocab: Vocabulary, labels: LabelSpace,
           max_len: int | None = 512) -> "Notes":
        """A blank note (some encounters carry codes with no prose) becomes a
        single unknown token instead of no token, so attention always has one
        position to land on and no document drops out of the denominators.
        With max_len None every token is kept. Auxiliary ids are never cut."""
        encs = list(encounters)
        tokens, offsets = _packed([tokenize(e.text, vocab, max_len).token_ids or (UNK_ID,)
                                   for e in encs])
        aux_texts = [encounter_aux_text(e) for e in encs]  # mostly empty or repeated
        aux_ids = {t: tokenize(t, vocab, None).token_ids for t in dict.fromkeys(aux_texts)}
        aux, aux_offsets = _packed([aux_ids[t] for t in aux_texts])
        codes, code_offsets = _packed([sorted(e.codes) for e in encs], str)
        if first_empty(code_offsets) is not None:
            raise ValidationError("every encounter needs at least one code")
        meds, med_offsets = _packed([e.meds for e in encs], str)
        procs, proc_offsets = _packed([e.procs for e in encs], str)
        return cls._labelled(
            labels, codes.tolist(), tokens=tokens, offsets=offsets, aux=aux,
            aux_offsets=aux_offsets, codes=codes, code_offsets=code_offsets, meds=meds,
            med_offsets=med_offsets, procs=procs, proc_offsets=proc_offsets,
            patient_id=np.array([e.patient_id for e in encs], dtype=str),
            dept=np.array([e.dept for e in encs], dtype=str),
            doctor=np.array([e.doctor for e in encs], dtype=str),
            date=date_column([e.date for e in encs]))

    @classmethod
    def _labelled(cls, labels: LabelSpace, code_list: list[str], **stored) -> "Notes":
        """The Notes of the stored columns (`code_list`: `codes` as a list)
        with those `labels` gives them: ground truth, unseen-code counts,
        frequency buckets and first-visit flags."""
        code_offsets = stored["code_offsets"]
        n = len(code_offsets) - 1
        ids, record = labels.indices(code_list), np.repeat(np.arange(n), np.diff(code_offsets))
        seen = ids >= 0
        gt = np.zeros((n, len(labels)), dtype=bool)
        gt[record[seen], ids[seen]] = True
        counts = np.fromiter(map(labels.train_count, code_list), np.int64, len(code_list))
        lowest = np.minimum.reduceat(counts, code_offsets[:-1])
        return cls(gt=gt, n_unseen=np.bincount(record[~seen], minlength=n),
                   first_visit=_first_visit_flags(stored["patient_id"], stored["date"]),
                   freq_bucket=frequency_bucket(lowest), **stored)

    def save(self, path, vocab: Vocabulary, labels: LabelSpace) -> None:
        """Write the split for `load`: every column but those `labels` gives,
        in a checkpoint file (see checkpoint.py) whose header names the
        vocabulary and label space by their digests and holds the string
        columns. Build the split with max_len None, so that `load` can cut
        its notes to any length."""
        meta = {"kind": "notes", "vocab_sha256": vocab.sha256(),
                "labels_sha256": labels.sha256(),
                **{name: getattr(self, name).tolist() for name in _STORED_STRINGS}}
        arrays = {name: getattr(self, name) for name in _STORED_ARRAYS}
        save_params(path, {**arrays, "date": self.date.astype(np.int64)}, meta)

    @classmethod
    def load(cls, path, vocab: Vocabulary, labels: LabelSpace, max_len: int = 512) -> "Notes":
        """The split `save` wrote to `path` for this vocabulary and label
        space, each note cut to its first max_len tokens: what `of` gives for
        the same encounters and max_len. The file is checked as a split file
        is read, and more (`_check_stored`): every fault is one
        ValidationError naming it."""
        try:
            meta, arrays = load_params(path, kind="notes", vocab_sha256=vocab.sha256(),
                                       labels_sha256=labels.sha256())
        except NumericError as exc:  # a non-finite value, which no column holds
            raise ValidationError(str(exc)) from None
        with reading(path):
            _check_stored(meta, arrays, len(vocab))
        stored = {name: arrays[name].astype(np.int64) for name in _STORED_ARRAYS}
        stored |= {name: np.array(meta[name], dtype=str) for name in _STORED_STRINGS}
        stored["date"] = stored["date"].astype("datetime64[D]")
        stored["tokens"], lengths = _gather(stored["offsets"], stored["tokens"],
                                            np.arange(len(stored["patient_id"])), max_len)
        stored["offsets"] = np.concatenate([[0], np.cumsum(lengths)])
        return cls._labelled(labels, meta["codes"], **stored)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def batch(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """The notes at `idx` packed: their ids concatenated, and their lengths."""
        return _gather(self.offsets, self.tokens, idx)

    def rows(self, idx) -> "Notes":
        """The notes at `idx` as a split of their own."""
        columns = {}
        for offsets, values in _CSR:
            columns[values], lengths = _gather(getattr(self, offsets), getattr(self, values), idx)
            columns[offsets] = np.cumsum([0, *lengths])
        return Notes(**columns, **{f.name: getattr(self, f.name)[idx] for f in fields(Notes)
                                   if f.name not in columns})

    def scored(self, probs: np.ndarray) -> Predictions:
        """These notes' Predictions for the (n, N) score matrix `probs`."""
        return Predictions(probs, **{f.name: getattr(self, f.name)
                                     for f in fields(Predictions)[1:]})


def _check_stored(meta: dict, arrays: dict, n_vocab: int) -> None:
    """That a packed split, whose kind and digests `load_params` checked,
    holds what `Notes.save` writes: integral values, offsets rising from 0
    to their column's length one step per note, token ids in [1, n_vocab),
    valid dates, and, through the split-file reader's own checks
    (corpus.first_*), lists of strings without U+0000, at least one token
    and one code per note, each note's codes distinct, sorted and
    well-formed. Each rule is checked over the whole file in turn; the first
    it fails raises a ValidationError, which `Notes.load` prefixes with the
    file's path."""
    if meta.keys() != {"kind", "vocab_sha256", "labels_sha256", *_STORED_STRINGS}:
        raise ValidationError(f"the header must hold exactly the string columns {_STORED_STRINGS}")
    if arrays.keys() != set(_STORED_ARRAYS):
        raise ValidationError(f"the arrays must be exactly {_STORED_ARRAYS}")
    for name, a in arrays.items():
        if a.ndim != 1 or (a != np.floor(a)).any():
            raise ValidationError(f"{name} must be a vector of integers")
    for name in _STORED_STRINGS:
        if type(meta[name]) is not list or not all(type(s) is str for s in meta[name]):
            raise ValidationError(f"{name} must be a list of strings")
        if first_nul(meta[name]) is not None:
            raise ValidationError(f"{name} must not contain U+0000")
    n = len(meta["patient_id"])
    for name in ("dept", "doctor"):
        if len(meta[name]) != n:
            raise ValidationError(f"{name} must have one entry per note ({n})")
    date = arrays["date"]
    if date.shape != (n,) or not ((_DATES[0] <= date) & (date <= _DATES[1])).all():
        raise ValidationError(f"date must hold one valid date per note ({n})")
    for offsets, values in _CSR:
        off = arrays[offsets]
        size = len(arrays[values] if values in arrays else meta[values])
        if off.shape != (n + 1,) or off[0] or off[-1] != size or (off[1:] < off[:-1]).any():
            raise ValidationError(f"{offsets} must rise from 0 to the {size} {values} in one step "
                        f"per note ({n})")
    for offsets, values in (("offsets", "tokens"), ("code_offsets", "codes")):
        if first_empty(arrays[offsets]) is not None:
            raise ValidationError(f"every note needs at least one of its {values}")
    for name in ("tokens", "aux"):
        ids = arrays[name]
        if ids.size and not (1 <= ids.min() and ids.max() < n_vocab):
            raise ValidationError(f"{name} must hold token ids in [1, {n_vocab})")
    if first_repeat(meta["codes"], arrays["code_offsets"].astype(np.int64)) is not None:
        raise ValidationError("each note's codes must be distinct and sorted")
    bad = first_malformed(meta["codes"])
    if bad is not None:
        raise ValidationError(f"malformed code {meta['codes'][bad]!r}")


def _scored(score, n: int, width: int) -> np.ndarray:
    """(n, width) rows of `score(idx)` over SCORE_CHUNK-sized chunks, no graph."""
    with ad.no_grad():
        return np.concatenate([np.empty((0, width))]
                              + [score(np.arange(lo, min(lo + SCORE_CHUNK, n)))
                                 for lo in range(0, n, SCORE_CHUNK)])


def _base_probs(model: BaseModel, notes: Notes) -> np.ndarray:
    return _scored(lambda idx: model.forward(*notes.batch(idx))[0].data,
                   len(notes), model.n_labels)


def predict_records(model: BaseModel, notes: Notes) -> Predictions:
    return notes.scored(_base_probs(model, notes))


class _FrozenBase:
    """What a reranker reads of a split, computed once: the frozen base's P
    (n, N), packed encodings of the notes (H) and of their auxiliary ids (one
    zero row if none), and the metadata as table rows. A batch gathers."""

    def __init__(self, base: BaseModel, reranker: MetadataReranker, notes: Notes):
        self.reranker, self.offsets = reranker, notes.offsets
        self.metadata = reranker.vocabs.rows(notes)
        h, h_aux = [np.empty((0, base.hp.d_c))], [np.empty((0, base.hp.d_c))]

        def run(idx):
            probs, hc = base.forward(*notes.batch(idx))
            h.append(hc.data)
            h_aux.append(base.encode(*_gather(notes.aux_offsets, notes.aux, idx)).data)
            return probs.data

        self.probs = _scored(run, len(notes), base.n_labels)
        self.h = np.concatenate(h)
        aux_lengths = np.diff(notes.aux_offsets)
        self.has_aux = aux_lengths > 0
        self.aux_offsets = np.cumsum([0, *np.maximum(aux_lengths, 1)])
        self.h_aux = np.insert(np.concatenate(h_aux), notes.aux_offsets[:-1][~self.has_aux],
                               0.0, 0)

    def forward(self, idx):
        """The reranker's (B, N) scores on the notes at `idx`."""
        h, lengths = _gather(self.offsets, self.h, idx)
        h_aux, aux_lengths = _gather(self.aux_offsets, self.h_aux, idx)
        aux = ad.tensor(h_aux) if self.has_aux[idx].any() else None
        metadata = [_gather(offsets, rows, idx) for offsets, rows in self.metadata]
        return self.reranker.forward(ad.tensor(self.probs[idx]), ad.tensor(h), lengths,
                                     aux, aux_lengths, metadata)

    def reranked(self) -> np.ndarray:
        """The reranker's scores on every note, (n, N). With its
        projection all zero, as at the zero start, the residual is exactly
        zero and the scores are P itself."""
        if not any(self.reranker.params[k].data.any() for k in ("proj_w", "proj_b")):
            return self.probs.copy()
        return _scored(lambda idx: self.forward(idx).data, len(self.probs),
                       self.reranker.n_labels)


def predict_records_reranked(base: BaseModel, reranker: MetadataReranker,
                             notes: Notes) -> Predictions:
    """Predictions carrying the reranker's scores."""
    return notes.scored(_FrozenBase(base, reranker, notes).reranked())


# --------------------------------------------------------------------------
# shared loop machinery
# --------------------------------------------------------------------------


def _fit(params: dict[str, ad.Tensor], n_items: int, loss_of, dev_scores,
         config: TrainConfig):
    """The epoch loop shared by base and reranker training: `loss_of(idx)`
    is the mean loss of the mini-batch of items at indices `idx`."""
    if n_items == 0:
        raise ValidationError("training set is empty")
    opt = Adam(params, config.learning_rate)
    rng = np.random.default_rng(config.seed)
    best_r5, _ = dev_scores()
    best_epoch = 0
    best_snap = {k: t.data.copy() for k, t in params.items()}
    history = []
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n_items)
        losses = []
        for b, lo in enumerate(range(0, n_items, config.batch_size)):
            loss = loss_of(order[lo:lo + config.batch_size])
            losses.append(float(loss.data))
            if not np.isfinite(losses[-1]):
                raise NumericError(f"non-finite training loss in batch {b} of epoch {epoch}")
            opt.step(ad.backward(loss))
            del loss  # free this batch's graph before the next one is built
        r5, if1 = dev_scores()
        history.append(EpochStats(epoch, float(np.mean(losses)), r5, if1,
                                  time.perf_counter() - started))
        if r5 > best_r5:
            best_r5, best_epoch = r5, epoch
            best_snap = {k: t.data.copy() for k, t in params.items()}
        elif epoch - best_epoch >= config.patience:
            break
    for k, t in params.items():
        t.data = best_snap[k].copy()
    return best_snap, TrainHistory(tuple(history), best_epoch, best_r5)


# --------------------------------------------------------------------------
# base-model and reranker training
# --------------------------------------------------------------------------


def _train(params: dict[str, ad.Tensor], notes: Notes, dev_notes: Notes,
           config: TrainConfig, probs_of, dev_probs):
    """`probs_of(idx)` is the (B, N) probability tensor of the training notes
    at `idx`, `dev_probs()` the score matrix of the dev notes."""
    if not len(dev_notes):
        raise ValidationError("dev set is empty; early stopping needs one")

    def dev_scores():
        records = dev_notes.scored(dev_probs())
        return (mean_recall_at_k(records, 5),
                mean_instance_f1(records, config.decision_threshold))

    return _fit(params, len(notes),
                lambda idx: ad.bce_loss(probs_of(idx), ad.tensor(notes.gt[idx])),
                dev_scores, config)


def train(model: BaseModel, notes: Notes, dev_notes: Notes, config: TrainConfig):
    """Returns (best parameter snapshot, history); the model is left holding
    the snapshot."""
    return _train(model.params, notes, dev_notes, config,
                  lambda idx: model.forward(*notes.batch(idx))[0],
                  lambda: _base_probs(model, dev_notes))


def train_reranker(base: BaseModel, reranker: MetadataReranker, notes: Notes,
                   dev_notes: Notes, config: TrainConfig):
    """Optimizes only the reranker over frozen base outputs, computed once
    and reused every epoch (the frozen contract makes them constants)."""
    frozen, dev_frozen = (_FrozenBase(base, reranker, n) for n in (notes, dev_notes))
    return _train(reranker.params, notes, dev_notes, config, frozen.forward,
                  dev_frozen.reranked)


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


def check_fractions(fractions) -> list[float]:
    """The distinct training-set fractions, ascending. Each must lie in
    (0, 1], and 1.0, the full-data run the others are normalized by, must be
    one of them."""
    grid = sorted({float(f) for f in fractions})
    if not all(0.0 < f <= 1.0 for f in grid) or 1.0 not in grid:
        raise ValidationError(f"fractions must lie in (0, 1] and include 1.0, got {grid}")
    return grid


def data_fraction_experiment(make_model, train_notes: Notes, dev_notes: Notes, fractions,
                             config: TrainConfig, eval_notes: Notes) -> list[FractionResult]:
    """Trains one freshly-initialized model per training-set fraction, with
    early stopping on dev_notes, and reports its scores on eval_notes (a
    held-out split) absolute and relative to the full-data run."""
    scores: dict[float, tuple[float, float]] = {}
    for i, f in enumerate(check_fractions(fractions)):
        subset = train_notes.rows(subsample_train(range(len(train_notes)), f,
                                                  seed=config.seed + i))
        model = make_model()
        train(model, subset, dev_notes, config)
        records = predict_records(model, eval_notes)
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
