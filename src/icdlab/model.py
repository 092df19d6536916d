"""Classifiers: CNN document encoder with label attention, and the
metadata reranker that adjusts a frozen base model's probabilities.

Two base variants share the encoder and the per-label sigmoid layer and
differ only in how attention scores are produced:

* "caml": scores = H u_l per label (one attention vector per label);
* "laat": scores = tanh(H W^T) U^T (a shared projection, then per-label).

Both take a mini-batch of notes packed: one (ΣL,) vector of their token ids
plus their lengths. Every layer computes only real positions, convolution
windows and attention stay within their own note, so each note scores as
it would alone, up to float rounding. The scores, their softmax over each
note and the per-label read-out are one `autodiff.label_attention` call.

The reranker treats the base model's outputs P and H as constants, adds
structured-metadata embeddings to label embeddings, attends over the note
encoding and over an auxiliary encoding of medication/procedure names, and
emits a residual correction: its scores are P + Δ, unclamped (the loss
clips its input). Its attention heads are column blocks of one projection
per side, so each side is one `label_attention` call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import file_sha256, load_params, save_params
from .errors import ValidationError, reading
from .preprocess import PAD_ID

# --------------------------------------------------------------------------
# base model
# --------------------------------------------------------------------------


ARCHITECTURES = ("caml", "laat")


@dataclass(frozen=True)
class BaseHParams:
    d_e: int = 48
    d_c: int = 64
    kernel_width: int = 5
    d_a: int = 32  # laat projection width

    def __post_init__(self):
        if min(self.d_e, self.d_c, self.d_a) <= 0:
            raise ValidationError("model dimensions must be positive")
        if self.kernel_width <= 0 or self.kernel_width % 2 == 0:
            raise ValidationError(f"kernel_width must be odd, got {self.kernel_width}")


class BaseModel:
    """CNN encoder + label attention + per-label sigmoid classifier."""

    def __init__(self, arch: str, vocab_size: int, n_labels: int,
                 hp: BaseHParams, params: dict[str, ad.Tensor]):
        self.arch = arch
        self.vocab_size = vocab_size
        self.n_labels = n_labels
        self.hp = hp
        self.params = params

    @staticmethod
    def shapes(arch: str, vocab_size: int, n_labels: int,
               hp: BaseHParams) -> dict[str, tuple[int, ...]]:
        """Every parameter's shape, in the order `init` draws them: what a
        checkpoint with these hyperparameters must hold."""
        if arch not in ARCHITECTURES:
            raise ValidationError(f"unknown architecture {arch!r}")
        shapes = {"emb": (vocab_size, hp.d_e), "conv_w": (hp.d_c, hp.kernel_width, hp.d_e),
                  "conv_b": (hp.d_c,)}
        if arch == "caml":
            shapes["attn_u"] = (n_labels, hp.d_c)
        else:
            shapes["laat_w"] = (hp.d_a, hp.d_c)
            shapes["laat_u"] = (n_labels, hp.d_a)
        shapes["out_w"] = (n_labels, hp.d_c)
        shapes["out_b"] = (n_labels,)
        return shapes

    @classmethod
    def init(cls, arch: str, vocab_size: int, n_labels: int,
             hp: BaseHParams = BaseHParams(), seed: int = 0) -> "BaseModel":
        """Biases start at zero and draw nothing; the embedding is N(0, 0.1²)
        and every other weight (rows out, columns in) N(0, 1/fan-in)."""
        rng = np.random.default_rng(seed)
        p: dict[str, ad.Tensor] = {}
        for name, shape in cls.shapes(arch, vocab_size, n_labels, hp).items():
            if len(shape) == 1:
                data = np.zeros(shape)
            else:
                data = rng.normal(size=shape) * (0.1 if name == "emb" else math.prod(shape[1:]) ** -0.5)
            p[name] = ad.tensor(data, requires_grad=True)
        return cls(arch, vocab_size, n_labels, hp, p)

    def encode(self, ids: np.ndarray, lengths: np.ndarray) -> ad.Tensor:
        """Packed ids (ΣL,) of notes of `lengths` (B,) → H (ΣL, d_c). Padding
        is not a token: a packed batch holds real positions only."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() <= PAD_ID or ids.max() >= self.vocab_size):
            raise ValidationError(f"token id out of range [{PAD_ID + 1}, {self.vocab_size})")
        x = ad.embedding(self.params["emb"], ids)
        return ad.tanh(ad.conv1d(x, self.params["conv_w"], self.params["conv_b"], lengths))

    def forward(self, ids: np.ndarray, lengths: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
        """Probabilities P (B, N) and the packed note encodings H (ΣL, d_c).
        Label n's logit v_n · w_n, v_n = Σ_t a_tn h_t, is taken as the pooled
        per-position scores Σ_t a_tn (h_t · w_n): no (B, N, d_c) tensor."""
        h = self.encode(ids, lengths)
        p = self.params
        if self.arch == "caml":
            keys, queries = h, p["attn_u"]
        else:
            keys, queries = ad.tanh(ad.matmul(h, p["laat_w"], transpose_b=True)), p["laat_u"]
        logits = ad.add(ad.label_attention(keys, queries, h, p["out_w"], lengths), p["out_b"])
        return ad.sigmoid(logits), h


# --------------------------------------------------------------------------
# metadata reranker
# --------------------------------------------------------------------------

MODALITIES = ("med", "proc", "doctor", "dept")


def _modality_columns(notes) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each modality's values in a split (Notes), packed: (offsets, values)."""
    single = np.arange(len(notes.dept) + 1)
    return [(notes.med_offsets, notes.meds), (notes.proc_offsets, notes.procs),
            (single, notes.doctor), (single, notes.dept)]


@dataclass(frozen=True)
class ModalityVocabs:
    """Observed values per structured modality. Row 0 of each embedding table
    is the zero-initialized unknown entry; known values start at row 1."""

    med: tuple[str, ...]
    proc: tuple[str, ...]
    doctor: tuple[str, ...]
    dept: tuple[str, ...]

    @classmethod
    def of(cls, notes) -> "ModalityVocabs":
        """The sorted distinct values of each modality column of a split."""
        return cls(*(tuple(np.unique(values).tolist())
                     for _, values in _modality_columns(notes)))

    def __post_init__(self):  # a checkpoint's lists are read as given, sorted or not
        object.__setattr__(self, "_index", {m: {v: i + 1 for i, v in enumerate(getattr(self, m))}
                                            for m in MODALITIES})

    def rows(self, notes) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per modality, a split's values as the table rows they embed with,
        packed as in the split: (offsets, rows)."""
        return [(offsets, np.array([self._index[m].get(v, 0) for v in values.tolist()], np.int64))
                for m, (offsets, values) in zip(MODALITIES, _modality_columns(notes))]


@dataclass(frozen=True)
class RerankerHParams:
    d: int = 64
    n_heads: int = 2

    def __post_init__(self):
        if self.d <= 0 or self.n_heads <= 0:
            raise ValidationError("reranker dimensions must be positive")
        if self.d % self.n_heads:
            raise ValidationError(f"head count {self.n_heads} must divide d={self.d}")


class MetadataReranker:
    """Residual correction over a frozen base model.

    E_L' adds the summed modality embedding to every label embedding row;
    E_L'' sums attention over the note encoding and over the auxiliary
    (medication/procedure name) encoding; the per-label affine projection
    of E_L'' is added to the base probabilities.
    """

    def __init__(self, n_labels: int, d_keys: int, hp: RerankerHParams,
                 vocabs: ModalityVocabs, params: dict[str, ad.Tensor]):
        # d_keys: the channel width of the (frozen) encoder outputs
        self.n_labels, self.d_keys, self.hp = n_labels, d_keys, hp
        self.vocabs, self.params = vocabs, params

    @staticmethod
    def shapes(n_labels: int, d_keys: int, vocabs: ModalityVocabs,
               hp: RerankerHParams) -> dict[str, tuple[int, ...]]:
        """Every parameter's shape, in the order `init` draws them: what a
        checkpoint with these hyperparameters and vocabularies must hold."""
        d = hp.d
        shapes = {"label_emb": (n_labels, d)}
        for m in MODALITIES:
            shapes[f"{m}_emb"] = (len(getattr(vocabs, m)) + 1, d)
        for side in ("attn_n", "attn_m"):
            shapes.update({f"{side}.wq": (d, d), f"{side}.wk": (d_keys, d),
                           f"{side}.wv": (d_keys, d), f"{side}.wo": (d, d)})
        shapes["proj_w"] = (n_labels, d)
        shapes["proj_b"] = (n_labels,)
        return shapes

    @classmethod
    def init(cls, n_labels: int, d_keys: int, vocabs: ModalityVocabs,
             hp: RerankerHParams = RerankerHParams(), seed: int = 0) -> "MetadataReranker":
        rng = np.random.default_rng(seed)
        shapes = cls.shapes(n_labels, d_keys, vocabs, hp)
        p = {"label_emb": rng.normal(size=shapes["label_emb"]) * 0.1}
        for m in MODALITIES:
            p[f"{m}_emb"] = rng.normal(size=shapes[f"{m}_emb"]) * 0.1
            p[f"{m}_emb"][0] = 0.0  # unknown row
        for side in ("attn_n", "attn_m"):
            # head h is the h-th column block of wq, wk and wv, each block
            # drawn on its own: head 0's wq, wk, wv, then head 1's, ...
            names = [f"{side}.{w}" for w in ("wq", "wk", "wv")]
            drawn = [[rng.normal(size=(rows, cols // hp.n_heads)) * rows**-0.5
                      for rows, cols in map(shapes.get, names)] for _ in range(hp.n_heads)]
            p.update(zip(names, map(np.hstack, zip(*drawn))))
            p[f"{side}.wo"] = rng.normal(size=shapes[f"{side}.wo"]) * hp.d**-0.5
        # zero start: the reranker opens as an exact residual identity
        p["proj_w"], p["proj_b"] = np.zeros(shapes["proj_w"]), np.zeros(shapes["proj_b"])
        return cls(n_labels, d_keys, hp, vocabs,
                   {name: ad.tensor(a, requires_grad=True) for name, a in p.items()})

    def embed_modalities(self, metadata) -> ad.Tensor:
        """(B, d): per note, the sum over modalities of its embedding rows;
        med/proc lists contribute their average, an empty list nothing.
        `metadata` holds per modality the notes' values' table rows, note after
        note, and their counts (B,). An unused table stays out of the graph."""
        total = None
        for m, (rows, counts) in zip(MODALITIES, metadata):
            if not rows.size:
                continue
            width = len(getattr(self.vocabs, m)) + 1
            cells = np.repeat(np.arange(len(counts)) * width, counts) + rows
            # bincount adds in record order: the bits of weights[b, row] += 1/len
            weights = np.bincount(cells, 1.0 / np.repeat(counts, counts), len(counts) * width)
            part = ad.matmul(ad.tensor(weights.reshape(len(counts), width)),
                             self.params[f"{m}_emb"])
            total = part if total is None else ad.add(total, part)
        return total

    def forward(self, base_probs: ad.Tensor, h_note: ad.Tensor, note_lengths: np.ndarray,
                h_aux: ad.Tensor | None, aux_lengths: np.ndarray | None,
                metadata) -> ad.Tensor:
        """The scores P + Δ, (B, N).

        base_probs (B, N), the packed h_note (ΣL, d_keys) and h_aux
        (ΣA, d_keys) must be constants (frozen base outputs). h_aux is None
        when no note of the batch has auxiliary tokens, which leaves the
        attn_m parameters out of the graph; otherwise a note without any is
        one zero row, which gets an auxiliary term of exactly zero.
        `metadata` is the batch's, as `embed_modalities` reads it.

        Per side, label n of note b queries head h with the h-th column
        block of (label_emb[n] + m_b) wq: the label term is the query matrix
        and m_b's term a per-row score bias. A head's output would pass
        through its rows of wo and through proj_w[n], both linear, so each
        source row's values are read out through proj_w wo^T first.
        """
        p, nh = self.params, self.hp.n_heads
        dh = self.hp.d // nh
        head_sums = ad.tensor(np.kron(np.eye(nh), np.ones((dh, 1))))  # (d, H)
        modalities = self.embed_modalities(metadata)
        sides = [("attn_n", h_note, note_lengths)]
        if h_aux is not None:
            sides.append(("attn_m", h_aux, aux_lengths))
        delta = p["proj_b"]
        for side, source, lengths in sides:
            wq = p[f"{side}.wq"]
            keys = ad.scale(ad.matmul(source, p[f"{side}.wk"]), 1.0 / math.sqrt(dh))
            m_rows = ad.embedding(ad.matmul(modalities, wq),
                                  np.repeat(np.arange(len(lengths)), lengths))
            row_bias = ad.matmul(ad.mul(keys, m_rows), head_sums)          # (ΣS,H)
            readout = ad.matmul(p["proj_w"], p[f"{side}.wo"], transpose_b=True)  # (N,d)
            delta = ad.add(ad.label_attention(keys, ad.matmul(p["label_emb"], wq),
                                              ad.matmul(source, p[f"{side}.wv"]), readout,
                                              lengths, row_bias, heads=nh), delta)
        return ad.add(delta, base_probs)


# --------------------------------------------------------------------------
# persistence: one checkpoint file, its header carrying the metadata
# --------------------------------------------------------------------------


def save_base_model(path, model: BaseModel, vocab_sha: str, labels_sha: str) -> None:
    save_params(path, {k: t.data for k, t in model.params.items()}, {
        "kind": "base",
        "arch": model.arch,
        "n_labels": model.n_labels,
        "vocab_size": model.vocab_size,
        "vocab_sha256": vocab_sha,
        "labels_sha256": labels_sha,
        "hparams": asdict(model.hp),
    })


def _check_meta(meta: dict, kind: str, vocab_sha: str, labels_sha: str) -> None:
    """That a checkpoint's metadata is that of a `kind` checkpoint trained
    with this vocabulary and label space; read under `errors.reading`, which
    names the file."""
    if meta.get("kind") != kind:
        raise ValidationError(f"not a {kind} checkpoint")
    for key, sha, what in (("vocab_sha256", vocab_sha, "vocabulary"),
                           ("labels_sha256", labels_sha, "label space")):
        if meta[key] != sha:
            raise ValidationError(f"checkpoint was trained with a different {what}")


def _tensors(path, arrays: dict, expected: dict[str, tuple[int, ...]]) -> dict[str, ad.Tensor]:
    """The checkpoint's arrays as trainable tensors, once their names and
    shapes are those of `expected`, the shape table for the hyperparameters
    in its metadata."""
    for name in sorted(set(arrays) | set(expected)):
        got = arrays[name].shape if name in arrays else "absent"
        want = expected.get(name, "absent")
        if repr(got) != repr(want):  # as written: 48.0 == 48, but no array has 48.0 rows
            raise ValidationError(f"{path}: parameter {name!r} is {got} in the checkpoint, "
                                  f"{want} for the hyperparameters in its metadata")
    return {k: ad.tensor(v, requires_grad=True) for k, v in arrays.items()}


def load_base_model(path, vocab_sha: str, labels_sha: str) -> BaseModel:
    meta, arrays = load_params(path)
    with reading(path):
        _check_meta(meta, "base", vocab_sha, labels_sha)
        args = (meta["arch"], meta["vocab_size"], meta["n_labels"])
        hp = BaseHParams(**meta["hparams"])
        expected = BaseModel.shapes(*args, hp)
    return BaseModel(*args, hp, _tensors(path, arrays, expected))


def save_reranker(path, model: MetadataReranker, vocab_sha: str, labels_sha: str,
                  base_path) -> None:
    """The reranker, tied to the base checkpoint at `base_path` it was
    trained over by that file's sha256."""
    save_params(path, {k: t.data for k, t in model.params.items()}, {
        "kind": "reranker",
        "n_labels": model.n_labels,
        "d_keys": model.d_keys,
        "vocab_sha256": vocab_sha,
        "labels_sha256": labels_sha,
        "base_sha256": file_sha256(base_path),
        "hparams": asdict(model.hp),
        "modalities": {m: list(getattr(model.vocabs, m)) for m in MODALITIES},
    })


def load_reranker(path, vocab_sha: str, labels_sha: str, base_path) -> MetadataReranker:
    """The reranker at `path`, once it is known to have been trained over
    the base checkpoint at `base_path`. Its parameter names and shapes are
    checked first: a checkpoint of an older layout fails on those."""
    meta, arrays = load_params(path)
    with reading(path):
        _check_meta(meta, "reranker", vocab_sha, labels_sha)
        args = (meta["n_labels"], meta["d_keys"])
        vocabs = ModalityVocabs(**{m: tuple(v) for m, v in meta["modalities"].items()})
        hp = RerankerHParams(**meta["hparams"])
        expected = MetadataReranker.shapes(*args, vocabs, hp)
    params = _tensors(path, arrays, expected)
    if meta.get("base_sha256") != file_sha256(base_path):
        raise ValidationError(f"{path}: reranker was trained over another base model "
                              f"than {base_path}")
    return MetadataReranker(*args, hp, vocabs, params)
