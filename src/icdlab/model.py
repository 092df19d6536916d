"""Classifiers: CNN document encoder with label attention, and the
metadata reranker that adjusts a frozen base model's probabilities.

Two base variants share the encoder and the per-label sigmoid layer and
differ only in how attention scores are produced:

* "caml": scores = H u_l per label (one attention vector per label);
* "laat": scores = tanh(H W^T) U^T (a shared projection, then per-label).

The reranker treats the base model's outputs P and H as constants, adds
structured-metadata embeddings to label embeddings, attends over the note
encoding and over an auxiliary encoding of medication/procedure names, and
emits a residual correction: P_f = clamp_[0,1](P' + P). Ranking consumers
should prefer the pre-clamp scores, which carry no ties at the bounds.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import load_params, save_params
from .corpus import Encounter
from .errors import ConfigError, ValidationError, reading
from .preprocess import PAD_ID, TokenizedNote

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
            raise ConfigError("model dimensions must be positive")
        if self.kernel_width <= 0 or self.kernel_width % 2 == 0:
            raise ConfigError(f"kernel_width must be odd, got {self.kernel_width}")


class BaseModel:
    """CNN encoder + label attention + per-label sigmoid classifier."""

    def __init__(self, arch: str, vocab_size: int, n_labels: int,
                 hp: BaseHParams, params: dict[str, ad.Tensor]):
        if arch not in ARCHITECTURES:
            raise ConfigError(f"unknown architecture {arch!r}")
        self.arch = arch
        self.vocab_size = vocab_size
        self.n_labels = n_labels
        self.hp = hp
        self.params = params

    @classmethod
    def init(cls, arch: str, vocab_size: int, n_labels: int,
             hp: BaseHParams = BaseHParams(), seed: int = 0) -> "BaseModel":
        rng = np.random.default_rng(seed)
        p: dict[str, ad.Tensor] = {}

        def param(name, shape, scale):
            p[name] = ad.tensor(rng.normal(size=shape) * scale, requires_grad=True)

        param("emb", (vocab_size, hp.d_e), 0.1)
        param("conv_w", (hp.d_c, hp.kernel_width, hp.d_e), (hp.kernel_width * hp.d_e) ** -0.5)
        p["conv_b"] = ad.tensor(np.zeros(hp.d_c), requires_grad=True)
        if arch == "caml":
            param("attn_u", (n_labels, hp.d_c), hp.d_c**-0.5)
        else:
            param("laat_w", (hp.d_a, hp.d_c), hp.d_c**-0.5)
            param("laat_u", (n_labels, hp.d_a), hp.d_a**-0.5)
        param("out_w", (n_labels, hp.d_c), hp.d_c**-0.5)
        p["out_b"] = ad.tensor(np.zeros(n_labels), requires_grad=True)
        return cls(arch, vocab_size, n_labels, hp, p)

    def encode(self, note: TokenizedNote) -> tuple[ad.Tensor, np.ndarray]:
        """Token ids → H (T×d_c) plus the non-padding position mask."""
        ids = note.token_ids
        if any(i >= self.vocab_size or i < 0 for i in ids):
            raise ValidationError(f"token id out of range for vocabulary of {self.vocab_size}")
        x = ad.embedding(self.params["emb"], ids)
        h = ad.tanh(ad.conv1d(x, self.params["conv_w"], self.params["conv_b"]))
        mask = np.asarray([i != PAD_ID for i in ids], dtype=bool)
        return h, mask

    def forward(self, note: TokenizedNote) -> tuple[ad.Tensor, ad.Tensor, np.ndarray]:
        """Probabilities P (N,), the document encoding H, and its mask."""
        h, mask = self.encode(note)
        if self.arch == "caml":
            scores = ad.matmul(h, ad.transpose(self.params["attn_u"]))  # (T,N)
        else:
            z = ad.tanh(ad.matmul(h, ad.transpose(self.params["laat_w"])))
            scores = ad.matmul(z, ad.transpose(self.params["laat_u"]))
        attn = ad.softmax(scores, axis=0, mask=mask)          # per-label over positions
        v = ad.matmul(ad.transpose(attn), h)                   # (N,d_c)
        logits = ad.add(ad.tensor_sum(ad.mul(v, self.params["out_w"]), axis=1),
                        self.params["out_b"])
        return ad.sigmoid(logits), h, mask

    def predict_probs(self, note: TokenizedNote) -> np.ndarray:
        with ad.no_grad():
            p, _, _ = self.forward(note)
        return p.data


# --------------------------------------------------------------------------
# metadata reranker
# --------------------------------------------------------------------------

MODALITIES = ("med", "proc", "doctor", "dept")


@dataclass(frozen=True)
class ModalityVocabs:
    """Observed ids per structured modality. Row 0 of each embedding table
    is the zero-initialized unknown entry; known ids start at row 1."""

    med: tuple[str, ...]
    proc: tuple[str, ...]
    doctor: tuple[str, ...]
    dept: tuple[str, ...]

    @classmethod
    def from_encounters(cls, encounters: list[Encounter]) -> "ModalityVocabs":
        med, proc, doctor, dept = set(), set(), set(), set()
        for e in encounters:
            med.update(e.meds)
            proc.update(e.procs)
            doctor.add(e.doctor)
            dept.add(e.dept)
        return cls(tuple(sorted(med)), tuple(sorted(proc)),
                   tuple(sorted(doctor)), tuple(sorted(dept)))

    def __post_init__(self):
        for m in MODALITIES:
            object.__setattr__(self, f"_idx_{m}",
                               {v: i + 1 for i, v in enumerate(getattr(self, m))})

    def row(self, modality: str, value: str) -> int:
        return getattr(self, f"_idx_{modality}").get(value, 0)


@dataclass(frozen=True)
class RerankerHParams:
    d: int = 64
    n_heads: int = 2

    def __post_init__(self):
        if self.d <= 0 or self.n_heads <= 0:
            raise ConfigError("reranker dimensions must be positive")
        if self.d % self.n_heads:
            raise ConfigError(f"head count {self.n_heads} must divide d={self.d}")


class MetadataReranker:
    """Residual correction over a frozen base model.

    E_L' adds the summed modality embedding to every label embedding row;
    E_L'' sums attention over the note encoding and over the auxiliary
    (medication/procedure name) encoding; the per-label affine projection
    of E_L'' is added to the base probabilities.
    """

    def __init__(self, n_labels: int, d_keys: int, hp: RerankerHParams,
                 vocabs: ModalityVocabs, params: dict[str, ad.Tensor]):
        self.n_labels = n_labels
        self.d_keys = d_keys  # channel width of the (frozen) encoder outputs
        self.hp = hp
        self.vocabs = vocabs
        self.params = params

    @classmethod
    def init(cls, n_labels: int, d_keys: int, vocabs: ModalityVocabs,
             hp: RerankerHParams = RerankerHParams(), seed: int = 0) -> "MetadataReranker":
        rng = np.random.default_rng(seed)
        d, nh = hp.d, hp.n_heads
        dh = d // nh
        p: dict[str, ad.Tensor] = {}

        def param(name, shape, scale):
            p[name] = ad.tensor(rng.normal(size=shape) * scale, requires_grad=True)

        param("label_emb", (n_labels, d), 0.1)
        for m in MODALITIES:
            table = rng.normal(size=(len(getattr(vocabs, m)) + 1, d)) * 0.1
            table[0] = 0.0  # unknown row
            p[f"{m}_emb"] = ad.tensor(table, requires_grad=True)
        for side in ("attn_n", "attn_m"):
            for h in range(nh):
                param(f"{side}.h{h}.wq", (d, dh), d**-0.5)
                param(f"{side}.h{h}.wk", (d_keys, dh), d_keys**-0.5)
                param(f"{side}.h{h}.wv", (d_keys, dh), d_keys**-0.5)
            param(f"{side}.wo", (d, d), d**-0.5)
        # zero start: the reranker opens as an exact residual identity
        p["proj_w"] = ad.tensor(np.zeros((n_labels, d)), requires_grad=True)
        p["proj_b"] = ad.tensor(np.zeros(n_labels), requires_grad=True)
        return cls(n_labels, d_keys, hp, vocabs, p)

    def embed_modalities(self, enc: Encounter) -> ad.Tensor:
        """Σ over modalities; med/proc lists contribute their average."""
        parts = []
        for m, values in (("med", enc.meds), ("proc", enc.procs)):
            if values:
                rows = ad.embedding(self.params[f"{m}_emb"], [self.vocabs.row(m, v) for v in values])
                parts.append(ad.scale(ad.tensor_sum(rows, axis=0), 1.0 / len(values)))
        for m, value in (("doctor", enc.doctor), ("dept", enc.dept)):
            rows = ad.embedding(self.params[f"{m}_emb"], [self.vocabs.row(m, value)])
            parts.append(ad.tensor_sum(rows, axis=0))
        total = parts[0]
        for part in parts[1:]:
            total = ad.add(total, part)
        return total

    def _attend(self, side: str, queries: ad.Tensor, source: ad.Tensor,
                mask: np.ndarray | None) -> ad.Tensor:
        nh = self.hp.n_heads
        return ad.multi_head_attention(
            queries, source, source,
            [self.params[f"{side}.h{h}.wq"] for h in range(nh)],
            [self.params[f"{side}.h{h}.wk"] for h in range(nh)],
            [self.params[f"{side}.h{h}.wv"] for h in range(nh)],
            self.params[f"{side}.wo"],
            mask=mask,
        )

    def forward(self, base_probs: ad.Tensor, h_note: ad.Tensor, note_mask: np.ndarray,
                h_aux: ad.Tensor | None, aux_mask: np.ndarray | None,
                enc: Encounter) -> tuple[ad.Tensor, ad.Tensor]:
        """Returns (clamped P_f, pre-clamp scores P' + P).

        base_probs/h_note/h_aux must be constants (frozen base outputs).
        h_aux of None or with no unmasked rows degrades the auxiliary
        attention term to zero.
        """
        el = ad.add(self.params["label_emb"], self.embed_modalities(enc))
        mixed = self._attend("attn_n", el, h_note, note_mask)
        if h_aux is not None and aux_mask is not None and aux_mask.any():
            mixed = ad.add(mixed, self._attend("attn_m", el, h_aux, aux_mask))
        delta = ad.add(ad.tensor_sum(ad.mul(mixed, self.params["proj_w"]), axis=1),
                       self.params["proj_b"])
        raw = ad.add(delta, base_probs)
        return ad.clamp01(raw), raw


def frozen_base_outputs(base: BaseModel, note: TokenizedNote,
                        aux_note: TokenizedNote | None):
    """Evaluate the base model without recording gradients and return its
    outputs as fresh constant tensors: (P, H, note mask, H_aux, aux mask)."""
    with ad.no_grad():
        probs, h, mask = base.forward(note)
        h_aux = aux_mask = None
        if aux_note is not None:
            aux_mask = np.asarray([i != PAD_ID for i in aux_note.token_ids], dtype=bool)
            if aux_mask.any():
                h_aux_t, _ = base.encode(aux_note)
                h_aux = ad.tensor(h_aux_t.data.copy())
            else:
                h_aux = aux_mask = None
    return ad.tensor(probs.data.copy()), ad.tensor(h.data.copy()), mask, h_aux, aux_mask


# --------------------------------------------------------------------------
# persistence: checkpoint file + hash-verified manifest sidecar
# --------------------------------------------------------------------------


def _params_to_arrays(params: dict[str, ad.Tensor]) -> dict[str, np.ndarray]:
    return {k: t.data for k, t in params.items()}


def save_base_model(path, model: BaseModel, vocab_sha: str, labels_sha: str) -> None:
    save_params(path, _params_to_arrays(model.params))
    manifest = {
        "kind": "base",
        "arch": model.arch,
        "n_labels": model.n_labels,
        "vocab_size": model.vocab_size,
        "vocab_sha256": vocab_sha,
        "labels_sha256": labels_sha,
        "hparams": asdict(model.hp),
    }
    Path(str(path) + ".json").write_text(json.dumps(manifest, sort_keys=True) + "\n",
                                         encoding="utf-8")


def _read_sidecar(path, kind: str, vocab_sha: str, labels_sha: str) -> dict:
    """The `.json` sidecar of a `kind` checkpoint, checked against the
    vocabulary and label space it must have been trained with."""
    manifest = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    if manifest.get("kind") != kind:
        raise ValidationError(f"{path}: not a {kind} checkpoint")
    for key, sha, what in (("vocab_sha256", vocab_sha, "vocabulary"),
                           ("labels_sha256", labels_sha, "label space")):
        if manifest[key] != sha:
            raise ValidationError(f"{path}: checkpoint was trained with a different {what}")
    return manifest


def _load_tensors(path) -> dict[str, ad.Tensor]:
    return {k: ad.tensor(v, requires_grad=True) for k, v in load_params(path).items()}


def load_base_model(path, vocab_sha: str, labels_sha: str) -> BaseModel:
    with reading(f"{path}.json"):
        manifest = _read_sidecar(path, "base", vocab_sha, labels_sha)
        args = (manifest["arch"], manifest["vocab_size"], manifest["n_labels"])
        hp = BaseHParams(**manifest["hparams"])
    return BaseModel(*args, hp, _load_tensors(path))


def save_reranker(path, model: MetadataReranker, vocab_sha: str, labels_sha: str) -> None:
    save_params(path, _params_to_arrays(model.params))
    manifest = {
        "kind": "reranker",
        "n_labels": model.n_labels,
        "d_keys": model.d_keys,
        "vocab_sha256": vocab_sha,
        "labels_sha256": labels_sha,
        "hparams": asdict(model.hp),
        "modalities": {m: list(getattr(model.vocabs, m)) for m in MODALITIES},
    }
    Path(str(path) + ".json").write_text(json.dumps(manifest, sort_keys=True) + "\n",
                                         encoding="utf-8")


def load_reranker(path, vocab_sha: str, labels_sha: str) -> MetadataReranker:
    with reading(f"{path}.json"):
        manifest = _read_sidecar(path, "reranker", vocab_sha, labels_sha)
        args = (manifest["n_labels"], manifest["d_keys"])
        vocabs = ModalityVocabs(**{m: tuple(v) for m, v in manifest["modalities"].items()})
        hp = RerankerHParams(**manifest["hparams"])
    return MetadataReranker(*args, hp, vocabs, _load_tensors(path))
