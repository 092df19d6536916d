"""Flat key=value run configuration shared by every pipeline stage.

One key per line, '#' starts a comment, unknown keys and non-finite floats
are rejected. The normalized form (`config_text`) lists every key in
declaration order, so any accepted file round-trips to a single canonical
representation. `RunConfig` derives every stage's config and validates all
of them when it is built, so a config that exists is valid for every stage.
"""

import hashlib
import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .corpus import CorpusConfig
from .errors import ValidationError
from .model import ARCHITECTURES, BaseHParams, RerankerHParams
from .preprocess import DEDUP_SCOPES
from .train import TrainConfig, check_fractions


@dataclass(frozen=True)
class RunConfig:
    # master seed; each stage derives its own stream (see stage_seed)
    seed: int = 42
    # corpus generation
    n_patients: int = 500
    n_codes: int = 300
    n_depts: int = 12
    n_doctors: int = 60
    tokens_per_code: int = 4
    vocab_size: int = 2000
    zipf_exponent: float = 1.1
    ditto_probability: float = 0.35
    omitted_evidence_fraction: float = 0.2
    mean_encounters_per_patient: float = 14.0
    mean_codes_per_encounter: float = 1.4
    n_dev_patients: int = 75
    n_test_patients: int = 75
    # preprocessing: dedup_scope is none | consecutive | global
    dedup_scope: str = "consecutive"
    min_code_count: int = 5
    min_token_count: int = 1
    max_note_tokens: int = 512
    # base model
    architecture: str = "caml"
    d_e: int = 48
    d_c: int = 64
    kernel_width: int = 5
    d_a: int = 32
    # reranker
    reranker_d: int = 64
    reranker_heads: int = 2
    # training
    learning_rate: float = 0.001
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    decision_threshold: float = 0.5
    reranker_max_epochs: int = 5
    reranker_patience: int = 5
    # experiments
    fractions: str = "0.05,0.1,0.25,0.5,1.0"
    ece_bins: int = 10

    def __post_init__(self):
        for name, low in (("max_note_tokens", 1), ("ece_bins", 1), ("min_token_count", 1),
                          ("min_code_count", 0), ("n_dev_patients", 0),
                          ("n_test_patients", 0)):
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be ≥ {low}, got {getattr(self, name)}")
        if self.architecture not in ARCHITECTURES:
            raise ValidationError(f"unknown architecture {self.architecture!r}")
        if self.dedup_scope not in DEDUP_SCOPES:
            raise ValidationError(f"unknown dedup scope {self.dedup_scope!r}")
        check_fractions(parse_fractions(self.fractions))
        # building each stage config runs that stage's own checks
        self.corpus(), self.base_hparams(), self.reranker_hparams()
        self.train_config("train"), self.train_config("reranker")

    def corpus(self) -> CorpusConfig:
        return _derive(CorpusConfig, self, seed=stage_seed(self.seed, "corpus"))

    def base_hparams(self) -> BaseHParams:
        return _derive(BaseHParams, self)

    def reranker_hparams(self) -> RerankerHParams:
        try:
            return _derive(RerankerHParams, self, d=self.reranker_d,
                           n_heads=self.reranker_heads)
        except ValidationError as exc:  # RerankerHParams names its fields d and n_heads
            raise ValidationError(f"{exc} (config keys reranker_heads and reranker_d)") from None

    def train_config(self, stage: str) -> TrainConfig:
        """The optimizer settings of `stage` ("train", "reranker" or
        "fractions"), seeded from that stage's stream."""
        budget = ({"max_epochs": self.reranker_max_epochs,
                   "patience": self.reranker_patience} if stage == "reranker" else {})
        return _derive(TrainConfig, self, seed=stage_seed(self.seed, stage), **budget)


def _derive(cls, rc: RunConfig, **overrides):
    """`cls` built from the RunConfig fields named like its own; `overrides`
    supply the fields RunConfig names differently (or derives)."""
    shared = {f.name: getattr(rc, f.name) for f in fields(cls) if f.name not in overrides}
    return cls(**shared, **overrides)


_TYPES = get_type_hints(RunConfig)


def _parse_value(key: str, raw: str, lineno: int):
    try:
        value = _TYPES[key](raw)
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"line {lineno}: {key!r} must be finite, got {raw!r}")
    return value


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _TYPES:
            raise ValidationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, lineno)
    return RunConfig(**values)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)  # repr round-trips exactly
    return str(value)


def config_text(config: RunConfig) -> str:
    """The canonical form: every key, declaration order, one per line."""
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def config_sha256(config: RunConfig) -> str:
    return hashlib.sha256(config_text(config).encode("utf-8")).hexdigest()


def stage_seed(master: int, stage: str) -> int:
    """A per-stage 64-bit stream seed, stable across runs and platforms."""
    digest = hashlib.sha256(f"{master}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def parse_fractions(spec: str) -> list[float]:
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise ValidationError("fractions list is empty")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"bad fractions list {spec!r}: {exc}") from None
