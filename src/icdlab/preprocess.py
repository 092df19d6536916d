"""Training-data preparation: ditto de-duplication, minimum-frequency label
filtering, vocabulary construction, and tokenization.

Order matters and is fixed: de-duplicate first, then filter rare labels
(counts taken on the deduplicated set). Evaluation sets are never label-
filtered; they pass through untouched.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .corpus import Encounter
from .errors import ConfigError, ContractError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

PAD_ID = 0
UNK_ID = 1


def text_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric runs; whitespace and punctuation split."""
    return _TOKEN_RE.findall(text.lower())


# --------------------------------------------------------------------------
# ditto de-duplication
# --------------------------------------------------------------------------

DEDUP_SCOPES = ("none", "consecutive", "global")


def dedup_ditto(encounters: list[Encounter], scope: str = "consecutive") -> list[Encounter]:
    """Drop copied-forward encounters of ONE patient.

    Sorts by date (stable on ties), then removes an encounter iff its code
    set equals the previous retained encounter's code set. scope="global"
    is the stricter documented alternative: drop any encounter whose code
    set matches ANY earlier retained one. scope="none" only sorts, keeping
    every encounter (the undeduplicated pipeline variant).
    """
    if scope not in DEDUP_SCOPES:
        raise ConfigError(f"unknown dedup scope {scope!r}")
    if not encounters:
        return []
    pids = {e.patient_id for e in encounters}
    if len(pids) > 1:
        raise ContractError(f"dedup_ditto expects one patient, got {sorted(pids)}")
    ordered = sorted(encounters, key=lambda e: e.date)
    if scope == "none":
        return ordered
    kept = [ordered[0]]
    seen = {ordered[0].codes}
    for enc in ordered[1:]:
        if scope == "consecutive":
            if enc.codes != kept[-1].codes:
                kept.append(enc)
        else:
            if enc.codes not in seen:
                kept.append(enc)
                seen.add(enc.codes)
    return kept


def dedup_corpus(encounters: list[Encounter], scope: str = "consecutive") -> list[Encounter]:
    """Per-patient dedup over a mixed corpus; patients keep first-seen order."""
    by_patient: dict[str, list[Encounter]] = {}
    order: list[str] = []
    for enc in encounters:
        if enc.patient_id not in by_patient:
            by_patient[enc.patient_id] = []
            order.append(enc.patient_id)
        by_patient[enc.patient_id].append(enc)
    out: list[Encounter] = []
    for pid in order:
        out.extend(dedup_ditto(by_patient[pid], scope=scope))
    return out


# --------------------------------------------------------------------------
# minimum-frequency label filtering (train only)
# --------------------------------------------------------------------------


def filter_min_frequency(train: list[Encounter], min_count: int) -> tuple[list[Encounter], set[str]]:
    """Strip labels observed in fewer than min_count train documents.

    Counts are document-level (one per document per label). Documents whose
    code set empties out are dropped entirely. Returns the filtered train
    set and the retained label set.
    """
    if min_count < 0:
        raise ConfigError(f"min_count must be non-negative, got {min_count}")
    counts: dict[str, int] = {}
    for enc in train:
        for c in enc.codes:
            counts[c] = counts.get(c, 0) + 1
    retained = {c for c, n in counts.items() if n >= min_count}
    if min_count <= 1:
        return list(train), retained
    out: list[Encounter] = []
    for enc in train:
        keep = enc.codes & retained
        if not keep:
            continue
        if keep == enc.codes:
            out.append(enc)
        else:
            out.append(Encounter(enc.patient_id, enc.date, enc.dept, enc.doctor,
                                 enc.text, keep, enc.meds, enc.procs))
    return out, retained


# --------------------------------------------------------------------------
# vocabulary and tokenization
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocabulary:
    """token → dense id; 0 is padding, 1 is unknown."""

    tokens: tuple[str, ...]  # id order, starting at id 2

    def __post_init__(self):
        object.__setattr__(self, "_ids", {t: i + 2 for i, t in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens) + 2

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_for(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def to_json(self) -> str:
        return json.dumps({"tokens": list(self.tokens)}, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        return cls(tuple(json.loads(text)["tokens"]))

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def build_vocab(texts, min_token_count: int = 1) -> Vocabulary:
    """Ids in descending-frequency order, ties alphabetical."""
    if min_token_count < 1:
        raise ConfigError(f"min_token_count must be ≥ 1, got {min_token_count}")
    counts: dict[str, int] = {}
    for text in texts:
        for tok in text_tokens(text):
            counts[tok] = counts.get(tok, 0) + 1
    kept = [t for t, n in counts.items() if n >= min_token_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(tuple(kept))


@dataclass(frozen=True)
class TokenizedNote:
    token_ids: tuple[int, ...]
    encounter: Encounter | None = None


def tokenize(text: str, vocab: Vocabulary, max_len: int = 512,
             encounter: Encounter | None = None) -> TokenizedNote:
    """Head-truncated id sequence; empty text becomes a lone padding token."""
    ids = [vocab.id_for(t) for t in text_tokens(text)[:max_len]]
    if not ids:
        ids = [PAD_ID]
    return TokenizedNote(tuple(ids), encounter)


def encounter_aux_text(enc: Encounter) -> str:
    """The auxiliary note: medication and procedure names, in record order."""
    return " ".join([*enc.meds, *enc.procs]).lower()


# --------------------------------------------------------------------------
# pipeline with report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PreprocessReport:
    order: tuple[str, ...]
    docs_before: int
    docs_after_dedup: int
    docs_after_filter: int
    labels_before: int
    labels_retained: int
    mean_codes_before: float
    mean_codes_after: float
    min_count: int
    dedup_scope: str
    rows: tuple[tuple[str, str], ...] = field(default=())

    def as_text(self) -> str:
        lines = [
            f"Pipeline order                 {' -> '.join(self.order)}",
            f"Dedup scope                    {self.dedup_scope}",
            f"Min label count                {self.min_count}",
            f"Documents (before)             {self.docs_before}",
            f"Documents (after dedup)        {self.docs_after_dedup}",
            f"Documents (after filter)       {self.docs_after_filter}",
            f"Distinct labels (before)       {self.labels_before}",
            f"Distinct labels (retained)     {self.labels_retained}",
            f"Mean codes per doc (before)    {self.mean_codes_before:.2f}",
            f"Mean codes per doc (after)     {self.mean_codes_after:.2f}",
        ]
        return "\n".join(lines) + "\n"

    def as_csv(self) -> str:
        rows = [
            ("stage", "documents", "distinct_labels"),
            ("input", str(self.docs_before), str(self.labels_before)),
            ("dedup", str(self.docs_after_dedup), str(self.labels_before)),
            ("filter", str(self.docs_after_filter), str(self.labels_retained)),
        ]
        return "\n".join(",".join(r) for r in rows) + "\n"


def preprocess_train(train: list[Encounter], min_count: int,
                     dedup_scope: str = "consecutive") -> tuple[list[Encounter], set[str], PreprocessReport]:
    """Dedup then filter; the order is asserted in the report."""
    order = ("dedup_ditto", "filter_min_frequency")
    labels_before = set()
    for enc in train:
        labels_before.update(enc.codes)
    deduped = dedup_corpus(train, scope=dedup_scope)
    filtered, retained = filter_min_frequency(deduped, min_count)
    mean_before = sum(len(e.codes) for e in train) / len(train) if train else 0.0
    mean_after = sum(len(e.codes) for e in filtered) / len(filtered) if filtered else 0.0
    report = PreprocessReport(
        order=order,
        docs_before=len(train),
        docs_after_dedup=len(deduped),
        docs_after_filter=len(filtered),
        labels_before=len(labels_before),
        labels_retained=len(retained),
        mean_codes_before=mean_before,
        mean_codes_after=mean_after,
        min_count=min_count,
        dedup_scope=dedup_scope,
    )
    return filtered, retained, report
