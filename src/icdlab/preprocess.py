"""Training-data preparation: ditto de-duplication of a whole split, patient
by patient (`dedup_ditto`), minimum-frequency label filtering, vocabulary
construction, and tokenization.

Order matters and is fixed: de-duplicate first, then filter rare labels
(counts taken on the deduplicated set). Evaluation sets are never label-
filtered; they pass through untouched.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass

from .corpus import Encounter, code_counts, corpus_stats, text_table
from .errors import ValidationError

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
    """Drop the copied-forward encounters of a whole split.

    Patients keep their first-seen order, each one's encounters sorted by
    date (stable on ties). One pass then removes an encounter iff its code
    set equals its patient's previous retained code set. scope="global" is
    the stricter documented alternative: drop any encounter whose code set
    matches ANY earlier retained one of its patient. scope="none" only sorts,
    keeping every encounter (the undeduplicated pipeline variant).
    """
    if scope not in DEDUP_SCOPES:
        raise ValidationError(f"unknown dedup scope {scope!r}")
    rank = {pid: i for i, pid in enumerate(dict.fromkeys(e.patient_id for e in encounters))}
    ordered = sorted(encounters, key=lambda e: (rank[e.patient_id], e.date))
    if scope == "none":
        return ordered
    kept, seen = [], {pid: set() for pid in rank}  # per patient: the code sets to drop
    for enc in ordered:
        codes = seen[enc.patient_id]
        if enc.codes not in codes:
            kept.append(enc)
            if scope == "consecutive":
                codes.clear()
            codes.add(enc.codes)
    return kept


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
        raise ValidationError(f"min_count must be non-negative, got {min_count}")
    retained = {c for c, n in code_counts(train).items() if n >= min_count}
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

    def to_json(self) -> str:
        return json.dumps({"tokens": list(self.tokens)}, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        """The vocabulary `to_json` wrote: `tokens` a list of distinct
        non-empty strings. Anything else raises an exception that
        `errors.reading` reports as a ValidationError naming the file."""
        tokens = json.loads(text)["tokens"]
        if (type(tokens) is not list or not all(type(t) is str and t for t in tokens)
                or len(set(tokens)) != len(tokens)):
            raise ValueError("tokens must be a list of distinct non-empty strings")
        return cls(tuple(tokens))

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def build_vocab(texts, min_token_count: int = 1) -> Vocabulary:
    """Ids in descending-frequency order, ties alphabetical."""
    if min_token_count < 1:
        raise ValidationError(f"min_token_count must be ≥ 1, got {min_token_count}")
    # one pass over the texts joined by spaces: no token spans a space, and
    # lower() maps each character on its own (a final sigma lowers to a letter
    # outside every token either way), so the counts are the per-text sums
    counts = Counter(text_tokens(" ".join(texts)))
    kept = [t for t, n in counts.items() if n >= min_token_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(tuple(kept))


@dataclass(frozen=True)
class TokenizedNote:
    token_ids: tuple[int, ...]


def tokenize(text: str, vocab: Vocabulary, max_len: int | None = 512) -> TokenizedNote:
    """Head-truncated id sequence (max_len None: untruncated): the ids of the
    tokens found, none for an empty text, never PAD_ID."""
    id_of = vocab._ids.get
    return TokenizedNote(tuple([id_of(t, UNK_ID) for t in text_tokens(text)[:max_len]]))


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

    def as_text(self) -> str:
        return text_table([
            ("Pipeline order", " -> ".join(self.order)), ("Dedup scope", self.dedup_scope),
            ("Min label count", self.min_count), ("Documents (before)", self.docs_before),
            ("Documents (after dedup)", self.docs_after_dedup),
            ("Documents (after filter)", self.docs_after_filter),
            ("Distinct labels (before)", self.labels_before),
            ("Distinct labels (retained)", self.labels_retained),
            ("Mean codes per doc (before)", f"{self.mean_codes_before:.2f}"),
            ("Mean codes per doc (after)", f"{self.mean_codes_after:.2f}")], 31)

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
    deduped = dedup_ditto(train, scope=dedup_scope)
    filtered, retained = filter_min_frequency(deduped, min_count)
    before, after = corpus_stats(train), corpus_stats(filtered)
    report = PreprocessReport(
        order=("dedup_ditto", "filter_min_frequency"),
        docs_before=before.n_documents,
        docs_after_dedup=len(deduped),
        docs_after_filter=after.n_documents,
        labels_before=before.n_distinct_codes,
        labels_retained=len(retained),
        mean_codes_before=before.mean_codes_per_doc,
        mean_codes_after=after.mean_codes_per_doc,
        min_count=min_count,
        dedup_scope=dedup_scope,
    )
    return filtered, retained, report
