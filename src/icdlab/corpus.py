"""Outpatient encounter data model and the synthetic corpus generator.

The generator produces a corpus with four controllable pathologies that
mirror how real outpatient coding data misbehaves:

* label frequencies follow a Zipf law, so most codes are rare;
* a "ditto" habit: with some probability an encounter copies the previous
  encounter's code set, metadata, and most of its text (copies of copies
  drift, so stale duplicates carry codes with thinning text evidence);
* a fraction of codes are "silent": they never emit text evidence, only
  deterministic medication/procedure entries (metadata-only signal);
* the department is a function of the primary code's chapter, and doctors
  belong to departments.

All randomness flows from CorpusConfig.seed; the same config yields a
bitwise-identical corpus.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import itertools
import json
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring

import numpy as np

from .errors import ValidationError, reading

# \Z, not $: $ also matches before a final newline
CODE_RE = re.compile(r"^[A-Z]\d{2}(\.[A-Za-z0-9]{1,4})?\Z")

# Probability that a chronic code is recorded as a same-chapter sibling
# instead of itself: models coder variability, which is what the level-3
# consistency check is designed to catch.
SIBLING_SWAP_PROB = 0.08


def chapter(code: str) -> str:
    """First three characters: the code's chapter (e.g. 'E78' of 'E78.5')."""
    return code[:3]


@dataclass(frozen=True)
class Encounter:
    """One outpatient visit: note text, assigned codes, and metadata.

    Its codes are a non-empty frozenset of CODE_RE codes, its meds and procs
    tuples. Nothing checks that here: `generate_corpus` builds them so, and
    `read_encounters`, the one way file data becomes an Encounter, checks
    them.
    """

    patient_id: str
    date: dt.date
    dept: str
    doctor: str
    text: str
    codes: frozenset[str]
    meds: tuple[str, ...] = ()
    procs: tuple[str, ...] = ()


@dataclass(frozen=True)
class LabelSpace:
    """Ordered code universe; the order fixes probability-vector indexing."""

    codes: tuple[str, ...]
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "codes", tuple(self.codes))
        if len(set(self.codes)) != len(self.codes):
            raise ValidationError("label space contains duplicate codes")
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(self.codes)})

    def __len__(self) -> int:
        return len(self.codes)

    def train_count(self, code: str) -> int:
        return self.counts.get(code, 0)

    def indices(self, codes) -> np.ndarray:
        """(len(codes),) int64: the label index of each code, -1 for a code
        outside the space."""
        return np.fromiter(map(self._index.get, codes, itertools.repeat(-1)), np.int64,
                           len(codes))

    def with_train_counts(self, encounters) -> "LabelSpace":
        """Counts each document once per code (code sets are sets)."""
        counts = code_counts(encounters)
        return LabelSpace(self.codes, {c: n for c, n in counts.items() if c in self._index})

    def to_json(self) -> str:
        payload = {"codes": list(self.codes), "counts": {c: self.counts[c] for c in sorted(self.counts)}}
        return json.dumps(payload, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LabelSpace":
        """The label space `to_json` wrote: `codes` a non-empty list of
        distinct CODE_RE strings, `counts` an object mapping codes of that
        list to non-negative integers. Anything else raises an exception that
        `errors.reading` reports as a ValidationError naming the file."""
        payload = json.loads(text)
        codes, counts = payload["codes"], payload["counts"]
        if (type(codes) is not list or not codes or not all(type(c) is str for c in codes)
                or first_malformed(codes) is not None or len(set(codes)) != len(codes)):
            raise ValueError("codes must be a non-empty list of distinct codes")
        if (type(counts) is not dict or not counts.keys() <= set(codes)
                or not all(type(n) is int and n >= 0 for n in counts.values())):
            raise ValueError("counts must map codes of the label space to non-negative integers")
        return cls(tuple(codes), counts)

    def sha256(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Split:
    train: list
    dev: list
    test: list


@dataclass(frozen=True)
class CorpusConfig:
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
    seed: int = 42

    def __post_init__(self):
        for name in ("n_patients", "n_codes", "n_depts", "n_doctors", "tokens_per_code", "vocab_size"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("ditto_probability", "omitted_evidence_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must lie in [0,1], got {getattr(self, name)}")
        if self.zipf_exponent <= 0:
            raise ValidationError(f"zipf_exponent must be positive, got {self.zipf_exponent}")
        if self.mean_encounters_per_patient <= 0 or self.mean_codes_per_encounter < 1:
            raise ValidationError("encounter/code means out of range")
        if self.n_codes > 26 * 100:
            raise ValidationError(f"n_codes={self.n_codes} exhausts the letter+2-digit chapter namespace (max 2600)")
        if self.n_doctors < self.n_depts:
            raise ValidationError("need at least one doctor per department")


# --------------------------------------------------------------------------
# generator internals
# --------------------------------------------------------------------------


def _code_space(config: CorpusConfig) -> tuple[list[str], list[str]]:
    """Codes plus their chapters; chapters host 1-3 sibling codes each."""
    rng = np.random.default_rng([config.seed, 0])
    codes: list[str] = []
    chapters: list[str] = []
    ci = 0
    while len(codes) < config.n_codes:
        ch = f"{chr(65 + ci // 100)}{ci % 100:02d}"
        for k in range(int(rng.integers(1, 4))):
            if len(codes) == config.n_codes:
                break
            codes.append(f"{ch}.{k}")
            chapters.append(ch)
        ci += 1
    return codes, chapters


def silent_code_indices(config: CorpusConfig) -> set[int]:
    """The deterministic set of codes that emit no text evidence.

    Drawn from outside the most frequent few ranks so the corpus stays
    learnable from text alone.
    """
    head_protect = max(5, config.n_codes // 20)
    candidates = np.arange(head_protect, config.n_codes)
    want = round(config.omitted_evidence_fraction * config.n_codes)
    n_silent = min(want, candidates.size)
    if n_silent <= 0:
        return set()
    rng = np.random.default_rng([config.seed, 1])
    return set(int(i) for i in rng.choice(candidates, size=n_silent, replace=False))


def _zipf_probs(n: int, s: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -s
    return w / w.sum()


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative table of `p`, built as `Generator.choice` builds it on
    every call, so `_draw` over it returns what `choice(p.size, size, p=p)`
    returns and consumes the same stream."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng, cdf: np.ndarray, size=None):
    """Index (or array of `size` indices) drawn by inverse transform."""
    return cdf.searchsorted(rng.random(size), side="right")


def _choose_distinct(rng, p: np.ndarray, cdf: np.ndarray, size: int) -> np.ndarray:
    """`size` distinct indices, as `rng.choice(p.size, size, replace=False, p=p)`
    draws them over `cdf = _cdf(p)`: numpy's own loop (draw the shortfall,
    zero the found entries and rebuild the table from the second round on,
    keep first occurrences in draw order), without re-checking `p` per call.
    Same indices, same stream consumed."""
    found: list[int] = []
    while len(found) < size:
        x = rng.random(size - len(found))
        if found:
            p = p.copy()
            p[found] = 0.0
            cdf = _cdf(p)
        found += dict.fromkeys(cdf.searchsorted(x, side="right").tolist())
    return np.array(found, dtype=np.int64)


def _sample_code_set(rng, chronic: np.ndarray, zipf_cdf: np.ndarray, siblings: dict[int, list[int]], mean_codes: float) -> set[int]:
    n_draw = 1 + rng.poisson(mean_codes - 1.0)
    out: set[int] = set()
    for _ in range(int(n_draw)):
        if chronic.size and rng.random() < 0.6:
            j = int(chronic[rng.integers(0, chronic.size)])
            sibs = siblings[j]
            if sibs and rng.random() < SIBLING_SWAP_PROB:
                j = sibs[rng.integers(0, len(sibs))]
        else:
            j = int(_draw(rng, zipf_cdf))
        out.add(j)
    return out


def _note_tokens(rng, code_idxs: set[int], silent: set[int], config: CorpusConfig, noise_cdf: np.ndarray) -> list[str]:
    spoken = [j for j in sorted(code_idxs) if j not in silent]
    # one draw for all codes: the same stream as one draw of tokens_per_code per code
    variants = rng.integers(0, 3, size=(len(spoken), config.tokens_per_code)).tolist()
    toks = [f"c{j}v{k}" for j, row in zip(spoken, variants) for k in row]
    n_noise = 2 + int(rng.poisson(3.0))
    toks.extend(f"n{i}" for i in _draw(rng, noise_cdf, n_noise).tolist())
    return [toks[i] for i in rng.permutation(len(toks)).tolist()]


def _ditto_text(rng, prev_text: str) -> str:
    """Copy the previous note, dropping at most 20% of its tokens."""
    toks = prev_text.split()
    budget = len(toks) // 5
    kept = []
    for tok in toks:
        if budget > 0 and rng.random() < 0.15:
            budget -= 1
            continue
        kept.append(tok)
    return " ".join(kept) if kept else prev_text


def generate_corpus(config: CorpusConfig) -> tuple[list[Encounter], LabelSpace]:
    """Seeded synthetic corpus; returns encounters plus the label space."""
    codes, code_chapters = _code_space(config)
    labels = LabelSpace(tuple(codes))
    silent = silent_code_indices(config)
    zipf_p = _zipf_probs(config.n_codes, config.zipf_exponent)
    zipf_cdf = _cdf(zipf_p)  # every draw searches these, built once per corpus
    noise_cdf = _cdf(_zipf_probs(config.vocab_size, 1.2))

    # same-chapter siblings, for the coder-variability swap
    by_chapter: dict[str, list[int]] = {}
    for i, ch in enumerate(code_chapters):
        by_chapter.setdefault(ch, []).append(i)
    siblings = {i: [j for j in by_chapter[code_chapters[i]] if j != i] for i in range(config.n_codes)}

    distinct_chapters = sorted(set(code_chapters))
    dept_of_chapter = {ch: f"D{k % config.n_depts:02d}" for k, ch in enumerate(distinct_chapters)}
    doctors_of_dept: dict[str, list[str]] = {f"D{d:02d}": [] for d in range(config.n_depts)}
    for j in range(config.n_doctors):
        doctors_of_dept[f"D{j % config.n_depts:02d}"].append(f"DR{j:03d}")

    rng = np.random.default_rng([config.seed, 2])
    encounters: list[Encounter] = []
    for p in range(config.n_patients):
        pid = f"P{p:04d}"
        chronic_size = min(config.n_codes, 1 + int(rng.poisson(1.0)))
        chronic = _choose_distinct(rng, zipf_p, zipf_cdf, chronic_size)
        date = dt.date(2018, 1, 1) + dt.timedelta(days=int(rng.integers(0, 365)))
        n_enc = max(1, int(rng.poisson(config.mean_encounters_per_patient)))
        prev: Encounter | None = None
        prev_idxs: set[int] = set()
        for _ in range(n_enc):
            if prev is not None:
                date = date + dt.timedelta(days=int(rng.integers(1, 45)))
            if prev is not None and rng.random() < config.ditto_probability:
                enc = Encounter(pid, date, prev.dept, prev.doctor, _ditto_text(rng, prev.text),
                                prev.codes, prev.meds, prev.procs)
                idxs = prev_idxs
            else:
                idxs = _sample_code_set(rng, chronic, zipf_cdf, siblings, config.mean_codes_per_encounter)
                for _attempt in range(50):
                    if idxs != prev_idxs:
                        break
                    idxs = _sample_code_set(rng, chronic, zipf_cdf, siblings, config.mean_codes_per_encounter)
                if idxs == prev_idxs:  # force a difference deterministically
                    missing = [j for j in range(config.n_codes) if j not in idxs]
                    if missing:
                        idxs = idxs | {missing[0]}
                    elif len(idxs) > 1:
                        idxs = idxs - {max(idxs)}
                primary = min(idxs)
                dept = dept_of_chapter[code_chapters[primary]]
                pool = doctors_of_dept[dept]
                doctor = pool[int(rng.integers(0, len(pool)))]
                text = " ".join(_note_tokens(rng, idxs, silent, config, noise_cdf))
                meds = tuple(f"M{j}" for j in sorted(idxs) if j in silent)
                procs = tuple(f"R{j}" for j in sorted(idxs) if j in silent)
                enc = Encounter(pid, date, dept, doctor, text,
                                frozenset(codes[j] for j in idxs), meds, procs)
            encounters.append(enc)
            prev, prev_idxs = enc, idxs
    return encounters, labels


def split_by_patient(corpus: list[Encounter], n_dev_patients: int, n_test_patients: int, seed: int) -> Split:
    """Assign whole patients to train/dev/test uniformly at random."""
    pids = list(dict.fromkeys(e.patient_id for e in corpus))  # in first-seen order
    if n_dev_patients < 0 or n_test_patients < 0:
        raise ValidationError("split sizes must be non-negative")
    if n_dev_patients + n_test_patients >= len(pids):
        raise ValidationError(
            f"cannot hold out {n_dev_patients}+{n_test_patients} of {len(pids)} patients"
        )
    order = np.random.default_rng(seed).permutation(len(pids))
    dev_ids = {pids[i] for i in order[:n_dev_patients]}
    test_ids = {pids[i] for i in order[n_dev_patients : n_dev_patients + n_test_patients]}
    split = Split(
        train=[e for e in corpus if e.patient_id not in dev_ids and e.patient_id not in test_ids],
        dev=[e for e in corpus if e.patient_id in dev_ids],
        test=[e for e in corpus if e.patient_id in test_ids],
    )
    return split


# --------------------------------------------------------------------------
# JSON-lines split files: one object per line, fixed fields
# --------------------------------------------------------------------------

# field type -> exact JSON type of the value and of its items, and what an error calls it
_KINDS = {str: (str, None, "a string"), list[str]: (list, str, "a list of strings")}
_ENCOUNTER_TYPES = {"patient_id": str, "date": str, "dept": str, "doctor": str, "text": str,
                    "codes": list[str], "meds": list[str], "procs": list[str]}
_decode = json.JSONDecoder().decode  # json.loads without its per-call checks
# the fields that become numpy str columns, whose fixed-width strings drop a trailing U+0000
_STR_FIELDS = ("patient_id", "dept", "doctor", "meds", "procs")


def write_encounters(path, encounters: list[Encounter]) -> None:
    """One JSON object per encounter and line, fields in a fixed order: the
    bytes JSONEncoder(ensure_ascii=False) gives, written from its own
    encode_basestring."""
    quote = encode_basestring
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(
            f'{{"patient_id": {quote(e.patient_id)}, "date": "{e.date.isoformat()}", '
            f'"dept": {quote(e.dept)}, "doctor": {quote(e.doctor)}, "text": {quote(e.text)}, '
            f'"codes": [{", ".join(map(quote, sorted(e.codes)))}], '
            f'"meds": [{", ".join(map(quote, e.meds))}], '
            f'"procs": [{", ".join(map(quote, e.procs))}]}}\n' for e in encounters))


def read_columns(path, types: dict) -> tuple[dict[str, list], list[int], str]:
    """A JSON-lines file's non-blank lines as columns, one list per field of
    `types` (name -> str or list[str]), and their line numbers. Lines end at
    "\n" only, as json.dumps leaves U+2028 and U+0085 as they are. Each line
    is decoded and checked before its fields are appended, and no decoded
    row is kept: an object of exactly the fields of `types`, each of exactly
    its type in `types` order. The columns end before the first line that
    fails, whose fault is returned as `path:line: ...` ("" if none)."""
    with open(path, encoding="utf-8") as fh, reading(path):
        text = fh.read()
    columns = {name: [] for name in types}
    appends, values = [c.append for c in columns.values()], operator.itemgetter(*types)
    checks = [(name, *_KINDS[kind]) for name, kind in types.items()]
    linenos = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            fault = _json_fault(row := _decode(line), types, checks)
        except json.JSONDecodeError as exc:
            fault = f"not valid JSON ({exc.msg})"
        except RecursionError:
            fault = "JSON nested too deeply"
        if fault:
            return columns, linenos, f"{path}:{lineno}: {fault}"
        linenos.append(lineno)
        for append, value in zip(appends, values(row)):
            append(value)
    return columns, linenos, ""


def _json_fault(row, types: dict, checks: list) -> str:
    """Why a decoded line is not a row of `types`, "" if it is: a wrong field
    set before any field's type."""
    if type(row) is not dict:
        return "expected an object"
    if row.keys() != types.keys():
        return (f"missing fields {[f for f in types if f not in row]}, "
                f"unknown fields {[f for f in row if f not in types]}")
    for name, exact, item, kind in checks:
        value = row[name]
        if type(value) is not exact:
            return f"{name} must be {kind}"
        if item:
            for x in value:  # a loop, not all(): no generator per field
                if type(x) is not item:
                    return f"{name} must be {kind}"
    return ""


# the checks of a split that both its readers make (split files and packed
# splits), each giving the first faulty index or None


def first_nul(values: list) -> int | None:
    """A value (a string or a list of them) holding U+0000, which a numpy str
    column drops when it ends a string."""
    if values and type(values[0]) is list:  # a row's strings checked as one
        values = list(map("".join, values))
    if "\0" not in "".join(values):  # one pass in C for the common case
        return None
    return next(i for i, v in enumerate(values) if "\0" in v)


def first_empty(offsets: np.ndarray) -> int | None:
    """A row of a packed column (row i: values[offsets[i]:offsets[i + 1]])
    that holds no value."""
    return next(iter(np.flatnonzero(np.diff(offsets) == 0).tolist()), None)


def first_repeat(codes: list[str], offsets: np.ndarray) -> int | None:
    """A row of packed codes in which a code is not greater than the one
    before it: for codes sorted per row, a repeated code."""
    row = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    bad = np.fromiter(map(operator.ge, codes, codes[1:]), bool, max(len(codes) - 1, 0))
    return next(iter(row[1:][bad & (row[1:] == row[:-1])].tolist()), None)


def first_malformed(codes: list[str]) -> int | None:
    """A code that CODE_RE does not match; each distinct code is matched once."""
    bad = next((c for c in dict.fromkeys(codes) if not CODE_RE.match(c)), None)
    return None if bad is None else codes.index(bad)


def read_encounters(path) -> list[Encounter]:
    """The encounters of a split file (`read_columns`). The first faulty row
    raises a ValidationError naming `path:line`, checked in this order: U+0000
    in a column of _STR_FIELDS, duplicate codes, a date other than YYYY-MM-DD
    as isoformat writes it, an empty code set, a malformed code (a check: its
    first faulty row or None, and its message). Else the fault `read_columns`
    found, if any, is raised."""
    columns, linenos, fault = read_columns(path, _ENCOUNTER_TYPES)
    texts, code_lists = columns["date"], columns["codes"]
    codes = [c for row in code_lists for c in sorted(row)]
    offsets = np.cumsum([0, *map(len, code_lists)])
    dates = []
    for text in texts:  # up to the first bad one; from 3.11 fromisoformat reads more forms
        try:
            if len(text) != 10 or text[4] != "-" or text[7] != "-":
                break
            dates.append(dt.date.fromisoformat(text))
        except ValueError:
            break
    at, empty, bad = len(dates), first_empty(offsets), first_malformed(codes)
    faults = [(first_nul(columns[name]), lambda name=name: f"{name} must not contain U+0000")
              for name in _STR_FIELDS]
    faults += [(first_repeat(codes, offsets), lambda: "duplicate codes in record"),
               (at if at < len(texts) else None, lambda: f"bad date {texts[at]!r}"),
               (empty, lambda: f"encounter {columns['patient_id'][empty]}/{texts[empty]}: "
                               "empty code set"),
               (None if bad is None else int(np.searchsorted(offsets, bad, "right")) - 1,
                lambda: f"malformed code {codes[bad]!r}")]
    found = [check for check in faults if check[0] is not None]
    if found:  # the earliest row, and in it the first check it fails
        row, message = min(found, key=operator.itemgetter(0))
        raise ValidationError(f"{path}:{linenos[row]}: {message()}")
    if fault:
        raise ValidationError(fault)
    return list(map(Encounter, columns["patient_id"], dates, columns["dept"], columns["doctor"],
                    columns["text"], map(frozenset, columns["codes"]),
                    map(tuple, columns["meds"]), map(tuple, columns["procs"])))


# --------------------------------------------------------------------------
# corpus statistics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusStats:
    n_documents: int
    n_patients: int
    n_distinct_codes: int
    mean_text_chars: float
    mean_codes_per_doc: float

    def as_text(self) -> str:
        return text_table([("Documents", self.n_documents), ("Patients", self.n_patients),
                           ("Distinct codes", self.n_distinct_codes),
                           ("Mean document length (chars)", f"{self.mean_text_chars:.2f}"),
                           ("Mean codes per document", f"{self.mean_codes_per_doc:.2f}")], 31)


def text_table(rows, width: int) -> str:
    """One `label value` line per (label, value) row, the label padded to `width`."""
    return "".join(f"{label:<{width}}{value}\n" for label, value in rows)


def code_counts(encounters) -> Counter:
    """The number of documents that carry each code (code sets are sets)."""
    return Counter(c for e in encounters for c in e.codes)


def corpus_stats(encounters: list[Encounter]) -> CorpusStats:
    n, counts = len(encounters), code_counts(encounters)
    return CorpusStats(n, len({e.patient_id for e in encounters}), len(counts),
                       sum(len(e.text) for e in encounters) / n if n else 0.0,
                       sum(counts.values()) / n if n else 0.0)
