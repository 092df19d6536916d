"""Dedup, label filtering, vocabulary, tokenization."""

import datetime as dt
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icdlab.corpus import CorpusConfig, Encounter, generate_corpus
from icdlab.errors import ValidationError
from icdlab.preprocess import (
    UNK_ID,
    Vocabulary,
    build_vocab,
    dedup_ditto,
    encounter_aux_text,
    filter_min_frequency,
    preprocess_train,
    text_tokens,
    tokenize,
)


def enc(pid, day, codes, text="note", **kw):
    return Encounter(pid, dt.date(2020, 1, day), kw.get("dept", "D0"),
                     kw.get("doctor", "DR0"), text, frozenset(codes),
                     kw.get("meds", ()), kw.get("procs", ()))


# ---------------------------------------------------------------------------
# dedup_ditto
# ---------------------------------------------------------------------------


def test_dedup_consecutive_rule():
    seq = [
        enc("P", 1, ["A00.0"]),
        enc("P", 2, ["A00.0"]),
        enc("P", 3, ["A00.0", "B00.0"]),
        enc("P", 4, ["A00.0", "B00.0"]),
        enc("P", 5, ["A00.0"]),
    ]
    kept = dedup_ditto(seq)
    assert [e.date.day for e in kept] == [1, 3, 5]


def test_dedup_single_encounter_unchanged():
    seq = [enc("P", 1, ["A00.0"])]
    assert dedup_ditto(seq) == seq


def test_dedup_set_equality_ignores_order():
    seq = [enc("P", 1, ["A00.0", "B00.0"]), enc("P", 2, ["B00.0", "A00.0"])]
    assert len(dedup_ditto(seq)) == 1


def test_dedup_sorts_by_date_before_matching():
    seq = [enc("P", 3, ["A00.0"]), enc("P", 1, ["A00.0"]), enc("P", 2, ["B00.0"])]
    kept = dedup_ditto(seq)
    assert [e.date.day for e in kept] == [1, 2, 3]


def test_dedup_global_scope_drops_any_earlier_match():
    seq = [
        enc("P", 1, ["A00.0"]),
        enc("P", 2, ["B00.0"]),
        enc("P", 3, ["A00.0"]),  # global: matches day 1
    ]
    assert len(dedup_ditto(seq, scope="global")) == 2
    assert len(dedup_ditto(seq, scope="consecutive")) == 3


def test_dedup_unknown_scope_rejected():
    with pytest.raises(ValidationError, match="unknown dedup scope 'fancy'"):
        dedup_ditto([enc("P", 1, ["A00.0"])], scope="fancy")


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_dedup_idempotent_and_keeps_first(seed):
    rng = np.random.default_rng(seed)
    codes = ["A00.0", "B00.0", "C00.0"]
    seq = []
    for day in range(1, 1 + int(rng.integers(1, 12))):
        picked = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        seq.append(enc("P", day, [codes[i] for i in picked]))
    once = dedup_ditto(seq)
    assert dedup_ditto(once) == once
    earliest = min(seq, key=lambda e: e.date)
    assert once[0].date == earliest.date


def test_dedup_corpus_handles_interleaved_patients():
    # a whole split: patients keep first-seen order, and a code set matches
    # only its own patient's earlier ones
    seq = [
        enc("P1", 1, ["A00.0"]),
        enc("P2", 3, ["B00.0"]),
        enc("P1", 2, ["A00.0"]),
        enc("P2", 1, ["C00.0"]),
        enc("P3", 1, ["A00.0"]),
        enc("P2", 2, ["B00.0"]),
        enc("P1", 3, ["B00.0"]),
    ]
    for scope in ("consecutive", "global"):
        kept = dedup_ditto(seq, scope)
        assert [(e.patient_id, e.date.day) for e in kept] == [
            ("P1", 1), ("P1", 3), ("P2", 1), ("P2", 2), ("P3", 1)]
    assert [(e.patient_id, e.date.day) for e in dedup_ditto(seq, "none")] == [
        ("P1", 1), ("P1", 2), ("P1", 3), ("P2", 1), ("P2", 2), ("P2", 3), ("P3", 1)]


# ---------------------------------------------------------------------------
# filter_min_frequency
# ---------------------------------------------------------------------------


def test_filter_zero_is_identity():
    docs = [enc("P", 1, ["A00.0"]), enc("P", 2, ["B00.0"])]
    out, retained = filter_min_frequency(docs, 0)
    assert out == docs
    assert retained == {"A00.0", "B00.0"}


def test_filter_strips_rare_label_keeps_doc():
    docs = [enc("P", d, ["A00.0"]) for d in range(1, 4)]
    docs.append(enc("P", 4, ["A00.0", "B00.0"]))
    out, retained = filter_min_frequency(docs, 2)
    assert len(out) == 4
    assert retained == {"A00.0"}
    assert out[3].codes == frozenset(["A00.0"])


def test_filter_drops_emptied_doc():
    docs = [enc("P", 1, ["A00.0"]), enc("P", 2, ["A00.0"]), enc("P", 3, ["B00.0"])]
    out, retained = filter_min_frequency(docs, 2)
    assert len(out) == 2
    assert retained == {"A00.0"}


def test_filter_negative_rejected():
    with pytest.raises(ValidationError, match="min_count must be non-negative, got -1"):
        filter_min_frequency([], -1)


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_filter_recount_property(seed, k):
    rng = np.random.default_rng(seed)
    codes = [f"A{i:02d}.0" for i in range(8)]
    docs = []
    for d in range(30):
        picked = rng.choice(8, size=int(rng.integers(1, 4)), replace=False)
        docs.append(enc(f"P{d}", 1 + d % 27, [codes[i] for i in picked]))
    out, retained = filter_min_frequency(docs, k)
    recount: dict[str, int] = {}
    for e in out:
        for c in e.codes:
            recount[c] = recount.get(c, 0) + 1
    # docs carrying a retained label are never dropped, so post-filter
    # document frequency equals the pre-filter count and stays ≥ k
    assert set(recount) == retained
    for c in retained:
        assert recount[c] >= k
    for e in out:
        assert e.codes  # no emptied documents


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocab_frequency_then_alpha_order():
    v = build_vocab(["a a b"])
    assert tokenize("a b", v).token_ids == (2, 3)
    assert len(v) == 4


def test_vocab_tie_broken_alphabetically():
    v = build_vocab(["b a", "a b"])  # equal counts
    assert tokenize("a b", v).token_ids == (2, 3)


def test_vocab_min_count_prunes_everything():
    v = build_vocab(["x y z"], min_token_count=5)
    assert len(v) == 2  # reserved only
    assert tokenize("x", v).token_ids == (UNK_ID,)


def test_vocab_lowercases_and_splits_punctuation():
    v = build_vocab(["Hello, WORLD-42!"])
    assert sorted(v.tokens) == ["42", "hello", "world"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=12), max_size=6), st.integers(1, 3))
@example(["ab", "cd", "aBc\nd", "İstanbul KELVIN", "ΟΔΟΣ ΟΔΟΣx", "x9", "9y", "", " ",
          "tab\tend\u2028a\x85b", "ǅx ß ﬁ", "a-b_c"], 2)  # ends, case maps, separators
def test_vocab_counts_are_the_per_text_sums(texts, min_count):
    counts = Counter(t for text in texts for t in text_tokens(text))
    kept = sorted((t for t in counts if counts[t] >= min_count), key=lambda t: (-counts[t], t))
    assert list(build_vocab(texts, min_count).tokens) == kept


def test_vocab_round_trip():
    v = build_vocab(["alpha beta beta"])
    back = Vocabulary.from_json(v.to_json())
    assert back == v
    assert back.sha256() == v.sha256()


def test_vocab_rebuild_is_deterministic():
    texts = ["m17 r4 aspirin", "aspirin m17"]
    assert build_vocab(texts) == build_vocab(texts)


def test_vocab_min_count_must_be_positive():
    with pytest.raises(ValidationError, match="min_token_count must be ≥ 1, got 0"):
        build_vocab([], min_token_count=0)


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_empty_text_is_empty():
    v = build_vocab(["a"])
    assert tokenize("", v).token_ids == ()


def test_tokenize_unknown_token():
    v = build_vocab(["a"])
    assert tokenize("xyzzy", v).token_ids == (UNK_ID,)


def test_tokenize_truncates_head():
    v = build_vocab(["t"])
    long_text = " ".join(["t"] * 600)
    note = tokenize(long_text, v)
    assert len(note.token_ids) == 512
    assert set(note.token_ids) == {2}


def test_aux_text_joins_meds_and_procs_lowercased():
    e = enc("P", 1, ["A00.0"], meds=("M17", "M3"), procs=("R4",))
    assert encounter_aux_text(e) == "m17 m3 r4"


def test_aux_text_empty_when_no_metadata():
    assert encounter_aux_text(enc("P", 1, ["A00.0"])) == ""


# ---------------------------------------------------------------------------
# pipeline report
# ---------------------------------------------------------------------------


def test_pipeline_runs_dedup_then_filter():
    cfg = CorpusConfig(n_patients=60, n_codes=30, n_depts=4, n_doctors=8,
                       tokens_per_code=3, vocab_size=50, ditto_probability=0.5,
                       mean_encounters_per_patient=8.0, seed=21)
    encs, _ = generate_corpus(cfg)
    out, retained, report = preprocess_train(encs, min_count=3)
    assert report.order == ("dedup_ditto", "filter_min_frequency")
    assert report.docs_before == len(encs)
    assert report.docs_after_dedup < report.docs_before  # dittos removed
    assert report.docs_after_filter == len(out)
    assert report.labels_retained == len(retained)
    # recount: every retained label appears in ≥ 3 filtered docs
    counts = {}
    for e in out:
        for c in e.codes:
            counts[c] = counts.get(c, 0) + 1
    assert all(counts[c] >= 3 for c in counts)
    text = report.as_text()
    assert "dedup_ditto -> filter_min_frequency" in text
    csv = report.as_csv()
    assert csv.splitlines()[0] == "stage,documents,distinct_labels"
