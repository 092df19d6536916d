"""Synthetic corpus generator: pathologies, determinism, I/O, statistics."""

import datetime as dt
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdlab.corpus import (
    CODE_RE,
    CorpusConfig,
    Encounter,
    LabelSpace,
    _cdf,
    _choose_distinct,
    _draw,
    _note_tokens,
    _zipf_probs,
    chapter,
    code_counts,
    corpus_stats,
    first_malformed,
    generate_corpus,
    read_encounters,
    silent_code_indices,
    split_by_patient,
    text_table,
    write_encounters,
)
from icdlab.errors import ValidationError


def small_config(**kw):
    base = dict(
        n_patients=40, n_codes=30, n_depts=4, n_doctors=8, tokens_per_code=3,
        vocab_size=50, zipf_exponent=1.1, ditto_probability=0.3,
        omitted_evidence_fraction=0.2, mean_encounters_per_patient=6.0,
        mean_codes_per_encounter=1.4, seed=7,
    )
    base.update(kw)
    return CorpusConfig(**base)


def _avg_ranks(x):
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


def split_row(codes):
    """A split-file row holding `codes`."""
    return {"patient_id": "P1", "date": "2020-01-01", "dept": "D1", "doctor": "DR1",
            "text": "x", "codes": codes, "meds": [], "procs": []}


def _one_row_split(tmp_path, codes):
    """A split file whose one line is `split_row(codes)`."""
    path = tmp_path / "f.jsonl"
    path.write_text(json.dumps(split_row(codes)) + "\n", encoding="utf-8")
    return path


def test_encounter_rejects_empty_codes(tmp_path):
    path = _one_row_split(tmp_path, [])
    with pytest.raises(ValidationError) as err:
        read_encounters(path)
    assert str(err.value) == f"{path}:1: encounter P1/2020-01-01: empty code set"


@pytest.mark.parametrize("bad", ["e78.5", "E785", "E7.5", "E78.", "E78.12345", "XX78",
                                 "A00.0\n", "E78\n"])
def test_encounter_rejects_malformed_codes(tmp_path, bad):
    path = _one_row_split(tmp_path, [bad])
    with pytest.raises(ValidationError) as err:
        read_encounters(path)
    assert str(err.value) == f"{path}:1: malformed code {bad!r}"


@pytest.mark.parametrize("good", ["E78", "E78.5", "I70.203", "A00.0", "Z99.aB3x"])
def test_code_pattern_accepts_valid_forms(good):
    assert CODE_RE.match(good)


def test_a_code_ending_in_a_newline_is_malformed():
    # $ would match before the newline; the pattern ends at \Z
    assert first_malformed(["A00.0", "B12", "A00.0\n"]) == 2
    assert not CODE_RE.match("A00.0\n")


def test_chapter_is_first_three_chars():
    assert chapter("E78.5") == "E78"
    assert chapter("I70.203") == "I70"


def test_label_space_rejects_duplicates():
    with pytest.raises(ValidationError):
        LabelSpace(("E78.5", "E78.5"))


def test_label_space_round_trip_preserves_order():
    ls = LabelSpace(("B01.2", "A00.0", "C03.1"), {"A00.0": 5})
    back = LabelSpace.from_json(ls.to_json())
    assert back.codes == ls.codes
    assert back.train_count("A00.0") == 5
    assert back.indices(["C03.1", "Z99.9", "B01.2"]).tolist() == [2, -1, 0]
    assert ls.sha256() == back.sha256()


def test_train_counts_are_document_level():
    encs = [
        Encounter("P1", dt.date(2020, 1, 1), "D", "R", "t", frozenset(["A00.0", "B00.0"])),
        Encounter("P1", dt.date(2020, 1, 2), "D", "R", "t", frozenset(["A00.0"])),
    ]
    ls = LabelSpace(("A00.0", "B00.0", "C00.0")).with_train_counts(encs)
    assert ls.train_count("A00.0") == 2
    assert ls.train_count("B00.0") == 1
    assert ls.train_count("C00.0") == 0


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_single_patient_single_encounter():
    encs, labels = generate_corpus(small_config(n_patients=1, mean_encounters_per_patient=1.0))
    assert len({e.patient_id for e in encs}) == 1
    assert len(encs) >= 1
    assert len(labels) == 30


def test_same_seed_is_bitwise_identical():
    a, la = generate_corpus(small_config())
    b, lb = generate_corpus(small_config())
    assert a == b
    assert la.codes == lb.codes


def test_different_seed_differs():
    a, _ = generate_corpus(small_config(seed=1))
    b, _ = generate_corpus(small_config(seed=2))
    assert a != b


@pytest.mark.parametrize("p", [
    _zipf_probs(CorpusConfig().n_codes, CorpusConfig().zipf_exponent),
    _zipf_probs(CorpusConfig().vocab_size, 1.2),
], ids=["codes", "noise"])
@pytest.mark.parametrize("size", [None, 1, 7])
@pytest.mark.parametrize("seed", [0, 3, 42])
def test_cdf_draws_are_generator_choice(p, size, seed):
    """A draw from the prebuilt table returns what Generator.choice returns
    on a twin generator and leaves both streams at the same place."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = _cdf(p)
    for _ in range(50):
        got, want = _draw(rng, cdf, size), twin.choice(p.size, size, p=p)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert rng.random() == twin.random()


@pytest.mark.parametrize("p", [
    _zipf_probs(CorpusConfig().n_codes, CorpusConfig().zipf_exponent),
    _zipf_probs(10, 1.1),
    np.array([0.9, 0.05, 0.03, 0.015, 0.005]),  # skewed: most calls take several rounds
], ids=["codes", "ten", "skewed"])
def test_distinct_draws_are_generator_choice(p):
    """Distinct indices from the prebuilt table are those of
    Generator.choice(replace=False) on a twin generator, and both streams
    stay at the same place."""
    cdf = _cdf(p)
    for seed in range(60):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in [1, 2, 3, 4, 5] * 4:
            got = _choose_distinct(rng, p, cdf, size)
            want = twin.choice(p.size, size, replace=False, p=p)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert rng.random() == twin.random()


def test_zero_ditto_no_consecutive_identical_sets():
    encs, _ = generate_corpus(small_config(ditto_probability=0.0, n_patients=100))
    by_patient = {}
    for e in encs:
        by_patient.setdefault(e.patient_id, []).append(e)
    for seq in by_patient.values():
        for prev, cur in zip(seq, seq[1:]):
            assert prev.codes != cur.codes


def test_ditto_fraction_close_to_probability():
    p = 0.35
    cfg = small_config(n_patients=800, mean_encounters_per_patient=14.0,
                       ditto_probability=p, n_codes=60, seed=11)
    encs, _ = generate_corpus(cfg)
    assert len(encs) >= 10_000
    pairs = same = 0
    by_patient = {}
    for e in encs:
        by_patient.setdefault(e.patient_id, []).append(e)
    for seq in by_patient.values():
        for prev, cur in zip(seq, seq[1:]):
            pairs += 1
            same += prev.codes == cur.codes
    assert abs(same / pairs - p) < 0.05


def test_label_frequencies_track_zipf_rank():
    # many patients, few encounters each: chronic-set noise averages out
    cfg = small_config(n_patients=3000, mean_encounters_per_patient=4.0,
                       n_codes=40, ditto_probability=0.0, seed=3)
    encs, labels = generate_corpus(cfg)
    counts = np.zeros(len(labels))
    for e in encs:
        for c in e.codes:
            counts[labels.codes.index(c)] += 1
    ideal = np.arange(1, len(labels) + 1, dtype=float) ** -cfg.zipf_exponent
    rc, ri = _avg_ranks(counts), _avg_ranks(ideal)
    rho = np.corrcoef(rc, ri)[0, 1]
    assert rho >= 0.95


def test_silent_codes_emit_no_text_but_mark_meds():
    cfg = small_config(n_patients=120, seed=5)
    silent = silent_code_indices(cfg)
    assert silent  # fraction 0.2 of 30 codes → 6
    encs, labels = generate_corpus(cfg)
    checked_silent = 0
    for e in encs:
        toks = set(e.text.split())
        idxs = {labels.codes.index(c) for c in e.codes}
        for j in idxs:
            sig = {f"c{j}v{k}" for k in range(3)}
            if j in silent:
                assert not (sig & toks)
                assert f"M{j}" in e.meds and f"R{j}" in e.procs
                checked_silent += 1
            else:
                assert sig & toks
        for m in e.meds:
            assert int(m[1:]) in idxs
    assert checked_silent > 0


def test_omitted_fraction_zero_means_no_metadata():
    encs, _ = generate_corpus(small_config(omitted_evidence_fraction=0.0))
    assert all(not e.meds and not e.procs for e in encs)
    assert silent_code_indices(small_config(omitted_evidence_fraction=0.0)) == set()


def test_silent_codes_avoid_the_head_ranks():
    cfg = CorpusConfig(seed=9)
    head_protect = max(5, cfg.n_codes // 20)
    assert all(j >= head_protect for j in silent_code_indices(cfg))


def test_dept_is_function_of_primary_chapter():
    encs, labels = generate_corpus(small_config(n_patients=150))
    seen = {}
    for e in encs:
        primary = min(e.codes, key=labels.codes.index)
        ch = chapter(primary)
        if ch in seen:
            assert seen[ch] == e.dept
        seen[ch] = e.dept


def test_ditto_copies_keep_most_text():
    encs, _ = generate_corpus(small_config(ditto_probability=0.6, n_patients=150, seed=13))
    by_patient = {}
    for e in encs:
        by_patient.setdefault(e.patient_id, []).append(e)
    found = 0
    for seq in by_patient.values():
        for prev, cur in zip(seq, seq[1:]):
            if cur.codes == prev.codes and cur.meds == prev.meds:
                prev_toks = prev.text.split()
                cur_toks = cur.text.split()
                overlap = len(set(cur_toks) & set(prev_toks))
                assert len(cur_toks) >= int(0.8 * len(prev_toks))
                assert overlap >= int(0.8 * len(set(prev_toks)))
                found += 1
    assert found > 10


def test_dates_strictly_increase_per_patient():
    encs, _ = generate_corpus(small_config())
    by_patient = {}
    for e in encs:
        by_patient.setdefault(e.patient_id, []).append(e)
    for seq in by_patient.values():
        for prev, cur in zip(seq, seq[1:]):
            assert cur.date > prev.date


def test_namespace_exhaustion_rejected():
    with pytest.raises(ValidationError, match="n_codes=2601 exhausts"):
        CorpusConfig(n_codes=2601)


def test_invalid_probability_rejected():
    with pytest.raises(ValidationError, match=r"ditto_probability must lie in \[0,1\], got 1.5"):
        small_config(ditto_probability=1.5)
    with pytest.raises(ValidationError, match="zipf_exponent must be positive, got 0.0"):
        small_config(zipf_exponent=0.0)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_zero_holdout_keeps_everything_in_train():
    encs, _ = generate_corpus(small_config())
    s = split_by_patient(encs, 0, 0, seed=1)
    assert s.train == encs and not s.dev and not s.test


def test_split_three_patients_one_each():
    encs, _ = generate_corpus(small_config(n_patients=3))
    s = split_by_patient(encs, 1, 1, seed=4)
    for part in (s.train, s.dev, s.test):
        assert len({e.patient_id for e in part}) == 1
    assert len(s.train) + len(s.dev) + len(s.test) == len(encs)


def test_split_insufficient_patients_rejected():
    encs, _ = generate_corpus(small_config(n_patients=3))
    with pytest.raises(ValidationError):
        split_by_patient(encs, 2, 1, seed=0)


def test_split_same_seed_identical():
    encs, _ = generate_corpus(small_config())
    a = split_by_patient(encs, 5, 5, seed=9)
    b = split_by_patient(encs, 5, 5, seed=9)
    assert a.dev == b.dev and a.test == b.test and a.train == b.train


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_split_patient_disjointness(seed):
    encs, _ = generate_corpus(small_config(n_patients=12, mean_encounters_per_patient=3.0))
    s = split_by_patient(encs, 3, 3, seed=seed)
    train_p = {e.patient_id for e in s.train}
    dev_p = {e.patient_id for e in s.dev}
    test_p = {e.patient_id for e in s.test}
    assert not (train_p & dev_p) and not (train_p & test_p) and not (dev_p & test_p)
    assert len(s.train) + len(s.dev) + len(s.test) == len(encs)


# ---------------------------------------------------------------------------
# record file I/O
# ---------------------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    encs, _ = generate_corpus(small_config())
    path = tmp_path / "corpus.jsonl"
    write_encounters(path, encs)
    assert read_encounters(path) == encs


def test_empty_file_reads_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_encounters(path) == []


def test_duplicate_codes_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"patient_id":"P1","date":"2020-01-01","dept":"D1","doctor":"DR1","text":"t","codes":["E78.5"],"meds":[],"procs":[]}'
    bad = good.replace('["E78.5"]', '["E78.5","E78.5"]')
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":2"):
        read_encounters(path)


def test_unknown_field_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"patient_id":"P1","date":"2020-01-01","dept":"D","doctor":"R","text":"t",'
        '"codes":["E78.5"],"meds":[],"procs":[],"extra":1}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValidationError, match="extra"):
        read_encounters(path)


@pytest.mark.parametrize("edit, missing, unknown", [
    ({"patient_id": 1, "procs": None, "proc": []}, ["procs"], ["proc"]),  # as many fields
    ({"text": 1, "procs": None}, ["procs"], []),
    ({"codes": [1], "meds": None, "med": [], "x": 0}, ["meds"], ["med", "x"]),
], ids=["renamed", "missing", "renamed-and-extra"])
def test_a_wrong_field_set_is_reported_before_a_wrong_type(tmp_path, edit, missing, unknown):
    row = {"patient_id": "P1", "date": "2020-01-01", "dept": "D", "doctor": "R", "text": "t",
           "codes": ["E78.5"], "meds": [], "procs": []}
    row = {k: v for k, v in {**row, **edit}.items() if v is not None}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_encounters(path)
    assert str(err.value) == f"{path}:1: missing fields {missing}, unknown fields {unknown}"


def test_the_first_faulty_field_is_reported_whether_its_type_or_an_item_is_wrong(tmp_path):
    row = {**split_row([1]), "meds": "M1"}  # an item fault in codes, a type fault in meds
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_encounters(path)
    assert str(err.value) == f"{path}:1: codes must be a list of strings"


def test_malformed_json_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":1"):
        read_encounters(path)


# strings the JSON encoder escapes or keeps: quotes, backslashes, control
# characters, non-ASCII letters, an emoji, U+2028, U+0085 and a DEL
_HOSTILE = ['say "hi"', "back\\slash", "tab\there\nline", "soh\x01bell\x07esc\x1b",
            "Zoë Ødegård", "\U0001f600", "para\u2028sep\x85nel", "del\x7f", ""]


def test_the_split_writer_is_the_json_encoder(tmp_path):
    encode = json.JSONEncoder(ensure_ascii=False).encode
    encs = [Encounter(h + "P", dt.date(1 + 999 * i, 1 + i % 12, 1 + i), _HOSTILE[-1 - i],
                      "DR" + h, h, frozenset(["Z00.1", "A00.0", "B12"][:1 + i % 3]),
                      tuple(_HOSTILE[:i % 3]), tuple(_HOSTILE[i:i + 1]))
            for i, h in enumerate(_HOSTILE)]
    write_encounters(tmp_path / "s.txt", encs)
    want = "".join(encode({"patient_id": e.patient_id, "date": e.date.isoformat(),
                           "dept": e.dept, "doctor": e.doctor, "text": e.text,
                           "codes": sorted(e.codes), "meds": list(e.meds),
                           "procs": list(e.procs)}) + "\n" for e in encs)
    assert (tmp_path / "s.txt").read_bytes() == want.encode("utf-8")
    assert read_encounters(tmp_path / "s.txt") == encs


def _note_tokens_per_code(rng, code_idxs, silent, config, noise_cdf):
    """The note tokens as drawn before, one variant draw per spoken code."""
    toks = []
    for j in sorted(code_idxs):
        if j not in silent:
            variants = rng.integers(0, 3, size=config.tokens_per_code).tolist()
            toks.extend(f"c{j}v{k}" for k in variants)
    toks.extend(f"n{i}" for i in _draw(rng, noise_cdf, 2 + int(rng.poisson(3.0))).tolist())
    return [toks[i] for i in rng.permutation(len(toks)).tolist()]


@pytest.mark.parametrize("seed", range(20))
def test_one_variant_draw_per_note_is_one_draw_per_code(seed):
    # numpy's bounded integers keep their unused 32-bit half in the bit
    # generator, so one draw of every code's variants consumes the stream as
    # one draw per code does, and the notes are the same
    config = small_config(tokens_per_code=1 + seed % 5)
    noise_cdf = _cdf(_zipf_probs(config.vocab_size, 1.2))
    silent = {1, 4}
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in range(50):
        codes = set(np.random.default_rng([seed, n]).choice(6, 1 + n % 4).tolist())
        assert (_note_tokens(rngs[0], codes, silent, config, noise_cdf)
                == _note_tokens_per_code(rngs[1], codes, silent, config, noise_cdf))
    assert rngs[0].random() == rngs[1].random()


def test_codes_serialized_sorted(tmp_path):
    enc = Encounter("P1", dt.date(2020, 1, 1), "D", "R", "t", frozenset(["Z00.1", "A00.0"]))
    path = tmp_path / "c.jsonl"
    write_encounters(path, [enc])
    assert '"codes": ["A00.0", "Z00.1"]' in path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def test_mean_codes_per_document():
    e1 = Encounter("P1", dt.date(2020, 1, 1), "D", "R", "ab", frozenset(["A00.0", "A00.1"]))
    e2 = Encounter("P2", dt.date(2020, 1, 2), "D", "R", "abcd",
                   frozenset(["A00.0", "A00.1", "B00.0", "B00.1"]))
    stats = corpus_stats([e1, e2])
    assert stats.mean_codes_per_doc == 3.0
    assert stats.mean_text_chars == 3.0
    assert stats.n_patients == 2


def test_code_counts_are_documents_per_code():
    encs = [Encounter("P1", dt.date(2020, 1, 1), "D", "R", "t", frozenset(["A00.0", "B00.0"])),
            Encounter("P2", dt.date(2020, 1, 2), "D", "R", "t", frozenset(["A00.0"]))]
    assert code_counts(encs) == Counter({"A00.0": 2, "B00.0": 1})
    assert code_counts([]) == Counter()


def test_text_table_pads_each_label_to_the_width():
    assert text_table([("a", 1), ("bcd", "x y"), ("longer", 2.5)], 5) == (
        "a    1\nbcd  x y\nlonger2.5\n")
    assert text_table([], 5) == ""


def test_stats_match_independent_recount():
    encs, _ = generate_corpus(small_config())
    stats = corpus_stats(encs)
    # one-pass recount with plain python
    total_chars = total_codes = 0
    codes = set()
    pats = set()
    for e in encs:
        total_chars += len(e.text)
        total_codes += len(e.codes)
        codes |= e.codes
        pats.add(e.patient_id)
    assert stats.n_documents == len(encs)
    assert stats.n_patients == len(pats)
    assert stats.n_distinct_codes == len(codes)
    assert stats.mean_text_chars == pytest.approx(total_chars / len(encs))
    assert stats.mean_codes_per_doc == pytest.approx(total_codes / len(encs))
