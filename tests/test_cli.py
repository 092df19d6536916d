"""End-to-end runs of every subcommand on a miniature corpus.

The pipeline fixture executes the whole chain once per session; individual
tests then inspect its artifacts. Exit-code tests run tiny one-off commands.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest

import icdlab
from icdlab import cli
from icdlab.calibrate import _pav
from icdlab.checkpoint import load_params, save_params
from icdlab.cli import _eval_digests, load_isotonic, main, read_prediction_records
from icdlab.config import config_sha256, parse_config
from icdlab.corpus import LabelSpace, read_encounters
from icdlab.errors import ValidationError
from icdlab.metrics import Predictions, mean_recall_at_k
from icdlab.preprocess import Vocabulary

TINY_CFG = """\
# miniature end-to-end run
seed = 11
n_patients = 30
n_codes = 12
n_depts = 3
n_doctors = 5
tokens_per_code = 3
vocab_size = 120
mean_encounters_per_patient = 6.0
mean_codes_per_encounter = 1.3
n_dev_patients = 5
n_test_patients = 5
min_code_count = 1
d_e = 8
d_c = 8
kernel_width = 3
d_a = 4
reranker_d = 8
learning_rate = 0.01
batch_size = 8
max_epochs = 1
patience = 1
reranker_max_epochs = 1
fractions = 0.5,1.0
"""


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    d = {name: root / name for name in
         ("corpus", "prep", "model", "reranker", "eval_dev", "eval_test",
          "eval_rr", "calib", "auto", "report", "fractions")}
    c = str(cfg)
    steps = [
        ["gen-corpus", "--config", c, "--out", str(d["corpus"])],
        ["preprocess", "--config", c, "--in", str(d["corpus"]), "--out", str(d["prep"])],
        ["train", "--config", c, "--in", str(d["prep"]), "--out", str(d["model"])],
        ["train-reranker", "--config", c, "--in", str(d["prep"]),
         "--base", str(d["model"]), "--out", str(d["reranker"])],
        ["evaluate", "--config", c, "--in", str(d["prep"]), "--model", str(d["model"]),
         "--out", str(d["eval_dev"]), "--split", "dev"],
        ["evaluate", "--config", c, "--in", str(d["prep"]), "--model", str(d["model"]),
         "--out", str(d["eval_test"]), "--breakdown", "dept"],
        ["evaluate", "--config", c, "--in", str(d["prep"]), "--model", str(d["model"]),
         "--reranker", str(d["reranker"]), "--out", str(d["eval_rr"])],
        ["calibrate", "--config", c, "--in", str(d["eval_dev"]), "--out", str(d["calib"])],
        ["automate", "--config", c, "--dev", str(d["eval_dev"]),
         "--test", str(d["eval_test"]), "--out", str(d["auto"]),
         "--max-fp", "0.1,0.2", "--calibrated", "--maps", str(d["calib"])],
        ["report", "--config", c, "--in", str(d["eval_test"]), "--out", str(d["report"])],
        ["fractions", "--config", c, "--in", str(d["prep"]), "--out", str(d["fractions"])],
    ]
    for argv in steps:
        assert main(argv) == 0, f"command failed: {argv[0]}"
    d["cfg"] = cfg
    return d


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------


def test_gen_corpus_artifacts(pipeline):
    out = pipeline["corpus"]
    for name in ("train.txt", "dev.txt", "test.txt", "corpus_labels.json",
                 "stats.txt", "manifest.json"):
        assert (out / name).exists()
    train = read_encounters(out / "train.txt")
    dev = read_encounters(out / "dev.txt")
    assert {e.patient_id for e in train}.isdisjoint({e.patient_id for e in dev})


def test_manifest_records_hashes_and_config(pipeline):
    out = pipeline["prep"]
    m = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert m["command"] == "preprocess"
    assert m["seed"] == 11
    cfg_text = pipeline["cfg"].read_text(encoding="utf-8")
    assert m["config_sha256"] == config_sha256(parse_config(cfg_text))
    assert str(pipeline["cfg"]) in m["inputs"]
    for name, digest in m["outputs"].items():
        assert _sha(out / name) == digest, name
    assert "manifest.json" not in m["outputs"]


def test_train_manifest_lists_history_as_log(pipeline):
    m = json.loads((pipeline["model"] / "manifest.json").read_text(encoding="utf-8"))
    assert m["logs"] == ["history.csv"]
    assert "history.csv" not in m["outputs"]
    history = (pipeline["model"] / "history.csv").read_text(encoding="utf-8")
    assert history.splitlines()[0] == "epoch,loss,dev_r5,dev_if1,seconds"


_opened: list | None = None  # paths passed to open() while a test collects them


@functools.cache
def _collect_opens() -> None:
    """Install, once per process, an audit hook that adds every path opened
    to `_opened` while that is a list."""

    def hook(event, args):
        if event == "open" and _opened is not None and isinstance(args[0], (str, os.PathLike)):
            _opened.append(Path(args[0]).resolve())

    sys.addaudithook(hook)


def _prep_and_model(d):
    return ["--in", str(d["prep"]), "--model", str(d["model"])]


def _sweep(d):
    return ["automate", "--dev", str(d["eval_dev"]), "--test", str(d["eval_test"]),
            "--max-fp", "0.1"]


STAGE_ARGVS = {  # each stage's argv over the pipeline's dirs, but --config and --out
    "gen-corpus": lambda d: ["gen-corpus"],
    "preprocess": lambda d: ["preprocess", "--in", str(d["corpus"])],
    "train": lambda d: ["train", "--in", str(d["prep"])],
    "train-reranker": lambda d: ["train-reranker", "--in", str(d["prep"]),
                                 "--base", str(d["model"])],
    "evaluate": lambda d: ["evaluate", *_prep_and_model(d), "--split", "dev"],
    "evaluate-reranked": lambda d: ["evaluate", *_prep_and_model(d),
                                    "--reranker", str(d["reranker"])],
    "fractions": lambda d: ["fractions", "--in", str(d["prep"])],
    "calibrate": lambda d: ["calibrate", "--in", str(d["eval_dev"])],
    "automate": _sweep,
    "automate-calibrated": lambda d: [*_sweep(d), "--calibrated", "--maps", str(d["calib"])],
    "report": lambda d: ["report", "--in", str(d["eval_test"])],
}


@pytest.mark.parametrize("stage", list(STAGE_ARGVS))
def test_a_stage_manifest_names_every_file_the_stage_reads(pipeline, tmp_path, stage):
    global _opened
    _collect_opens()
    root = pipeline["cfg"].parent.resolve()  # every input lies under it; --out does not
    _opened = []
    try:
        assert main([*STAGE_ARGVS[stage](pipeline), "--config", str(pipeline["cfg"]),
                     "--out", str(tmp_path / "out")]) == 0
        read = {p for p in _opened if p.is_relative_to(root)}
    finally:
        _opened = None
    inputs = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert read == {Path(p).resolve() for p in inputs["inputs"]}


def test_preprocess_artifacts_parse(pipeline):
    out = pipeline["prep"]
    vocab = Vocabulary.from_json((out / "vocab.json").read_text(encoding="utf-8"))
    labels = LabelSpace.from_json((out / "labels.json").read_text(encoding="utf-8"))
    assert len(vocab) > 0 and len(labels) > 0
    assert all(labels.train_count(code) >= 1 for code in labels.codes)
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "stage,documents,distinct_labels"
    assert [r.split(",")[0] for r in report[1:]] == ["input", "dedup", "filter"]


def test_evaluate_outputs_align(pipeline):
    out = pipeline["eval_test"]
    probs = np.load(out / "probs.npy")
    lines = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
    n_test = len(read_encounters(pipeline["prep"] / "test.txt"))
    labels = LabelSpace.from_json(
        (pipeline["prep"] / "labels.json").read_text(encoding="utf-8"))
    assert probs.shape == (n_test, len(labels))
    assert len(lines) == n_test
    assert set(json.loads(lines[0])) == {"gt", "n_unseen", "dept", "first_visit",
                                         "freq_bucket", "patient_id", "date", "codes"}
    assert (out / "breakdown_dept.csv").exists()
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0].endswith("recall_at_5") and len(report) == 2


def test_prediction_records_round_trip(pipeline):
    out = pipeline["eval_test"]
    records = read_prediction_records(out)
    probs = np.load(out / "probs.npy")
    assert np.array_equal(records.probs, probs)
    assert records.patient_id[0]
    # reported recall must be reproducible from the reloaded records
    reported = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1]
    recall_pct = float(reported.split(",")[-1])
    assert abs(100 * mean_recall_at_k(records, 5) - recall_pct) < 0.005 + 1e-9


@pytest.mark.parametrize("eval_dir", ["eval_dev", "eval_test", "eval_rr"])
def test_records_read_then_written_are_the_same_bytes(pipeline, eval_dir):
    path = pipeline[eval_dir] / "records.jsonl"
    records = read_prediction_records(pipeline[eval_dir])
    assert cli._records_jsonl(records).encode("utf-8") == path.read_bytes()


# strings the JSON encoder escapes or keeps: a quote, a backslash, control
# characters, non-ASCII letters, an emoji, U+2028 and U+0085 (no line ends
# in a JSON-lines file) and a DEL; U+0000 is rejected in every records field
_HOSTILE = ['say "hi"', "back\\slash", "tab\there", "soh\x01bell\x07esc\x1b",
            "Zoë Ødegård", "\U0001f600", "para\u2028sep\x85nel", "del\x7f", ""]


def test_the_records_writer_is_the_sorted_json_encoder(tmp_path):
    rows = []
    for i, text in enumerate(_HOSTILE):
        rows.append({"gt": [0, 2] if i % 2 else [1], "n_unseen": 1 if i % 2 else 2,
                     "dept": text, "first_visit": bool(i % 2),
                     "freq_bucket": ["0", "1-9", "10-99", "100+"][i % 4],
                     "patient_id": _HOSTILE[-1 - i] + str(i),
                     "date": f"{1 + 999 * i:04d}-0{1 + i % 9}-2{i}",
                     "codes": sorted({"A00.0", "B12", "C99.x1Z", "E78.5"}
                                     - {["A00.0", "B12", "C99.x1Z", "E78.5"][i % 4]})})
    # the file lists each record's codes in reverse; the writer sorts them
    (tmp_path / "records.jsonl").write_text(
        "".join(json.dumps({**row, "codes": row["codes"][::-1]}, ensure_ascii=True) + "\n"
                for row in rows), encoding="utf-8")
    np.save(tmp_path / "probs.npy", np.zeros((len(rows), 3)))
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    assert (cli._records_jsonl(read_prediction_records(tmp_path))
            == "".join(encode(row) + "\n" for row in rows))


def test_calibrate_artifacts(pipeline):
    out = pipeline["calib"]
    maps = load_isotonic(out, _eval_digests(pipeline["eval_dev"])[0], pipeline["eval_dev"])
    labels = LabelSpace.from_json(
        (pipeline["prep"] / "labels.json").read_text(encoding="utf-8"))
    assert len(maps.maps) == len(labels)
    rows = (out / "ece.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "label,ece_before,ece_after"
    assert len(rows) == len(labels) + 1
    for row in rows[1:]:  # isotonic fit can never hurt fit-data ECE
        _, before, after = row.split(",")
        assert float(after) <= float(before) + 1e-6


def test_automate_csv(pipeline):
    rows = (pipeline["auto"] / "automation.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "max_fp,calibrated,percent_identified,achieved_fp_rate"
    assert len(rows) == 3
    assert all(row.split(",")[1] == "yes" for row in rows[1:])


def test_report_artifacts(pipeline):
    out = pipeline["report"]
    for name in ("breakdown_dept.csv", "breakdown_label_frequency_bucket.csv",
                 "breakdown_first_visit.csv", "hist_if1.csv", "hist_recall.csv",
                 "correlations.csv", "consistency.txt"):
        assert (out / name).exists(), name
    hist = (out / "hist_if1.csv").read_text(encoding="utf-8").splitlines()
    assert len(hist) == 12  # header + 10 bins + exact-one line
    counts = [int(r.split(",")[2]) for r in hist[1:11]]
    assert sum(counts) == len(read_encounters(pipeline["prep"] / "test.txt"))
    assert (out / "consistency.txt").read_text(encoding="utf-8").startswith("matched pairs")


def test_fractions_csv(pipeline):
    rows = (pipeline["fractions"] / "fractions.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("fraction,recall_at_5")
    assert len(rows) == 3
    full = rows[-1].split(",")
    assert float(full[0]) == 1.0 and float(full[3]) == 1.0


def test_inputs_not_mutated_by_evaluate(pipeline, tmp_path):
    prep = pipeline["prep"]
    before = {p.name: _sha(p) for p in sorted(prep.iterdir())}
    assert main(["evaluate", "--config", str(pipeline["cfg"]), "--in", str(prep),
                 "--model", str(pipeline["model"]), "--out", str(tmp_path / "again"),
                 "--split", "dev"]) == 0
    after = {p.name: _sha(p) for p in sorted(prep.iterdir())}
    assert before == after


def test_gen_corpus_deterministic_given_config(pipeline, tmp_path, monkeypatch):
    # same config + relative argv from two cwds → byte-identical artifacts
    outs = []
    for sub in ("a", "b"):
        cwd = tmp_path / sub
        cwd.mkdir()
        (cwd / "run.cfg").write_text(TINY_CFG, encoding="utf-8")
        monkeypatch.chdir(cwd)
        assert main(["gen-corpus", "--config", "run.cfg", "--out", "corpus"]) == 0
        outs.append(cwd / "corpus")
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# Every other corpus key at its default, so the draws run over the full code
# and noise tables. A change to which values the generator draws, or in what
# order, changes these bytes. Every file the stage writes but its manifest
# (which holds paths) is pinned.
PINNED_CFG = "seed = 3\nn_patients = 40\nn_dev_patients = 5\nn_test_patients = 5\n"
PINNED_SHA256 = {
    "train.txt": "47d03be56c4ee8f3345780a0ed1244b14145e1fb34b4fed83aee1b6375f1af28",
    "dev.txt": "7de8274343eee832697c73757120ebfc7b19a9a8147cb08beb803c47ef6bba73",
    "test.txt": "e5b0d71c752f54cc39418812a8d1f8220da0bb0e5b031c1ec1d1c8107f3f0c68",
    "stats.txt": "2f2b5b68f8daa5a01a386da3389c16dd5c605a5506512543c848b65e58afdb52",
    "corpus_labels.json": "032559e0ff9acfb90f73e639403769c133d38af03e8561e7f0d17b352b847234",
}


def _pinned(out: Path, pins: dict) -> dict:
    """The digests of the files `pins` names, which must be every file in `out`
    but manifest.json."""
    assert sorted(p.name for p in out.iterdir()) == sorted([*pins, "manifest.json"])
    return {name: _sha(out / name) for name in pins}


def test_gen_corpus_writes_the_pinned_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PINNED_CFG, encoding="utf-8")
    assert main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
    assert _pinned(tmp_path / "corpus", PINNED_SHA256) == PINNED_SHA256


# preprocess over the PINNED_CFG corpus: dev and test pass through unchanged,
# and each split is packed once for the later stages.
PREP_PINNED_SHA256 = {
    "train.txt": "47fcc2ba2c5e440256ce10be7be60ff6870c0b6488ab7886a87d41d0c8b9f1fe",
    "dev.txt": PINNED_SHA256["dev.txt"],
    "test.txt": PINNED_SHA256["test.txt"],
    "vocab.json": "7f9f877319f2243290916f463bba58b3f8f71a40b1072100bfcb103865ab27e8",
    "labels.json": "67a22d0f3c988e1a8f2ca4eb3608899087976df713f8d06e584ca1d4b133ae26",
    "report.csv": "cf09c8a20972ebc59282c253f70528e85ad1281d36b6a1b7e84de2b7fdd36bc9",
    "report.txt": "f040f7b5e17fd6350ab7e8f34f69836d9deb030b24e5f141cee6bc9f2d24b3cd",
    "train.notes": "0bd4d56d5bbc1bfb4d848bbbc6f461d6924d242d2fe5774f6d5800c14713eed2",
    "dev.notes": "648e53d18822e142d1edacbe00e556a5f219412c459c81b06b856027b625bb94",
    "test.notes": "182459cc465a4f2fa1665746061847571d931a4614f223f1cdfd244adf282962",
}


def test_preprocess_writes_the_pinned_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PINNED_CFG, encoding="utf-8")
    c, corpus, prep = str(cfg), str(tmp_path / "corpus"), tmp_path / "prep"
    assert main(["gen-corpus", "--config", c, "--out", corpus]) == 0
    assert main(["preprocess", "--config", c, "--in", corpus, "--out", str(prep)]) == 0
    assert _pinned(prep, PREP_PINNED_SHA256) == PREP_PINNED_SHA256


def test_two_preprocess_runs_write_the_same_packed_splits(pipeline, tmp_path):
    assert main(["preprocess", "--config", str(pipeline["cfg"]), "--in", str(pipeline["corpus"]),
                 "--out", str(tmp_path / "prep")]) == 0
    for split in ("train", "dev", "test"):
        name = f"{split}.notes"
        assert (tmp_path / "prep" / name).read_bytes() == (pipeline["prep"] / name).read_bytes()


def _non_canonical(path: Path) -> bytes:
    """The rows of a split file with their keys reversed, spaces around every
    separator and a blank line after the first row."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    lines = [json.dumps(dict(reversed(row.items())), separators=(" , ", " : "),
                        ensure_ascii=False) for row in rows]
    return ("\n".join([lines[0], "  ", *lines[1:]]) + "\n").encode("utf-8")


def test_preprocess_copies_a_valid_held_out_split_byte_for_byte(pipeline, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    dev = _non_canonical(corpus / "dev.txt")
    (corpus / "dev.txt").write_bytes(dev)
    assert main(["preprocess", "--config", str(pipeline["cfg"]), "--in", str(corpus),
                 "--out", str(tmp_path / "prep")]) == 0
    assert (tmp_path / "prep" / "dev.txt").read_bytes() == dev
    assert read_encounters(tmp_path / "prep" / "dev.txt") == read_encounters(
        pipeline["prep"] / "dev.txt")
    assert (tmp_path / "prep" / "test.txt").read_bytes() == (
        pipeline["corpus"] / "test.txt").read_bytes()


def test_preprocess_names_the_malformed_line_of_a_held_out_split(pipeline, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    lines = (corpus / "dev.txt").read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"codes": [', '"codes": [7, ')
    (corpus / "dev.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["preprocess", "--config", str(pipeline["cfg"]), "--in", str(corpus),
                 "--out", str(tmp_path / "prep")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert "dev.txt:3: codes must be a list of strings" in err[0]
    assert not (tmp_path / "prep").exists()


@pytest.mark.parametrize("split, edit, message", [
    ("dev.txt", lambda row: {**row, "codes": row["codes"] * 2}, "duplicate codes in record"),
    ("test.txt", lambda row: {**row, "date": "2018-02-30"}, "bad date '2018-02-30'"),
    ("dev.txt", lambda row: {**row, "codes": []}, "empty code set"),
    ("test.txt", lambda row: {**row, "codes": ["e78.5", *row["codes"]]}, "malformed code 'e78.5'"),
    ("dev.txt", lambda row: {**row, "codes": ["A00.0\n"]}, "malformed code 'A00.0\\n'"),
], ids=["duplicate-codes", "bad-date", "no-codes", "malformed-code", "code-ending-in-a-newline"])
def test_preprocess_checks_the_codes_and_date_of_a_held_out_split(pipeline, tmp_path, capsys,
                                                                  split, edit, message):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    lines = (corpus / split).read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps(edit(json.loads(lines[1])), ensure_ascii=False)
    (corpus / split).write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["preprocess", "--config", str(pipeline["cfg"]), "--in", str(corpus),
                 "--out", str(tmp_path / "prep")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert f"{split}:2: " in err[0] and message in err[0]
    assert not (tmp_path / "prep").exists()


# TINY_CFG at seed 3 with 40 patients and three epochs for both models.
# train-reranker keeps its third epoch, so these are a trained reranker's
# bytes, not those of the zero start, which scores as the base model does.
RERANKER_PIN = {"seed": "3", "n_patients": "40", "n_dev_patients": "6",
                "n_test_patients": "6", "omitted_evidence_fraction": "0.2",
                "max_epochs": "3", "patience": "3", "reranker_max_epochs": "3",
                "reranker_patience": "3"}
RERANKER_PIN_CFG = "".join(
    [f"{row}\n" for row in TINY_CFG.splitlines() if row.split("=")[0].strip() not in RERANKER_PIN]
    + [f"{key} = {value}\n" for key, value in RERANKER_PIN.items()])
RERANKER_PIN_SHA256 = {
    "reranker.ckpt": "b82ed5faeb9cc20b565d32c96946a2869354b44d839151dca62b0d6eaa2060c6",
    "probs.npy": "8c711798f5056afc7aa2b75cd27ec6cc9e8f141163159075a69245699c806c51",
    "history.csv": "f57a641afa3128c86532ae76240bc9783f7c264ee7ca728cb0ff894d6b620c7b",
}


def test_train_reranker_writes_the_pinned_bytes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RERANKER_PIN_CFG, encoding="utf-8")
    c, d = str(cfg), {name: str(tmp_path / name) for name in
                      ("corpus", "prep", "model", "rr", "eval_rr")}
    for argv in (["gen-corpus", "--config", c, "--out", d["corpus"]],
                 ["preprocess", "--config", c, "--in", d["corpus"], "--out", d["prep"]],
                 ["train", "--config", c, "--in", d["prep"], "--out", d["model"]],
                 ["train-reranker", "--config", c, "--in", d["prep"], "--base", d["model"],
                  "--out", d["rr"]],
                 ["evaluate", "--config", c, "--in", d["prep"], "--model", d["model"],
                  "--reranker", d["rr"], "--out", d["eval_rr"]]):
        assert main(argv) == 0, argv[0]
    assert "train-reranker: 3 epochs, kept epoch 3 at dev R@5 0.9423" in capsys.readouterr().out
    history = (tmp_path / "rr" / "history.csv").read_text(encoding="utf-8")
    without_seconds = "".join(row.rsplit(",", 1)[0] + "\n" for row in history.splitlines())
    assert {"reranker.ckpt": _sha(tmp_path / "rr" / "reranker.ckpt"),
            "probs.npy": _sha(tmp_path / "eval_rr" / "probs.npy"),
            "history.csv": hashlib.sha256(without_seconds.encode("utf-8")).hexdigest(),
            } == RERANKER_PIN_SHA256


# TINY_CFG with eight base epochs at learning rate 0.1: at these budgets the
# plain and the calibrated sweep each select records at some budgets and
# nothing at others.
POST_MODEL_PIN_CFG = "".join(
    [f"{row}\n" for row in TINY_CFG.splitlines()
     if row.split("=")[0].strip() not in ("learning_rate", "max_epochs", "patience")]
    + ["learning_rate = 0.1\n", "max_epochs = 8\n", "patience = 8\n"])
POST_MODEL_PIN_BUDGETS = "0.05,0.1,0.2,0.4,1.0"
POST_MODEL_PIN = {
    "auto/automation.csv": "max_fp,calibrated,percent_identified,achieved_fp_rate\n"
                           "0.05,no,33.33,0.00\n0.10,no,33.33,0.00\n0.20,no,66.67,20.00\n"
                           "0.40,no,100.00,20.00\n1.00,no,100.00,20.00\n",
    "auto_cal/automation.csv": "max_fp,calibrated,percent_identified,achieved_fp_rate\n"
                               "0.05,yes,0.00,0.00\n0.10,yes,0.00,0.00\n"
                               "0.20,yes,83.33,44.44\n0.40,yes,100.00,40.00\n"
                               "1.00,yes,100.00,40.00\n",
}
POST_MODEL_PIN_SHA256 = {
    "calib/ece.csv": "6179101cc3025941d83f184243247dee2f1d7e9225f3fc927205f35d4b8101cb",
    "calib/isotonic.ckpt without its metadata line":
        "cdf204ad5141760cc9f2abcd03d74eb6376587dde1155c0863ef823e307643fe",
}
# what evaluate writes for the records and report writes from them
POST_MODEL_RECORDS_SHA256 = {
    "eval_dev/records.jsonl":
        "efe1dc43be1ab50cb47fd782e5fe6eb1a5fa200632d081d65be2353d93f74da6",
    "eval_test/records.jsonl":
        "5a7bba09b6def188a463c7b3f6bc8871c325fb78d97dd99daae3e2b70634d35f",
    "eval_test/report.csv":
        "b087db6f9b232a68a77a4ba6f2c1ee2a7b05c7d0680a09c97427b77f119c475a",
    "report/breakdown_dept.csv":
        "3321fcd01345aeb9091918e8f45fadbea2ea5692a0c75f09496abe5b3cc5b4ed",
    "report/breakdown_label_frequency_bucket.csv":
        "030b09c26f7bd2722f7c6a80d9b6c437a609ff318f7157c3abdba88fad651393",
    "report/breakdown_first_visit.csv":
        "745dc6da9d1a388f6629a9cd1a8ced9ce28438848e16d90ec9e13e71bafe0c98",
    "report/hist_if1.csv":
        "57bb9af794f6d7adb2791588cf84fd93736252812e9c5ae49c70ce3aba3fa1ea",
    "report/hist_recall.csv":
        "b8f276e91ad49ce6297f00675bb808c30d9ad447654e2bf013f9321de0d037a2",
    "report/correlations.csv":
        "c02793487411bdc29aef9deb11f96fa7a075a6774f6d31839aaabba9b355c147",
    "report/consistency.txt":
        "f730196041f417b177cf7fb25b48dcede786dd8767e44c989027b5627119b757",
}


def test_post_model_stages_write_the_pinned_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(POST_MODEL_PIN_CFG, encoding="utf-8")
    c, d = str(cfg), {name: str(tmp_path / name) for name in
                      ("corpus", "prep", "model", "eval_dev", "eval_test", "calib", "auto",
                       "auto_cal", "report")}
    sweep = ["automate", "--config", c, "--dev", d["eval_dev"], "--test", d["eval_test"],
             "--max-fp", POST_MODEL_PIN_BUDGETS]
    for argv in (["gen-corpus", "--config", c, "--out", d["corpus"]],
                 ["preprocess", "--config", c, "--in", d["corpus"], "--out", d["prep"]],
                 ["train", "--config", c, "--in", d["prep"], "--out", d["model"]],
                 ["evaluate", "--config", c, "--in", d["prep"], "--model", d["model"],
                  "--out", d["eval_dev"], "--split", "dev"],
                 ["evaluate", "--config", c, "--in", d["prep"], "--model", d["model"],
                  "--out", d["eval_test"]],
                 ["calibrate", "--config", c, "--in", d["eval_dev"], "--out", d["calib"]],
                 [*sweep, "--out", d["auto"]],
                 [*sweep, "--out", d["auto_cal"], "--calibrated", "--maps", d["calib"]],
                 ["report", "--config", c, "--in", d["eval_test"], "--out", d["report"]]):
        assert main(argv) == 0, argv[0]
    assert {name: (tmp_path / name).read_text(encoding="utf-8")
            for name in POST_MODEL_PIN} == POST_MODEL_PIN
    magic, _, arrays = (tmp_path / "calib" / "isotonic.ckpt").read_bytes().split(b"\n", 2)
    assert {"calib/ece.csv": _sha(tmp_path / "calib" / "ece.csv"),
            "calib/isotonic.ckpt without its metadata line":
                hashlib.sha256(magic + b"\n" + arrays).hexdigest(),
            } == POST_MODEL_PIN_SHA256
    assert sorted(p.name for p in (tmp_path / "report").iterdir()) == sorted(
        ["manifest.json", *(name.split("/")[1] for name in POST_MODEL_RECORDS_SHA256
                            if name.startswith("report/"))])
    assert {name: _sha(tmp_path / name)
            for name in POST_MODEL_RECORDS_SHA256} == POST_MODEL_RECORDS_SHA256


# default model widths, so the batched GEMMs are large enough for OpenBLAS to
# split them across threads
BLAS_CFG = """\
seed = 5
n_patients = 60
n_dev_patients = 10
n_test_patients = 10
min_code_count = 1
learning_rate = 0.005
max_epochs = 1
patience = 1
reranker_max_epochs = 1
reranker_patience = 1
"""

TRAIN_BOTH = """\
import sys
from icdlab.cli import main
cfg, prep, out = sys.argv[1:]
assert main(["train", "--config", cfg, "--in", prep, "--out", out + "/model"]) == 0
assert main(["train-reranker", "--config", cfg, "--in", prep, "--base", out + "/model",
             "--out", out + "/reranker"]) == 0
"""


def test_checkpoints_identical_across_blas_thread_counts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BLAS_CFG, encoding="utf-8")
    assert main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
    assert main(["preprocess", "--config", str(cfg), "--in", str(tmp_path / "corpus"),
                 "--out", str(tmp_path / "prep")]) == 0
    src = str(Path(icdlab.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", TRAIN_BOTH, str(cfg), str(tmp_path / "prep"),
                        str(out)], env=env, check=True, capture_output=True)
        digests.append([_sha(out / "model" / "model.ckpt"),
                        _sha(out / "reranker" / "reranker.ckpt")])
    assert digests[0] == digests[1]


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["train", "--config", "x.cfg"]) == 2  # missing --in/--out
    capsys.readouterr()


def test_calibrated_without_maps_is_usage_error(pipeline, tmp_path, capsys):
    code = main(["automate", "--config", str(pipeline["cfg"]),
                 "--dev", str(pipeline["eval_dev"]), "--test", str(pipeline["eval_test"]),
                 "--out", str(tmp_path / "o"), "--max-fp", "0.1", "--calibrated"])
    assert code == 2
    assert "icdlab-error: usage" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # neither --out nor a staging directory


def test_maps_without_calibrated_is_usage_error(pipeline, tmp_path, capsys):
    # the maps would go unused: calibrated=no rows and no maps among the inputs
    code = main(["automate", "--config", str(pipeline["cfg"]),
                 "--dev", str(pipeline["eval_dev"]), "--test", str(pipeline["eval_test"]),
                 "--out", str(tmp_path / "o"), "--max-fp", "0.1",
                 "--maps", str(pipeline["calib"])])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "icdlab-error: usage: --maps requires --calibrated\n"
    assert not any(tmp_path.iterdir())  # neither --out nor a staging directory


def test_max_fp_outside_the_unit_interval_is_a_usage_error(pipeline, tmp_path, capsys):
    # checked before any eval dir is read: these do not exist
    absent = ["--dev", str(tmp_path / "no_dev"), "--test", str(tmp_path / "no_test")]
    for bad in ("abc", "0", "0.0", "-0.1", "1.5", "0.1,oops", "nan", ","):
        capsys.readouterr()
        assert main(["automate", "--config", str(pipeline["cfg"]), *absent,
                     "--out", str(tmp_path / "o"), "--max-fp", bad]) == 2, bad
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("icdlab-error: usage: --max-fp "), err
        assert repr(bad) in err[0]
        # and before the first stage of a pipeline
        assert main(["pipeline", "--config", str(pipeline["cfg"]),
                     "--workdir", str(tmp_path / "w"), "--max-fp", bad]) == 2, bad
        assert "+ icdlab" not in capsys.readouterr().out
        assert not any(tmp_path.iterdir())  # no --out, staging directory or --workdir
    # the closed upper end is a budget
    assert main(["automate", "--config", str(pipeline["cfg"]), "--dev", str(pipeline["eval_dev"]),
                 "--test", str(pipeline["eval_test"]), "--out", str(tmp_path / "o"),
                 "--max-fp", "1.0"]) == 0


def test_bad_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nnot_a_key = 2\n", encoding="utf-8")
    assert main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("icdlab-error: validation:")


def _config_with(line: str) -> str:
    """TINY_CFG with `line` in place of any line setting the same key."""
    key = line.split("=")[0].strip()
    kept = [row for row in TINY_CFG.splitlines() if row.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


def _outputs(root: Path) -> dict[str, bytes]:
    """Every file under `root` but the manifests, which hold paths, and the
    history.csv logs, which hold seconds."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and p.name not in ("manifest.json", "history.csv")}


@pytest.mark.parametrize("architecture, dedup_scope", [("laat", "none"), ("caml", "global")])
def test_pipeline_runs_the_chosen_architecture_and_dedup_scope(tmp_path, architecture,
                                                               dedup_scope):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG + f"architecture = {architecture}\ndedup_scope = {dedup_scope}\n",
                   encoding="utf-8")
    for run in ("w0", "w1"):
        assert main(["pipeline", "--config", str(cfg), "--workdir", str(tmp_path / run)]) == 0
    w = tmp_path / "w0"
    assert load_params(w / "model" / "model.ckpt")[0]["arch"] == architecture
    report = (w / "prep" / "report.txt").read_text(encoding="utf-8").splitlines()
    assert [row.split() for row in report if row.startswith("Dedup scope")] == [
        ["Dedup", "scope", dedup_scope]]
    assert _outputs(w) == _outputs(tmp_path / "w1")


def test_every_artifact_holds_the_file_digests_of_vocab_and_labels(pipeline):
    prep = pipeline["prep"]
    want = {"vocab_sha256": _sha(prep / "vocab.json"),
            "labels_sha256": _sha(prep / "labels.json")}
    outputs = json.loads((prep / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    assert {"vocab_sha256": outputs["vocab.json"], "labels_sha256": outputs["labels.json"]} == want
    for path in [prep / f"{split}.notes" for split in ("train", "dev", "test")] + [
            pipeline["model"] / "model.ckpt", pipeline["reranker"] / "reranker.ckpt"]:
        meta = load_params(path)[0]
        assert {key: meta[key] for key in want} == want, path
    isotonic = load_params(pipeline["calib"] / "isotonic.ckpt")[0]
    assert isotonic["labels_sha256"] == _eval_digests(pipeline["eval_dev"])[0] == want[
        "labels_sha256"]


@pytest.mark.parametrize("command", ["gen-corpus", "evaluate", "calibrate"])
@pytest.mark.parametrize("line", [
    "decision_threshold = nan", "max_note_tokens = -3", "ece_bins = 0",
    "zipf_exponent = nan", "mean_codes_per_encounter = nan",
    "mean_encounters_per_patient = inf", "kernel_width = 4", "reranker_heads = 3",
    "fractions = 0.5", "fractions = 0.5,2.0", "fractions = nan,1.0", "fractions = 0,1.0"])
def test_bad_config_value_fails_every_stage(pipeline, tmp_path, capsys, command, line):
    # a config is validated as a whole, whichever stage reads it
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_config_with(line), encoding="utf-8")
    stage_args = {"gen-corpus": [],
                  "evaluate": ["--in", str(pipeline["prep"]),
                               "--model", str(pipeline["model"])],
                  "calibrate": ["--in", str(pipeline["eval_dev"])]}[command]
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 *stage_args]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert "duplicate" not in err[0]


def _automate_calibrated(d):
    return ["automate", "--dev", str(d["eval_dev"]), "--test", str(d["eval_test"]),
            "--max-fp", "0.1", "--calibrated", "--maps", str(d["calib"])]


def _evaluate(d):
    return ["evaluate", "--in", str(d["prep"]), "--model", str(d["model"])]


def _evaluate_reranked(d):
    return [*_evaluate(d), "--reranker", str(d["reranker"])]


def _meta_line(edit):
    """An edit of a checkpoint's metadata, the second line of its header."""

    def apply(raw: bytes) -> bytes:
        magic, meta, rest = raw.split(b"\n", 2)
        return b"\n".join([magic, edit(meta), rest])

    return apply


def _with_meta(edit):
    """An edit of a checkpoint's metadata as a dict."""
    return _meta_line(lambda line: json.dumps(edit(json.loads(line))).encode())


def _without_key(key):
    return _with_meta(lambda meta: {k: v for k, v in meta.items() if k != key})


def _with_hparam(key, value):
    return _with_meta(lambda meta: {**meta, "hparams": {**meta["hparams"], key: value}})


@pytest.mark.parametrize("stage, name, edit, argv", [
    ("calib", "isotonic.ckpt", _meta_line(lambda _: b"{not json"), _automate_calibrated),
    ("calib", "isotonic.ckpt", _meta_line(lambda _: b'{"kind": "isotonic"}'),
     _automate_calibrated),
    ("calib", "isotonic.ckpt", _meta_line(lambda _: b'["isotonic", 3]'), _automate_calibrated),
    ("calib", "isotonic.ckpt", _without_key("labels_sha256"), _automate_calibrated),
    ("model", "model.ckpt", _without_key("vocab_sha256"), _evaluate),
    ("model", "model.ckpt", _with_meta(lambda meta: {**meta, "arch": False}), _evaluate),
    ("model", "model.ckpt", _with_hparam("kernel_width", 4), _evaluate),
    ("reranker", "reranker.ckpt", _with_hparam("n_heads", 3), _evaluate_reranked),
    ("prep", "vocab.json", lambda _: b"{bad", _evaluate),
    ("prep", "vocab.json", lambda _: b"[" * 100_000 + b"]" * 100_000, _evaluate),
], ids=["isotonic-not-json", "isotonic-no-n_labels", "isotonic-meta-a-list",
        "isotonic-meta-no-labels_sha256", "model-meta-no-vocab_sha256", "model-arch-false",
        "model-kernel-width-even", "reranker-heads-not-dividing-d", "vocab-not-json",
        "vocab-nested-too-deeply"])
def test_malformed_json_artifact_exits_with_one_error_line(pipeline, tmp_path, capsys,
                                                          stage, name, edit, argv):
    dirs = dict(pipeline)
    dirs[stage] = tmp_path / stage
    shutil.copytree(pipeline[stage], dirs[stage])
    path = dirs[stage] / name
    path.write_bytes(edit(path.read_bytes()))
    capsys.readouterr()
    assert main([*argv(dirs), "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert name in err[0]


def _first_count(payload, value):
    code = next(iter(payload["counts"]))
    return {**payload, "counts": {**payload["counts"], code: value}}


# the rule a malformed vocab.json or labels.json breaks, as its error line states it
_BAD_CODES = "codes must be a non-empty list of distinct codes"
_BAD_COUNTS = "counts must map codes of the label space to non-negative integers"
_BAD_TOKENS = "tokens must be a list of distinct non-empty strings"


@pytest.mark.parametrize("name, edit, message", [
    ("labels.json", lambda p: _first_count(p, "7"), _BAD_COUNTS),
    ("labels.json", lambda p: _first_count(p, -1), _BAD_COUNTS),
    ("labels.json", lambda p: _first_count(p, True), _BAD_COUNTS),
    ("labels.json", lambda p: _first_count(p, 2.0), _BAD_COUNTS),
    ("labels.json", lambda p: {**p, "counts": {**p["counts"], "Z99.9": 1}}, _BAD_COUNTS),
    ("labels.json", lambda p: {**p, "counts": list(p["counts"])}, _BAD_COUNTS),
    ("labels.json", lambda p: {**p, "codes": ""}, _BAD_CODES),
    ("labels.json", lambda p: {**p, "codes": [], "counts": {}}, _BAD_CODES),
    ("labels.json", lambda p: {**p, "codes": p["codes"] + p["codes"][:1]}, _BAD_CODES),
    ("labels.json", lambda p: {**p, "codes": p["codes"] + ["e78"]}, _BAD_CODES),
    ("labels.json", lambda p: {**p, "codes": p["codes"] + [78]}, _BAD_CODES),
    ("labels.json", lambda p: {**p, "codes": p["codes"] + ["A00.0\n"]}, _BAD_CODES),
    ("labels.json", lambda p: {"codes": p["codes"]}, "KeyError('counts')"),
    ("labels.json", lambda p: p["codes"], "TypeError("),
    ("vocab.json", lambda p: {**p, "tokens": "abcdef"}, _BAD_TOKENS),
    ("vocab.json", lambda p: {**p, "tokens": p["tokens"] + p["tokens"][:1]}, _BAD_TOKENS),
    ("vocab.json", lambda p: {**p, "tokens": p["tokens"] + [7]}, _BAD_TOKENS),
    ("vocab.json", lambda p: {**p, "tokens": p["tokens"] + [""]}, _BAD_TOKENS),
    ("vocab.json", lambda p: {}, "KeyError('tokens')"),
], ids=["count-a-string", "count-negative", "count-true", "count-a-float",
        "count-of-a-code-outside", "counts-a-list", "codes-a-string", "codes-empty",
        "codes-duplicate", "code-malformed", "code-an-integer", "code-ending-in-a-newline",
        "counts-absent",
        "labels-a-list", "tokens-a-string", "tokens-duplicate", "token-an-integer",
        "token-empty", "tokens-absent"])
def test_a_malformed_label_space_or_vocabulary_exits_3_naming_the_file(
        pipeline, tmp_path, capsys, name, edit, message):
    prep = tmp_path / "prep"
    shutil.copytree(pipeline["prep"], prep)
    path = prep / name
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))) + "\n",
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(pipeline["cfg"]), "--in", str(prep),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(path) in err[0] and message in err[0]
    assert not (tmp_path / "o").exists()


def _train(d):
    return ["train", "--in", str(d["prep"])]


_PACKED = {"model": ("model", "model.ckpt", _evaluate),
           "reranker": ("reranker", "reranker.ckpt", _evaluate_reranked),
           "notes": ("prep", "train.notes", _train),
           "isotonic": ("calib", "isotonic.ckpt", _automate_calibrated)}


@pytest.mark.parametrize("artifact, key, value", [
    *[pytest.param(artifact, "kind", "reranker" if artifact == "model" else "base",
                   id=f"{artifact}-kind") for artifact in _PACKED],
    *[pytest.param(artifact, key, "0" * 64, id=f"{artifact}-{key}")
      for artifact in ("model", "reranker", "notes")
      for key in ("vocab_sha256", "labels_sha256")]])
def test_an_artifact_of_another_kind_or_digest_exits_3_naming_the_key(
        pipeline, tmp_path, capsys, artifact, key, value):
    # checked by load_params from the metadata line, before any array is read
    stage, name, argv = _PACKED[artifact]
    dirs = dict(pipeline)
    dirs[stage] = tmp_path / stage
    shutil.copytree(pipeline[stage], dirs[stage])
    path = dirs[stage] / name
    meta, arrays = load_params(path)
    save_params(path, arrays, {**meta, key: value})
    capsys.readouterr()
    assert main([*argv(dirs), "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(path) in err[0]
    assert f"metadata {key} is {value!r}, expected {meta[key]!r}" in err[0]
    assert not (tmp_path / "o").exists()


def _notes_edit(edit):
    """An edit of a packed split's (metadata, arrays, vocabulary size), saved
    back as a well-formed file."""

    def apply(path: Path, n_vocab: int) -> None:
        meta, arrays = edit(*load_params(path), n_vocab)
        save_params(path, arrays, meta)

    return apply


def _raw_edit(edit):
    def apply(path: Path, n_vocab: int) -> None:
        path.write_bytes(edit(path.read_bytes()))

    return apply


def _set(name, i, value):
    """Entry i of array `name` set to `value`, or to value(vocabulary size)."""

    def edit(meta, arrays, n_vocab):
        column = arrays[name].copy()
        column[i] = value(n_vocab) if callable(value) else value
        return meta, {**arrays, name: column}

    return edit


def _meta(**changes):
    return _notes_edit(lambda meta, arrays, _: ({**meta, **changes}, arrays))


def _swap_offsets(meta, arrays, _):
    offsets = arrays["offsets"].copy()
    offsets[[1, 2]] = offsets[[2, 1]]
    return meta, {**arrays, "offsets": offsets}


def _codes_of_a_note(edit):
    """`edit` applied to the codes of the first note with more than one."""

    def apply(meta, arrays, _):
        offsets, codes = arrays["code_offsets"].astype(int).tolist(), meta["codes"]
        lo, hi = next((a, b) for a, b in zip(offsets, offsets[1:]) if b - a > 1)
        return {**meta, "codes": codes[:lo] + edit(codes[lo:hi]) + codes[hi:]}, arrays

    return apply


def _header_shape(raw: bytes) -> bytes:
    # the tokens line of the header declares more values than the file holds
    return re.sub(rb"\ntokens \d+\n", b"\ntokens 99999999999\n", raw, count=1)


@pytest.mark.parametrize("edit, message", [
    (_raw_edit(lambda raw: raw[:-8]), "truncated data"),
    (_raw_edit(_header_shape), "truncated data for parameter 'tokens'"),
    (_raw_edit(lambda raw: b""), "not terminated by END"),
    (_notes_edit(_set("tokens", 0, 2.5)), "tokens must be a vector of integers"),
    (_notes_edit(_set("tokens", 0, np.nan)), "non-finite"),
    (_notes_edit(_set("tokens", 0, lambda n_vocab: n_vocab)),
     "tokens must hold token ids in [1, "),
    (_notes_edit(_set("tokens", 0, 0)), "tokens must hold token ids in [1, "),
    (_notes_edit(_set("aux", 0, 0)), "aux must hold token ids in [1, "),
    (_notes_edit(_swap_offsets), "offsets must rise from 0"),
    (_notes_edit(_set("offsets", 1, 0)), "every note needs at least one of its tokens"),
    (_notes_edit(_set("code_offsets", -1, 10**6)), "code_offsets must rise from 0"),
    (_meta(vocab_sha256="0" * 64), f"metadata vocab_sha256 is '{'0' * 64}', expected '"),
    (_meta(labels_sha256="0" * 64), f"metadata labels_sha256 is '{'0' * 64}', expected '"),
    (_meta(kind="base"), "metadata kind is 'base', expected 'notes'"),
    (_notes_edit(lambda m, a, _: ({**m, "dept": m["dept"][1:]}, a)),
     "dept must have one entry per note"),
    (_notes_edit(lambda m, a, _: ({**m, "doctor": [7, *m["doctor"][1:]]}, a)),
     "doctor must be a list of strings"),
    (_notes_edit(lambda m, a, _: ({**m, "patient_id": ["P1\u0000", *m["patient_id"][1:]]},
                                  a)),
     "patient_id must not contain U+0000"),
    (_notes_edit(lambda m, a, _: ({**m, "codes": ["e78", *m["codes"][1:]]}, a)),
     "malformed code 'e78'"),
    # the last code of a note, so that the codes stay sorted
    (_notes_edit(_codes_of_a_note(lambda codes: [*codes[:-1], "Z99.9\n"])),
     "malformed code 'Z99.9\\n'"),
    (_notes_edit(_codes_of_a_note(lambda codes: codes[::-1])),
     "each note's codes must be distinct and sorted"),
    (_notes_edit(_codes_of_a_note(lambda codes: [codes[0], *codes[:-1]])),
     "each note's codes must be distinct and sorted"),
    (_notes_edit(lambda m, a, _: ({k: v for k, v in m.items() if k != "meds"}, a)),
     "exactly the string columns"),
    (_notes_edit(lambda m, a, _: (m, {k: v for k, v in a.items() if k != "date"})),
     "arrays must be exactly"),
    (_notes_edit(_set("date", 0, 10**7)), "date must hold one valid date per note"),
], ids=["truncated", "header-shape-beyond-the-file", "empty", "non-integral-id", "nan-id",
        "id-of-the-vocabulary-size", "padding-id", "aux-padding-id", "decreasing-offsets",
        "a-note-without-tokens", "code-offsets-past-the-codes", "another-vocabulary",
        "another-label-space", "another-kind", "dept-one-short", "doctor-an-int",
        "nul-in-patient_id", "malformed-code", "code-ending-in-a-newline", "codes-unsorted", "a-code-repeated",
        "meds-absent", "date-absent", "date-out-of-range"])
def test_a_damaged_packed_split_exits_3_naming_the_file(pipeline, tmp_path, capsys, edit,
                                                        message):
    prep = tmp_path / "prep"
    shutil.copytree(pipeline["prep"], prep)
    edit(prep / "train.notes",
         len(Vocabulary.from_json((prep / "vocab.json").read_text(encoding="utf-8"))))
    capsys.readouterr()
    assert main(["train", "--config", str(pipeline["cfg"]), "--in", str(prep),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(prep / "train.notes") in err[0] and message in err[0]
    assert not (tmp_path / "o").exists()


def test_a_packed_split_names_its_first_malformed_code_whatever_the_hash_seed(pipeline,
                                                                             tmp_path):
    # three malformed codes, each the last of its note so that the codes stay
    # sorted: the first in file order is named, not the first of a str set
    prep = tmp_path / "prep"
    shutil.copytree(pipeline["prep"], prep)
    meta, arrays = load_params(prep / "train.notes")
    last = arrays["code_offsets"][1:].astype(int) - 1
    codes = list(meta["codes"])
    for at, bad in zip(last[[0, 7, 20]], ("e78", "x12", "q9")):
        codes[at] = bad
    save_params(prep / "train.notes", arrays, {**meta, "codes": codes})
    src = str(Path(icdlab.__file__).resolve().parents[1])
    for seed in ("0", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-m", "icdlab.cli", "train", "--config",
                              str(pipeline["cfg"]), "--in", str(prep), "--out",
                              str(tmp_path / "o")], env=env, capture_output=True, text=True)
        assert run.returncode == 3, run.stderr
        assert run.stderr == (f"icdlab-error: validation: {prep / 'train.notes'}: "
                              "malformed code 'e78'\n"), f"PYTHONHASHSEED={seed}"


def test_non_ascii_checkpoint_header_exits_with_one_error_line(pipeline, tmp_path, capsys):
    model2 = tmp_path / "model2"
    shutil.copytree(pipeline["model"], model2)
    raw = bytearray((model2 / "model.ckpt").read_bytes())
    raw[3] = 0xFF
    (model2 / "model.ckpt").write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["evaluate", "--config", str(pipeline["cfg"]), "--in", str(pipeline["prep"]),
                 "--model", str(model2), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert "model.ckpt" in err[0]


def _as_version_1(raw: bytes) -> bytes:
    """Version 1 had no metadata line: its header went from the magic line to
    the arrays."""
    _, _, arrays = raw.split(b"\n", 2)
    return b"icdlab-params v1\n" + arrays


@pytest.mark.parametrize("stage, name, edit, argv, message", [
    ("reranker", "reranker.ckpt", lambda raw: b"", _evaluate_reranked, "not terminated by END"),
    ("model", "model.ckpt", lambda raw: raw[:-8], _evaluate_reranked, "truncated data"),
    ("model", "model.ckpt", _as_version_1, _evaluate, "must be regenerated"),
    ("reranker", "reranker.ckpt", _as_version_1, _evaluate_reranked, "must be regenerated"),
    ("calib", "isotonic.ckpt", _as_version_1, _automate_calibrated, "must be regenerated"),
], ids=["empty-reranker", "truncated-model", "version-1-model", "version-1-reranker",
        "version-1-isotonic"])
def test_unreadable_checkpoint_exits_3_naming_the_file(pipeline, tmp_path, capsys,
                                                       stage, name, edit, argv, message):
    dirs = dict(pipeline)
    dirs[stage] = tmp_path / stage
    shutil.copytree(pipeline[stage], dirs[stage])
    path = dirs[stage] / name
    path.write_bytes(edit(path.read_bytes()))
    capsys.readouterr()
    assert main([*argv(dirs), "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(path) in err[0] and message in err[0]


def test_reranker_with_a_non_ascii_medication_saves_and_loads(pipeline, tmp_path):
    corpus, prep2, model = tmp_path / "corpus", tmp_path / "prep2", tmp_path / "model"
    shutil.copytree(pipeline["corpus"], corpus)
    _edit_first_line(corpus / "train.txt", meds=["paracétamol 500 mg"])
    cfg = ["--config", str(pipeline["cfg"])]
    assert main(["preprocess", *cfg, "--in", str(corpus), "--out", str(prep2)]) == 0
    c = [*cfg, "--in", str(prep2)]
    # the medication's tokens join the vocabulary, so the base model is trained anew
    assert main(["train", *c, "--out", str(model)]) == 0
    assert main(["train-reranker", *c, "--base", str(model), "--out", str(tmp_path / "rr")]) == 0
    raw = (tmp_path / "rr" / "reranker.ckpt").read_bytes()
    assert raw[:raw.index(b"\nEND\n")].isascii()
    meta, _ = load_params(tmp_path / "rr" / "reranker.ckpt")
    assert "paracétamol 500 mg" in meta["modalities"]["med"]
    assert main(["evaluate", *c, "--model", str(model),
                 "--reranker", str(tmp_path / "rr"), "--out", str(tmp_path / "o")]) == 0


def test_missing_input_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    assert main(["preprocess", "--config", str(cfg), "--in", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_checkpoint_hash_mismatch_exits_3(pipeline, tmp_path, capsys):
    prep2 = tmp_path / "prep2"
    shutil.copytree(pipeline["prep"], prep2)
    vocab = Vocabulary.from_json((prep2 / "vocab.json").read_text(encoding="utf-8"))
    tok = vocab.tokens[0]
    text = (prep2 / "vocab.json").read_text(encoding="utf-8")
    (prep2 / "vocab.json").write_text(text.replace(f'"{tok}"', f'"{tok}q"', 1),
                                      encoding="utf-8")
    code = main(["evaluate", "--config", str(pipeline["cfg"]), "--in", str(prep2),
                 "--model", str(pipeline["model"]), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "icdlab-error: validation:" in capsys.readouterr().err


def test_numeric_poison_exits_4(pipeline, tmp_path, capsys):
    model2 = tmp_path / "model2"
    shutil.copytree(pipeline["model"], model2)
    meta, params = load_params(model2 / "model.ckpt")
    params["out_b"] = np.full_like(params["out_b"], np.nan)
    save_params(model2 / "model.ckpt", params, meta)
    code = main(["train-reranker", "--config", str(pipeline["cfg"]),
                 "--in", str(pipeline["prep"]), "--base", str(model2),
                 "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("icdlab-error: numeric:") and "model.ckpt" in err and "'out_b'" in err


@pytest.mark.parametrize("stage, ckpt, param, value, argv", [
    ("model", "model.ckpt", "out_b", np.nan, _evaluate),
    ("model", "model.ckpt", "emb", np.inf, _evaluate),
    ("reranker", "reranker.ckpt", "proj_b", np.nan, _evaluate_reranked),
    ("calib", "isotonic.ckpt", "v0", np.nan, _automate_calibrated),
], ids=["base-out_b-nan", "base-emb-inf", "reranker-proj_b-nan", "isotonic-v0-nan"])
def test_non_finite_checkpoint_value_exits_4(pipeline, tmp_path, capsys,
                                             stage, ckpt, param, value, argv):
    dirs = dict(pipeline)
    dirs[stage] = tmp_path / stage
    shutil.copytree(pipeline[stage], dirs[stage])
    meta, params = load_params(dirs[stage] / ckpt)
    params[param] = np.full_like(params[param], value)
    save_params(dirs[stage] / ckpt, params, meta)
    capsys.readouterr()
    assert main([*argv(dirs), "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: numeric:")
    assert ckpt in err[0] and repr(param) in err[0]


def _edit_first_record(eval_dir: Path, without=None, **changes) -> None:
    path = eval_dir / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = {**json.loads(lines[0]), **changes}
    row.pop(without, None)
    lines[0] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_probs(eval_dir: Path, edit) -> None:
    np.save(eval_dir / "probs.npy", edit(np.load(eval_dir / "probs.npy")))


def _drop_last_record(eval_dir: Path) -> None:
    path = eval_dir / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def _nest_first_record(eval_dir: Path) -> None:
    path = eval_dir / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = "[" * 100_000 + "]" * 100_000
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _unclose_npy_header(eval_dir: Path) -> None:
    # numpy's header parser then raises tokenize's TokenError, not a ValueError
    path = eval_dir / "probs.npy"
    raw = path.read_bytes()
    end = raw.index(b"\n")  # the header's last byte, after its padding of spaces
    path.write_bytes(raw[:end - 1] + b"(" + raw[end:])


def _inflate_npy_shape(eval_dir: Path) -> None:
    # (m, n) declared as (m * 10**8, n), padded to the header's length: numpy
    # would allocate that many values before it found the file too short
    path = eval_dir / "probs.npy"
    raw = path.read_bytes()
    end = raw.index(b"\n")
    header = raw[:end].decode("latin-1")
    m = re.search(r"'shape': \((\d+),", header)
    wider = header.replace(m.group(0), f"'shape': ({m.group(1)}00000000,", 1)
    assert not wider[end:].strip()  # only padding is cut
    path.write_bytes(wider[:end].encode("latin-1") + raw[end:])


def _append_to_npy(eval_dir: Path, extra: bytes) -> None:
    path = eval_dir / "probs.npy"
    path.write_bytes(path.read_bytes() + extra)


def _nan_cell(probs):
    probs[0, 0] = np.nan
    return probs


_LINE_1 = "records.jsonl:1: "
_UNACCOUNTED = "gt and n_unseen must account for each of the record's codes once"


def _miscount_first_record_unseen(eval_dir: Path) -> None:
    row = json.loads((eval_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()[0])
    _edit_first_record(eval_dir, n_unseen=row["n_unseen"] + 1)


def _repeat_first_record_gt(eval_dir: Path) -> None:
    # one code more, listed as a second copy of a gt index: the count adds up
    row = json.loads((eval_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()[0])
    extra = next(c for c in ("Z99.9", "Z99.8") if c not in row["codes"])
    _edit_first_record(eval_dir, gt=row["gt"] + row["gt"][:1],
                       codes=sorted(row["codes"] + [extra]))


@pytest.mark.parametrize("command, corrupt, code, category, where", [
    ("calibrate", lambda d: _edit_first_record(d, gt=[10_000]), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, gt=[10_000]), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, n_unseen=-1), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, n_unseen=True), 3, "validation",
     _LINE_1 + "n_unseen must be an integer"),
    ("calibrate", _drop_last_record, 3, "validation", "records.jsonl lines"),
    ("calibrate", lambda d: _edit_probs(d, _nan_cell), 4, "numeric", "probs.npy"),
    ("report", lambda d: _edit_probs(d, _nan_cell), 4, "numeric", "probs.npy"),
    ("report", lambda d: _edit_probs(d, lambda p: p[0]), 4, "numeric", "probs.npy"),
    ("report", lambda d: _edit_first_record(d, first_visit="no"), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, first_visit=2), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, dept=5), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, dept=["a"]), 3, "validation", _LINE_1),
    ("calibrate", lambda d: _edit_first_record(d, freq_bucket=None), 3, "validation",
     _LINE_1),
    ("report", lambda d: _edit_first_record(d, patient_id=7), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, codes="A00.0"), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, codes=[]), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, codes=["nope"]), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, codes=["A00.0", "A00.0"]), 3, "validation",
     _LINE_1 + "duplicate codes"),
    ("calibrate", lambda d: _edit_first_record(d, gt=[], n_unseen=0), 3, "validation",
     _LINE_1 + _UNACCOUNTED),
    ("report", lambda d: _edit_first_record(d, gt=[], n_unseen=0), 3, "validation",
     _LINE_1 + _UNACCOUNTED),
    ("report", _miscount_first_record_unseen, 3, "validation", _LINE_1 + _UNACCOUNTED),
    ("calibrate", _repeat_first_record_gt, 3, "validation", _LINE_1 + _UNACCOUNTED),
    ("report", lambda d: _edit_first_record(d, doctor="DR001"), 3, "validation",
     _LINE_1 + "missing fields [], unknown fields ['doctor']"),
    ("calibrate", lambda d: _edit_first_record(d, without="dept"), 3, "validation",
     _LINE_1 + "missing fields ['dept'], unknown fields []"),
    ("report", _nest_first_record, 3, "validation", _LINE_1 + "JSON nested too deeply"),
    ("calibrate", _unclose_npy_header, 3, "validation", "probs.npy"),
    ("calibrate", _inflate_npy_shape, 3, "validation", "probs.npy: its header declares"),
    ("report", lambda d: _append_to_npy(d, b"\0" * 8), 3, "validation",
     "probs.npy: its header declares"),
], ids=["gt-outside-labels-calibrate", "gt-outside-labels-report", "negative-unseen",
        "n_unseen-true", "row-count-mismatch", "nan-calibrate", "nan-report",
        "one-dimensional-probs", "first_visit-a-string", "first_visit-an-int", "dept-an-int",
        "dept-a-list", "freq_bucket-null", "patient_id-an-int", "codes-a-string",
        "codes-empty", "code-malformed", "codes-duplicated", "no-ground-truth-calibrate",
        "no-ground-truth-report", "n_unseen-off-by-one", "gt-index-repeated", "field-unknown",
        "field-missing", "nested-too-deeply", "npy-header-unclosed", "npy-header-shape-beyond-the-file",
        "npy-trailing-bytes"])
def test_malformed_predictions_exit_with_one_error_line(pipeline, tmp_path, capsys,
                                                        command, corrupt, code, category,
                                                        where):
    bad = tmp_path / "eval"
    shutil.copytree(pipeline["eval_dev"], bad)
    corrupt(bad)
    capsys.readouterr()
    assert main([command, "--config", str(pipeline["cfg"]), "--in", str(bad),
                 "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"icdlab-error: {category}:")
    assert where in err[0]


def _edit_first_line(path: Path, **changes) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **changes})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("field, value", [
    ("codes", [1]), ("date", 20180101), ("text", 5), ("meds", None),
], ids=["int-code", "int-date", "int-text", "null-meds"])
def test_wrongly_typed_encounter_field_names_its_line(pipeline, tmp_path, capsys,
                                                      field, value):
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline["corpus"], corpus)
    _edit_first_line(corpus / "dev.txt", **{field: value})
    capsys.readouterr()
    assert main(["preprocess", "--config", str(pipeline["cfg"]), "--in", str(corpus),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert "dev.txt:1" in err[0] and field in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("date", ["2018-W01-1", "20180105"], ids=["week", "basic"])
@pytest.mark.parametrize("stage, file", [("corpus", "test.txt"), ("eval_dev", "records.jsonl")],
                         ids=["split", "records"])
def test_a_date_in_another_iso_spelling_exits_3_naming_its_line(pipeline, tmp_path, capsys,
                                                                stage, file, date):
    # only the YYYY-MM-DD that the writers spell, whichever forms
    # date.fromisoformat reads on this Python
    copy = tmp_path / stage
    shutil.copytree(pipeline[stage], copy)
    _edit_first_line(copy / file, date=date)
    capsys.readouterr()
    command = "preprocess" if stage == "corpus" else "report"
    assert main([command, "--config", str(pipeline["cfg"]), "--in", str(copy),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert f"{file}:1: bad date '{date}'" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("file, field, value", [
    ("dev.txt", "patient_id", "P1\u0000"), ("dev.txt", "dept", "D0\u0000"),
    ("dev.txt", "doctor", "DR\u0000001"), ("dev.txt", "meds", ["M1", "M1\u0000"]),
    ("dev.txt", "procs", ["\u0000"]), ("records.jsonl", "patient_id", "P1\u0000"),
    ("records.jsonl", "dept", "D0\u0000"), ("records.jsonl", "freq_bucket", "0\u0000"),
], ids=["split-patient_id", "split-dept", "split-doctor", "split-meds", "split-procs",
        "records-patient_id", "records-dept", "records-freq_bucket"])
def test_a_nul_in_a_field_that_becomes_a_column_exits_3_naming_line_and_field(
        pipeline, tmp_path, capsys, file, field, value):
    # numpy's str columns drop a trailing U+0000: "M1\u0000" would become "M1"
    if file == "dev.txt":
        corpus = tmp_path / "corpus"
        shutil.copytree(pipeline["corpus"], corpus)
        _edit_first_line(corpus / file, **{field: value})
        argv = ["preprocess", "--in", str(corpus)]
    else:
        eval2 = tmp_path / "eval"
        shutil.copytree(pipeline["eval_dev"], eval2)
        _edit_first_record(eval2, **{field: value})
        argv = ["report", "--in", str(eval2)]
    capsys.readouterr()
    assert main([*argv, "--config", str(pipeline["cfg"]), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert f"{file}:1: {field} must not contain U+0000" in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("char", ["\u2028", "\u0085"], ids=["U+2028", "U+0085"])
def test_a_unicode_line_break_in_a_field_passes_every_stage(pipeline, tmp_path, char):
    # json.dumps writes these unescaped, so every reader splits lines at "\n" only
    corpus, prep2, eval2 = tmp_path / "corpus", tmp_path / "prep2", tmp_path / "eval"
    cfg = str(pipeline["cfg"])
    shutil.copytree(pipeline["corpus"], corpus)
    path = corpus / "dev.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[0] = json.dumps({**json.loads(lines[0]), "dept": f"D{char}X"}, ensure_ascii=False)
    path.write_text("\n".join(lines), encoding="utf-8")
    # dev text changes neither the vocabulary nor the label space: the model still fits
    assert main(["preprocess", "--config", cfg, "--in", str(corpus), "--out", str(prep2)]) == 0
    assert main(["evaluate", "--config", cfg, "--in", str(prep2), "--model",
                 str(pipeline["model"]), "--out", str(eval2), "--split", "dev"]) == 0
    assert char in (eval2 / "records.jsonl").read_text(encoding="utf-8")
    for command in ("calibrate", "report"):
        assert main([command, "--config", cfg, "--in", str(eval2),
                     "--out", str(tmp_path / command)]) == 0, command
    assert read_prediction_records(eval2).dept[0] == f"D{char}X"


def _drop_param(name):
    return lambda params: {k: v for k, v in params.items() if k != name}


def _cut_rows(name, rows):
    return lambda params: {**params, name: params[name][:rows]}


@pytest.mark.parametrize("stage, ckpt, edit, param", [
    ("model", "model.ckpt", _drop_param("out_b"), "out_b"),
    ("model", "model.ckpt", _cut_rows("emb", 10), "emb"),
    ("reranker", "reranker.ckpt", _drop_param("proj_b"), "proj_b"),
    ("reranker", "reranker.ckpt", _cut_rows("label_emb", 1), "label_emb"),
], ids=["base-without-out_b", "base-emb-10-rows", "reranker-without-proj_b",
        "reranker-label_emb-1-row"])
def test_checkpoint_parameters_must_match_the_sidecar(pipeline, tmp_path, capsys,
                                                      stage, ckpt, edit, param):
    dirs = dict(pipeline)
    dirs[stage] = tmp_path / stage
    shutil.copytree(pipeline[stage], dirs[stage])
    meta, params = load_params(dirs[stage] / ckpt)
    save_params(dirs[stage] / ckpt, edit(params), meta)
    argv = ["evaluate", "--config", str(pipeline["cfg"]), "--in", str(pipeline["prep"]),
            "--model", str(dirs["model"]), "--out", str(tmp_path / "o")]
    if stage == "reranker":
        argv += ["--reranker", str(dirs["reranker"])]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert ckpt in err[0] and repr(param) in err[0]


@pytest.mark.parametrize("edit", [  # of x{j} and v{j}, label j's map
    lambda a, x, v: {k: a[k] for k in a if k != v},
    lambda a, x, v: {**a, v: a[v][:-1]},
    lambda a, x, v: {**a, x: a[x][::-1]},
    lambda a, x, v: {**a, v: np.linspace(1.0, 0.0, a[v].size)},
    lambda a, x, v: {k: a[k] for k in a if k not in (x, v)},
], ids=["x0-without-v0", "v0-shorter-than-x0", "x0-decreasing", "v0-decreasing",
        "x0-and-v0-absent"])
def test_malformed_isotonic_map_exits_3(pipeline, tmp_path, capsys, edit):
    dirs = dict(pipeline)
    dirs["calib"] = tmp_path / "calib"
    shutil.copytree(pipeline["calib"], dirs["calib"])
    meta, arrays = load_params(dirs["calib"] / "isotonic.ckpt")
    # the label with the most steps, so that cutting or reversing its map changes it
    j = max(range(meta["n_labels"]), key=lambda j: arrays[f"x{j}"].size)
    assert arrays[f"x{j}"].size > 1
    save_params(dirs["calib"] / "isotonic.ckpt", edit(arrays, f"x{j}", f"v{j}"), meta)
    capsys.readouterr()
    assert main([*_automate_calibrated(dirs), "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert "isotonic.ckpt" in err[0]
    assert f"label {j} needs non-empty 1-D x{j} and v{j}" in err[0]


@pytest.mark.parametrize("edit, bad", [
    (lambda a: {**a, "x2": a["x2"][::-1]}, 2),
    (lambda a: {**a, "v1": a["v1"][::-1], "x2": a["x2"][::-1]}, 1),
    (lambda a: {**a, "x1": a["x1"][::-1], "v2": a["v2"][:1]}, 1),
    (lambda a: {**a, "x2": a["x2"][::-1], "v1": a["v1"][:1]}, 1),
    (lambda a: {**a, "x1": np.zeros(0), "v1": np.zeros(0)}, 1),
    (lambda a: {**a, "x2": a["x2"].reshape(1, -1), "v2": a["v2"].reshape(1, -1)}, 2),
    (lambda a: {k: v for k, v in a.items() if k != "x1"}, 1),
], ids=["x2-decreasing", "v1-and-x2-decreasing", "x1-decreasing-v2-short",
        "x2-decreasing-v1-short", "label-1-empty", "label-2-two-dimensional", "x1-absent"])
def test_load_isotonic_names_the_first_faulty_label(tmp_path, edit, bad):
    arrays = {"x0": np.array([0.1, 0.5]), "v0": np.array([0.0, 1.0]),
              "x1": np.array([0.0, 0.2, 0.9]), "v1": np.array([0.1, 0.4, 0.8]),
              "x2": np.array([0.3, 0.6]), "v2": np.array([0.2, 0.7])}
    meta = {"kind": "isotonic", "n_labels": 3, "labels_sha256": "0" * 64}
    save_params(tmp_path / "isotonic.ckpt", arrays, meta)
    assert [xs.tolist() for xs, _ in load_isotonic(tmp_path, "0" * 64, tmp_path).maps] == [
        arrays[f"x{j}"].tolist() for j in range(3)]
    save_params(tmp_path / "isotonic.ckpt", edit(arrays), meta)
    with pytest.raises(ValidationError, match=f"label {bad} needs non-empty 1-D x{bad} "
                                              f"and v{bad} of equal length"):
        load_isotonic(tmp_path, "0" * 64, tmp_path)


def test_load_isotonic_looks_up_no_more_maps_than_the_file_holds(pipeline, tmp_path):
    # n_labels is a number in the header: a large one must not cost its size
    calib = tmp_path / "calib"
    shutil.copytree(pipeline["calib"], calib)
    meta, arrays = load_params(calib / "isotonic.ckpt")
    save_params(calib / "isotonic.ckpt", arrays, {**meta, "n_labels": 2_000_000})
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"label {len(arrays) // 2} needs"):
            load_isotonic(calib, meta["labels_sha256"], pipeline["eval_dev"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_calibrate_records_the_label_space_and_automate_checks_it(pipeline, tmp_path, capsys):
    meta, arrays = load_params(pipeline["calib"] / "isotonic.ckpt")
    assert meta["labels_sha256"] == _eval_digests(pipeline["eval_dev"])[0]
    # maps of as many labels, fitted on another label space
    calib = tmp_path / "calib"
    shutil.copytree(pipeline["calib"], calib)
    save_params(calib / "isotonic.ckpt", arrays, {**meta, "labels_sha256": "0" * 64})
    capsys.readouterr()
    assert main([*_automate_calibrated({**pipeline, "calib": calib}), "--config",
                 str(pipeline["cfg"]), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(calib / "isotonic.ckpt") in err[0] and str(pipeline["eval_dev"]) in err[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edit", [
    lambda meta, a: ({**meta, "n_labels": meta["n_labels"] - 0.1}, a),
    lambda meta, a: ({**meta, "n_labels": str(meta["n_labels"])}, a),
    lambda meta, a: ({**meta, "n_labels": True}, a),
    lambda meta, a: ({**meta, "n_labels": -1}, a),
    lambda meta, a: (meta, {**a, f"x{meta['n_labels']}": a["x0"],
                            f"v{meta['n_labels']}": a["v0"]}),
    lambda meta, a: (meta, {**a, "w0": a["v0"]}),
], ids=["n_labels-a-float", "n_labels-a-string", "n_labels-true", "n_labels-negative",
        "a-map-past-n_labels", "an-array-of-another-name"])
def test_isotonic_header_must_state_exactly_its_maps(pipeline, tmp_path, capsys, edit):
    calib = tmp_path / "calib"
    shutil.copytree(pipeline["calib"], calib)
    meta, arrays = edit(*load_params(calib / "isotonic.ckpt"))
    save_params(calib / "isotonic.ckpt", arrays, meta)
    capsys.readouterr()
    assert main([*_automate_calibrated({**pipeline, "calib": calib}), "--config",
                 str(pipeline["cfg"]), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(calib / "isotonic.ckpt") in err[0]


def test_full_level_isotonic_checkpoint_automates_the_same(pipeline, tmp_path):
    # one breakpoint per level of the dev probabilities, each with its PAV
    # value: the same maps as the stepped checkpoint, so the same rules
    calib = tmp_path / "calib"
    shutil.copytree(pipeline["calib"], calib)
    meta, stepped = load_params(calib / "isotonic.ckpt")
    dev = read_prediction_records(pipeline["eval_dev"])
    full = {}
    for j in range(meta["n_labels"]):
        levels, inverse, counts = np.unique(dev.probs[:, j], return_inverse=True,
                                            return_counts=True)
        full[f"x{j}"] = levels
        full[f"v{j}"] = _pav(np.bincount(inverse, weights=dev.gt[:, j]).astype(np.int64),
                             counts)
    assert sum(x.size for x in full.values()) > sum(x.size for x in stepped.values())
    save_params(calib / "isotonic.ckpt", full, meta)
    assert main(["automate", "--config", str(pipeline["cfg"]),
                 "--dev", str(pipeline["eval_dev"]), "--test", str(pipeline["eval_test"]),
                 "--out", str(tmp_path / "o"), "--max-fp", "0.1,0.2",
                 "--calibrated", "--maps", str(calib)]) == 0
    assert ((tmp_path / "o" / "automation.csv").read_bytes()
            == (pipeline["auto"] / "automation.csv").read_bytes())


@pytest.mark.parametrize("k", ["0", "-1"])
def test_evaluate_k_below_one_is_usage_error(pipeline, tmp_path, capsys, k):
    capsys.readouterr()
    assert main([*_evaluate(pipeline), "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "o"), "--k", k]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: usage:") and "--k" in err[0]
    assert not any(tmp_path.iterdir())  # neither --out nor a staging directory


def test_evaluate_breakdown_names_the_k_of_its_recall_column(pipeline, tmp_path):
    tables = {}
    for k in ("1", "5"):
        assert main([*_evaluate(pipeline), "--config", str(pipeline["cfg"]), "--breakdown", "dept",
                     "--out", str(tmp_path / k), "--k", k]) == 0
        tables[k] = (tmp_path / k / "breakdown_dept.csv").read_text(encoding="utf-8")
    # at the default k the table is the pipeline's, byte for byte
    assert tables["5"] == (pipeline["eval_test"] / "breakdown_dept.csv").read_text(encoding="utf-8")
    one, five = ([row.split(",") for row in tables[k].splitlines()] for k in ("1", "5"))
    assert one[0] == ["group", "size", "recall_at_1", "instance_f1", "distinct_labels_per_period"]
    # the recall column, the third, holds R@1; every other cell is as at k = 5
    assert [row[:2] + row[3:] for row in one] == [row[:2] + row[3:] for row in five]
    assert [row[2] for row in one[1:]] != [row[2] for row in five[1:]]


@pytest.mark.parametrize("line", ["learning_rate = 0.02", "d_c = 4"],
                         ids=["same-width", "other-width"])
def test_reranker_over_another_base_model_exits_3_naming_both(pipeline, tmp_path, capsys,
                                                              line):
    # the reranker was trained over pipeline["model"]; a base model trained
    # otherwise, at the reranker's key width or another, must not serve it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_with(line), encoding="utf-8")
    other = tmp_path / "other_model"
    assert main(["train", "--config", str(cfg), "--in", str(pipeline["prep"]),
                 "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(pipeline["cfg"]), "--in", str(pipeline["prep"]),
                 "--model", str(other), "--reranker", str(pipeline["reranker"]),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(pipeline["reranker"] / "reranker.ckpt") in err[0]
    assert str(other / "model.ckpt") in err[0]
    meta, _ = load_params(pipeline["reranker"] / "reranker.ckpt")
    assert meta["base_sha256"] == _sha(pipeline["model"] / "model.ckpt")


def test_reranker_checkpoint_with_per_head_parameters_exits_3_naming_the_file(
        pipeline, tmp_path, capsys):
    # before the heads became column blocks, each side stored one wq, wk
    # and wv per head (attn_n.h0.wq ...) and the metadata named no base model
    rr = tmp_path / "reranker"
    shutil.copytree(pipeline["reranker"], rr)
    meta, params = load_params(rr / "reranker.ckpt")
    del meta["base_sha256"]
    heads = meta["hparams"]["n_heads"]
    old = {}
    for name, value in params.items():
        side, _, kind = name.partition(".")
        if kind in ("wq", "wk", "wv"):
            for h, block in enumerate(np.hsplit(value, heads)):
                old[f"{side}.h{h}.{kind}"] = block
        else:
            old[name] = value
    save_params(rr / "reranker.ckpt", old, meta)
    capsys.readouterr()
    assert main([*_evaluate_reranked({**pipeline, "reranker": rr}),
                 "--config", str(pipeline["cfg"]), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(rr / "reranker.ckpt") in err[0] and "attn_m.h0.wk" in err[0]


def test_train_reranker_takes_key_width_from_the_base(pipeline, tmp_path):
    # the base was trained with d_c = 8; the reranker reads its keys at that width
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config_with("d_c = 4"), encoding="utf-8")
    out = tmp_path / "rr"
    assert main(["train-reranker", "--config", str(cfg), "--in", str(pipeline["prep"]),
                 "--base", str(pipeline["model"]), "--out", str(out)]) == 0
    meta, _ = load_params(out / "reranker.ckpt")
    assert meta["d_keys"] == 8


def test_automate_rejects_eval_dirs_of_different_label_spaces(pipeline, tmp_path, capsys):
    wider = tmp_path / "eval_wider"
    shutil.copytree(pipeline["eval_test"], wider)
    _edit_probs(wider, lambda p: np.hstack([p, np.zeros((len(p), 1))]))
    n = np.load(pipeline["eval_dev"] / "probs.npy").shape[1]
    capsys.readouterr()
    assert main(["automate", "--config", str(pipeline["cfg"]), "--dev", str(pipeline["eval_dev"]),
                 "--test", str(wider), "--out", str(tmp_path / "o"), "--max-fp", "0.1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert all(s in err[0] for s in (str(pipeline["eval_dev"]), str(wider),
                                     f"{n} labels", f"{n + 1}"))
    assert not (tmp_path / "o" / "automation.csv").exists()


@pytest.mark.parametrize("edit, names_dev", [
    (lambda m: {**m, "inputs": {p: "0" * 64 if p.endswith("labels.json") else d
                                for p, d in m["inputs"].items()}}, True),
    (None, False),
    (lambda m: "{not json", False),
    (lambda m: {**m, "inputs": {p: d for p, d in m["inputs"].items()
                                if not p.endswith("labels.json")}}, False),
], ids=["other-labels-digest", "no-manifest", "manifest-not-json", "no-labels-input"])
def test_automate_compares_the_label_spaces_the_eval_manifests_record(pipeline, tmp_path,
                                                                      capsys, edit, names_dev):
    other = tmp_path / "eval_other"
    shutil.copytree(pipeline["eval_test"], other)
    path = other / "manifest.json"
    if edit is None:
        path.unlink()
    else:
        m = edit(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(m if isinstance(m, str) else json.dumps(m), encoding="utf-8")
    capsys.readouterr()
    assert main(["automate", "--config", str(pipeline["cfg"]), "--dev", str(pipeline["eval_dev"]),
                 "--test", str(other), "--out", str(tmp_path / "o"), "--max-fp", "0.1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(other) in err[0]
    assert (str(pipeline["eval_dev"]) in err[0]) == names_dev
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mix", ["own-pair", "reranked-test", "dev-of-another-model"])
def test_automate_rejects_evals_of_different_models(pipeline, tmp_path, capsys, mix):
    # the pipeline's dev and test evals score one base model; a reranked
    # test eval, or a dev eval of another base model, must not pair with them
    dev, test = pipeline["eval_dev"], pipeline["eval_test"]
    if mix == "reranked-test":
        test = pipeline["eval_rr"]
    elif mix == "dev-of-another-model":
        cfg, other, dev = tmp_path / "run.cfg", tmp_path / "other_model", tmp_path / "other_dev"
        cfg.write_text(_config_with("d_c = 4"), encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--in", str(pipeline["prep"]),
                     "--out", str(other)]) == 0
        assert main(["evaluate", "--config", str(pipeline["cfg"]), "--in", str(pipeline["prep"]),
                     "--model", str(other), "--out", str(dev), "--split", "dev"]) == 0
    capsys.readouterr()
    code = main(["automate", "--config", str(pipeline["cfg"]), "--dev", str(dev),
                 "--test", str(test), "--out", str(tmp_path / "o"), "--max-fp", "0.1"])
    err = capsys.readouterr().err.splitlines()
    if mix == "own-pair":
        assert code == 0 and err == []
        return
    assert code == 3 and len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert str(dev) in err[0] and str(test) in err[0]
    assert ("reranker.ckpt" if mix == "reranked-test" else "model.ckpt") in err[0]
    assert not (tmp_path / "o").exists()


def test_an_eval_manifest_without_a_model_input_exits_3_naming_it(pipeline, tmp_path, capsys):
    other = tmp_path / "eval_other"
    shutil.copytree(pipeline["eval_test"], other)
    path = other / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["inputs"] = {p: d for p, d in manifest["inputs"].items()
                          if not p.endswith("model.ckpt")}
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert main(["automate", "--config", str(pipeline["cfg"]), "--dev", str(pipeline["eval_dev"]),
                 "--test", str(other), "--out", str(tmp_path / "o"), "--max-fp", "0.1"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"icdlab-error: validation: {path}: ")
    assert "model.ckpt" in err[0]


def test_failed_stage_leaves_out_as_it_was(pipeline, tmp_path, capsys, monkeypatch):
    # evaluating the test split would rewrite every file of this dev eval dir
    out = tmp_path / "eval"
    shutil.copytree(pipeline["eval_dev"], out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def refuse(records):
        raise ValidationError("records refused")

    monkeypatch.setattr(cli, "_records_jsonl", refuse)
    capsys.readouterr()
    assert main([*_evaluate(pipeline), "--config", str(pipeline["cfg"]), "--out", str(out),
                 "--split", "test"]) == 3
    assert capsys.readouterr().err == "icdlab-error: validation: records refused\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["eval"]  # no staging directory left


def _corrupt(path: Path, how: str) -> None:
    raw = path.read_bytes()
    mid = len(raw) // 2
    path.write_bytes({"half": raw[:mid], "empty": b"",
                      "flip": raw[:mid] + bytes([raw[mid] ^ 0xFF]) + raw[mid + 1:],
                      "non-utf8-prefix": b"\xff\xfe" + raw}[how])


# every artifact a stage reads, with the first stage of the chain that reads it
CORRUPTIBLE = [
    ("cfg", "run.cfg", lambda d: ["gen-corpus"]),
    *[("corpus", f"{split}.txt", lambda d: ["preprocess", "--in", str(d["corpus"])])
      for split in ("train", "dev", "test")],
    *[("prep", name, lambda d: ["train", "--in", str(d["prep"])])
      for name in ("train.notes", "dev.notes", "vocab.json", "labels.json")],
    ("prep", "test.notes", lambda d: [*_evaluate(d), "--split", "test"]),
    ("model", "model.ckpt", lambda d: ["train-reranker", "--in", str(d["prep"]),
                                       "--base", str(d["model"])]),
    ("reranker", "reranker.ckpt", _evaluate_reranked),
    *[("eval_dev", name, lambda d: ["calibrate", "--in", str(d["eval_dev"])])
      for name in ("probs.npy", "records.jsonl")],
    ("calib", "isotonic.ckpt", _automate_calibrated),
]


@pytest.mark.parametrize("how", ["half", "empty", "flip", "non-utf8-prefix"])
@pytest.mark.parametrize("stage, name, argv", CORRUPTIBLE,
                         ids=[f"{stage}-{name}" for stage, name, _ in CORRUPTIBLE])
def test_corrupt_artifact_succeeds_or_ends_in_one_error_line(pipeline, tmp_path, capsys,
                                                            stage, name, argv, how):
    dirs = dict(pipeline)
    if stage == "cfg":
        dirs["cfg"] = path = tmp_path / name
        shutil.copy(pipeline["cfg"], path)
    else:
        dirs[stage] = tmp_path / stage
        shutil.copytree(pipeline[stage], dirs[stage])
        path = dirs[stage] / name
    _corrupt(path, how)
    capsys.readouterr()
    code = main([*argv(dirs), "--config", str(dirs["cfg"]), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    if code == 0:
        assert err == []
    else:
        assert code in (3, 4) and len(err) == 1 and err[0].startswith("icdlab-error: ")
    if how == "non-utf8-prefix":
        assert code == 3 and err[0].startswith("icdlab-error: validation:") and name in err[0]


# every file each stage reads but run.cfg, whose numbers can ask for any corpus size
MUTATED_INPUTS = {
    "preprocess": ["corpus/train.txt", "corpus/dev.txt", "corpus/test.txt"],
    "train": ["prep/vocab.json", "prep/labels.json", "prep/train.notes", "prep/dev.notes"],
    "train-reranker": ["prep/vocab.json", "prep/labels.json", "prep/train.notes",
                       "prep/dev.notes", "model/model.ckpt"],
    "evaluate-reranked": ["prep/vocab.json", "prep/labels.json", "prep/test.notes",
                          "model/model.ckpt", "reranker/reranker.ckpt"],
    "calibrate": ["eval_dev/manifest.json", "eval_dev/probs.npy", "eval_dev/records.jsonl"],
    "automate-calibrated": [*(f"{d}/{name}" for d in ("eval_dev", "eval_test")
                              for name in ("manifest.json", "probs.npy", "records.jsonl")),
                            "calib/isotonic.ckpt"],
    "report": ["eval_test/probs.npy", "eval_test/records.jsonl"],
}
MUTATIONS_PER_FILE = 10
_JSON_VALUES = [None, True, False, 0, -1, 1, 0.5, "", "A00", [], {}]


def _json_slots(doc) -> list:
    """(container, key) for every value inside a parsed JSON document."""
    slots, todo = [], [doc]
    while todo:
        node = todo.pop()
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                todo.append(node[key])
    return slots


def _mutate(raw: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One seeded mutation of a file's bytes and its kind: a truncation, a
    flipped bit, inserted bytes, a dropped or duplicated line, or a JSON value
    replaced or deleted, in the whole file or in one of its lines."""
    lines = raw.split(b"\n")
    docs = []  # (line index or None for the whole file, parsed JSON container)
    for at, text in [(None, raw), *enumerate(lines)]:
        try:
            doc = json.loads(text)
        except (UnicodeDecodeError, ValueError):
            continue
        if isinstance(doc, (dict, list)) and doc:
            docs.append((at, doc))
            if at is None:
                break
    kinds = ["truncate", "flip-bit", "insert-bytes", "drop-line", "duplicate-line"]
    kind = rng.choice(kinds + ["replace-value", "delete-value"] * bool(docs))
    at = rng.randrange(len(raw))
    if kind == "truncate":
        return kind, raw[:at]
    if kind == "flip-bit":
        return kind, raw[:at] + bytes([raw[at] ^ 1 << rng.randrange(8)]) + raw[at + 1:]
    if kind == "insert-bytes":
        return kind, raw[:at] + rng.randbytes(rng.randint(1, 8)) + raw[at:]
    if kind in ("drop-line", "duplicate-line"):
        i = rng.randrange(len(lines))
        copies = 2 if kind == "duplicate-line" else 0
        return kind, b"\n".join(lines[:i] + lines[i:i + 1] * copies + lines[i + 1:])
    at, doc = rng.choice(docs)
    node, key = rng.choice(_json_slots(doc))
    if kind == "replace-value":
        node[key] = rng.choice(_JSON_VALUES)
    else:
        del node[key]
    text = json.dumps(doc, ensure_ascii=False).encode()
    return kind, text if at is None else b"\n".join(lines[:at] + [text] + lines[at + 1:])


@pytest.mark.parametrize("stage, file", [(stage, file) for stage, files in MUTATED_INPUTS.items()
                                         for file in files])
def test_seeded_mutations_of_a_stage_input_end_in_exit_0_3_or_4(pipeline, tmp_path, capsys,
                                                                 stage, file):
    # the error contract under random damage: success without a word on stderr,
    # or exit 3 or 4 with one `icdlab-error:` line naming the damaged file or
    # the directory it lies in, and no --out
    dirs = dict(pipeline)
    name = file.split("/")[0]
    dirs[name] = tmp_path / name
    shutil.copytree(pipeline[name], dirs[name])
    path = tmp_path / file
    original = path.read_bytes()
    for i in range(MUTATIONS_PER_FILE):
        kind, raw = _mutate(original, random.Random(f"{file}:{stage}:{i}"))
        path.write_bytes(raw)
        out = tmp_path / f"o{i}"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*STAGE_ARGVS[stage](dirs), "--config", str(pipeline["cfg"]),
                         "--out", str(out)])
        printed = capsys.readouterr()
        where = f"mutation {i} ({kind}) of {file} for {stage}"
        assert caught == [], f"{where}: {[str(w.message) for w in caught]}"
        if code == 0:
            assert printed.err == "", where
        else:
            err = printed.err.splitlines()
            assert code in (3, 4), f"{where}: exit {code}"
            assert len(err) == 1 and err[0].startswith("icdlab-error: "), f"{where}: {err}"
            assert str(dirs[name]) in err[0], f"{where}: {err}"
            assert printed.out == "" and not out.exists(), where
            assert not list(tmp_path.glob(f".{out.name}.*")), where  # no staging directory


# --------------------------------------------------------------------------
# the column readers of split files and records.jsonl against the per-row
# reader they replaced (oracles.py): the same message, or the same value
# --------------------------------------------------------------------------

DIFFERENTIAL_MUTATIONS = 200


def _verdict(read, path):
    """What `read(path)` returns, or (the exception's type, its message)."""
    try:
        value = read(path)
    except Exception as exc:  # any exception: both readers must raise the same
        return type(exc).__name__, str(exc)
    if isinstance(value, Predictions):
        return {f: (a.dtype, a.tolist()) for f, a in vars(value).items()}
    return value


_READERS = {"corpus": (cli.read_encounters, oracles.read_encounters),
            "eval_dev": (read_prediction_records, oracles.read_prediction_records)}


@pytest.mark.parametrize("file", ["corpus/dev.txt", "eval_dev/records.jsonl"])
def test_seeded_mutations_get_the_per_row_readers_verdict(pipeline, tmp_path, file):
    name = file.split("/")[0]
    shutil.copytree(pipeline[name], tmp_path / name)
    path = tmp_path / file
    where = path if name == "corpus" else path.parent
    original = path.read_bytes()
    for i in range(DIFFERENTIAL_MUTATIONS):
        kind, raw = _mutate(original, random.Random(f"differential:{file}:{i}"))
        path.write_bytes(raw)
        got, want = (_verdict(read, where) for read in _READERS[name])
        assert got == want, f"mutation {i} ({kind}) of {file}"


_SPLIT_ROW = {"patient_id": "P1", "date": "2020-01-01", "dept": "D1", "doctor": "DR1",
              "text": "x", "codes": ["E78.5"], "meds": [], "procs": []}
_RECORD_ROW = {"gt": [0], "n_unseen": 0, "dept": "D1", "first_visit": True,
               "freq_bucket": "0", "patient_id": "P1", "date": "2020-01-01",
               "codes": ["E78.5"]}


def _line(row, **changes):
    return json.dumps({k: v for k, v in {**row, **changes}.items() if v is not None})


@pytest.mark.parametrize("lines, named", [
    ([_line(_SPLIT_ROW), _line(_SPLIT_ROW, date="2020-13-01"), "{not json"],
     ":2: bad date '2020-13-01'"),
    ([_line(_SPLIT_ROW), "{not json", _line(_SPLIT_ROW, date="2020-13-01")],
     ":2: not valid JSON"),
    ([_line(_SPLIT_ROW, codes=["e78"]), _line(_SPLIT_ROW, text=5)], ":1: malformed code 'e78'"),
    ([_line(_SPLIT_ROW), _line(_SPLIT_ROW, text=5), _line(_SPLIT_ROW, dept="D\0")],
     ":2: text must be a string"),
    ([_line(_SPLIT_ROW, codes=[]), _line(_SPLIT_ROW, dept="D\0")], ":1: encounter P1/"),
    ([_line(_SPLIT_ROW, meds=["M\0"]), _line(_SPLIT_ROW, codes=[])],
     ":1: meds must not contain U+0000"),
    ([_line(_SPLIT_ROW, codes=["E78.5", "E78.5"], date="2020-1-1")], ":1: duplicate codes"),
    ([_line(_SPLIT_ROW, codes=[], date="2020-1-1")], ":1: bad date '2020-1-1'"),
    ([_line(_SPLIT_ROW, codes=[], doctor="DR\0")], ":1: doctor must not contain U+0000"),
    ([_line(_SPLIT_ROW, codes=["e78"], procs=["\0"], dept="\0")],
     ":1: dept must not contain U+0000"),
    ([_line(_SPLIT_ROW, codes=["E78.5\0", "E78.5"])], ":1: malformed code 'E78.5\\x00'"),
    ([_line(_SPLIT_ROW, text=5, meds="M1", extra=1)], ":1: missing fields [], unknown"),
    ([_line(_SPLIT_ROW), "", _line(_SPLIT_ROW, codes=["Z99", "e78", "A00"])],
     ":3: malformed code 'e78'"),
], ids=["date-then-json", "json-then-date", "code-then-type", "type-then-nul",
        "empty-then-nul", "nul-then-empty", "duplicate-and-date", "date-and-empty",
        "empty-and-nul", "two-nuls-and-a-code", "a-nul-ending-a-code", "fields-and-types",
        "after-a-blank-line"])
def test_a_split_file_with_several_faults_names_its_first(tmp_path, lines, named):
    path = tmp_path / "split.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got, want = (_verdict(read, path) for read in _READERS["corpus"])
    assert got == want
    assert got[0] == "ValidationError" and got[1].startswith(f"{path}{named}")


@pytest.mark.parametrize("lines, named", [
    ([_line(_RECORD_ROW, gt=[3], n_unseen=-1)], ":1: gt must list label indices in [0, 3)"),
    ([_line(_RECORD_ROW, n_unseen=-1, codes=["A00", "A00"])], ":1: n_unseen must be non"),
    ([_line(_RECORD_ROW, gt=[], codes=["e78"])], ":1: malformed code 'e78'"),
    ([_line(_RECORD_ROW, gt=[]), _line(_RECORD_ROW, gt=[7])], ":1: gt and n_unseen must"),
    ([_line(_RECORD_ROW, dept="\0", gt=[7])], ":1: dept must not contain U+0000"),
    ([_line(_RECORD_ROW, freq_bucket="\0"), _line(_RECORD_ROW, dept=1)],
     ":1: freq_bucket must not contain U+0000"),
    ([_line(_RECORD_ROW), _line(_RECORD_ROW, first_visit=1)],
     ":2: first_visit must be true or false"),
], ids=["gt-and-unseen", "unseen-and-duplicate", "no-gt-and-a-code", "no-gt-then-gt",
        "nul-and-gt", "nul-then-type", "a-type-on-the-last-line"])
def test_a_records_file_with_several_faults_names_its_first(tmp_path, lines, named):
    (tmp_path / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    np.save(tmp_path / "probs.npy", np.zeros((len(lines), 3)))
    got, want = (_verdict(read, tmp_path) for read in _READERS["eval_dev"])
    assert got == want
    assert got[0] == "ValidationError"
    assert got[1].startswith(f"{tmp_path / 'records.jsonl'}{named}")


# the stage calls of `pipeline` as the former scripts/run_pipeline.py wrote them
SCRIPT_STAGES = [
    ["gen-corpus", "--config", "run.cfg", "--out", "w/corpus"],
    ["preprocess", "--config", "run.cfg", "--in", "w/corpus", "--out", "w/prep"],
    ["train", "--config", "run.cfg", "--in", "w/prep", "--out", "w/model"],
    ["train-reranker", "--config", "run.cfg", "--in", "w/prep", "--base", "w/model",
     "--out", "w/reranker"],
    ["evaluate", "--config", "run.cfg", "--in", "w/prep", "--model", "w/model",
     "--out", "w/eval_dev", "--split", "dev"],
    ["evaluate", "--config", "run.cfg", "--in", "w/prep", "--model", "w/model",
     "--out", "w/eval_test", "--split", "test"],
    ["evaluate", "--config", "run.cfg", "--in", "w/prep", "--model", "w/model",
     "--reranker", "w/reranker", "--out", "w/eval_test_rr", "--split", "test"],
    ["calibrate", "--config", "run.cfg", "--in", "w/eval_dev", "--out", "w/calib"],
    ["automate", "--config", "run.cfg", "--dev", "w/eval_dev", "--test", "w/eval_test",
     "--out", "w/automation", "--max-fp", "0.05,0.1,0.15,0.2"],
    ["automate", "--config", "run.cfg", "--dev", "w/eval_dev", "--test", "w/eval_test",
     "--out", "w/automation_cal", "--max-fp", "0.05,0.1,0.15,0.2", "--calibrated",
     "--maps", "w/calib"],
    ["report", "--config", "run.cfg", "--in", "w/eval_test", "--out", "w/report"],
]


def test_pipeline_runs_every_stage(tmp_path, monkeypatch, capsys):
    # relative paths from two working directories, so the manifests' argv agree
    for side in ("pipeline", "stages"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "run.cfg").write_text(TINY_CFG, encoding="utf-8")
    monkeypatch.chdir(tmp_path / "pipeline")
    capsys.readouterr()
    assert main(["pipeline", "--config", "run.cfg", "--workdir", "w"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("+ icdlab ")] == \
        ["+ icdlab " + " ".join(argv) for argv in SCRIPT_STAGES]
    assert out[-1] == "pipeline complete under w"
    monkeypatch.chdir(tmp_path / "stages")
    for argv in SCRIPT_STAGES:
        assert main(argv) == 0, argv[0]
    stages = sorted(p.name for p in (tmp_path / "pipeline" / "w").iterdir())
    assert stages == sorted(argv[argv.index("--out") + 1][2:] for argv in SCRIPT_STAGES)
    for stage in stages:
        manifest = Path("w", stage, "manifest.json")
        assert (tmp_path / "pipeline" / manifest).read_bytes() == \
            (tmp_path / "stages" / manifest).read_bytes(), stage
        # a stage dir holds exactly what its manifest names
        m = json.loads((tmp_path / "pipeline" / manifest).read_text(encoding="utf-8"))
        held = sorted(p.name for p in (tmp_path / "pipeline" / "w" / stage).iterdir())
        assert held == sorted([*m["outputs"], *m["logs"], "manifest.json"]), stage
    # a checkpoint's metadata lives in its header, not in a JSON file beside it
    assert not [*Path("w").rglob("*.ckpt.json"), *Path("w").rglob("isotonic.json")]


def test_pipeline_stops_at_the_first_failing_stage(tmp_path, capsys):
    # no code is that frequent, so preprocess keeps no training document and
    # train, the third stage, exits 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG.replace("min_code_count = 1", "min_code_count = 1000"),
                   encoding="utf-8")
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg), "--workdir", str(tmp_path / "w")]) == 3
    out = capsys.readouterr().out
    assert "+ icdlab train " in out and "+ icdlab train-reranker" not in out
    assert "pipeline complete" not in out


# at this seed and learning rate neither model's one trained epoch scores
# above the parameters it started from on dev
PLATEAU_CFG = TINY_CFG.replace("seed = 11", "seed = 12").replace("learning_rate = 0.01",
                                                                 "learning_rate = 0.1")


def _stdout_of(argv) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv[0]
    return out.getvalue().splitlines()


@pytest.fixture(scope="module")
def plateau(tmp_path_factory):
    """A `pipeline` run at PLATEAU_CFG: its directory, its stdout, and the
    line of `evaluate --reranker --split dev` over its models."""
    w = tmp_path_factory.mktemp("plateau")
    cfg = w / "run.cfg"
    cfg.write_text(PLATEAU_CFG, encoding="utf-8")
    out = _stdout_of(["pipeline", "--config", str(cfg), "--workdir", str(w)])
    [dev_reranked] = _stdout_of(["evaluate", "--config", str(cfg), "--in", str(w / "prep"),
                                 "--model", str(w / "model"), "--reranker",
                                 str(w / "reranker"), "--split", "dev",
                                 "--out", str(w / "eval_dev_rr")])
    return w, out, dev_reranked


def test_training_summaries_name_the_kept_epoch_and_its_score(plateau):
    w, out, dev_reranked = plateau
    r5 = {line.split(":")[0]: line.split(" R@5 ")[1].split(",")[0]
          for line in [*out, dev_reranked] if line.startswith("evaluate[dev")}
    for command, model, evaluation in (("train", "model", "evaluate[dev]"),
                                       ("train-reranker", "reranker",
                                        "evaluate[dev, reranked]")):
        epochs = (w / model / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
        # no trained epoch beats epoch 0, so epoch 0 is kept and evaluated
        assert epochs and all(float(e.split(",")[2]) < float(r5[evaluation]) for e in epochs)
        assert f"{command}: {len(epochs)} epochs, kept epoch 0 at dev R@5 {r5[evaluation]}" \
            in out, command


def test_pipeline_evaluate_lines_are_distinct(plateau):
    # the reranker kept its identity start, so its test scores equal the base's
    _, out, _ = plateau
    lines = [line for line in out if line.startswith("evaluate[")]
    assert len(lines) == 3 and len(set(lines)) == 3, lines
    assert lines[2].startswith("evaluate[test, reranked]: ")


def _perfbench_spans():
    """The benchmark's tracer module, loaded from the checkout without
    importing anything else of the benchmark."""
    path = Path(icdlab.__file__).resolve().parents[2] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the functions the benchmark's tracer names that the program no longer has;
# a benchmark change may shorten this list; a program change lengthens it only by
# deleting a function the tracer still names
TRACER_MISSING = {
    "icdlab.autodiff.clamp01", "icdlab.autodiff.concat", "icdlab.autodiff.multi_head_attention",
    "icdlab.autodiff.softmax", "icdlab.autodiff.tensor_sum", "icdlab.autodiff.transpose",
    "icdlab.cli.note_for_encounter", "icdlab.model.BaseModel.predict_probs",
    "icdlab.train.frozen_base_outputs", "icdlab.train.label_targets",
}


def test_benchmark_tracer_runs_the_chain_and_counts_repeat(tmp_path):
    # the benchmark's traced run wraps program functions by name and reads
    # what they return; the whole chain must run under it, counting the same twice
    spans = _perfbench_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    counts = []
    for run in range(2):
        tracer = spans.Tracer()
        with spans.traced(tracer) as missing:
            assert set(missing) <= TRACER_MISSING, sorted(set(missing) - TRACER_MISSING)
            assert main(["pipeline", "--config", str(cfg),
                         "--workdir", str(tmp_path / f"w{run}")]) == 0
        counts.append(spans.summarize(tracer, set())[1])
    assert counts[0] == counts[1]
    assert counts[0]["preprocess.tokens"] > 0 and counts[0]["autodiff.backward.calls"] > 0


def _benchmark_workload_is_correct(workload):
    """One traced `perfbench/run.py` run of a workload at seed 42 ends with
    every one of its own output checks passing."""
    root = Path(icdlab.__file__).resolve().parents[2]
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "42", "--seconds", "0", "--trace", "1"],
                          cwd=root, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is True, [l for l in lines if "FAILED" in l]


def test_benchmark_train_workload_passes_its_output_checks():
    # R@5 against the seed's reference, the numpy oracle against report.csv,
    # the best model kept, and the per-layer counts repeating
    _benchmark_workload_is_correct("train")


def test_benchmark_post_model_workload_passes_its_output_checks():
    # the R@5 oracle against each eval's report.csv, one automation.csv row
    # per budget, unit outputs that repeat, and the per-layer counts repeating
    _benchmark_workload_is_correct("post_model")
