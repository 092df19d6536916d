"""End-to-end runs of every subcommand on a miniature corpus.

The pipeline fixture executes the whole chain once per session; individual
tests then inspect its artifacts. Exit-code tests run tiny one-off commands.
"""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icdlab
from icdlab import cli
from icdlab.calibrate import _pav
from icdlab.checkpoint import load_params, save_params
from icdlab.cli import load_isotonic, main, read_prediction_records
from icdlab.config import config_sha256, parse_config
from icdlab.corpus import LabelSpace, read_encounters
from icdlab.errors import ValidationError
from icdlab.metrics import mean_recall_at_k
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
    assert records.encounters[0].patient_id
    # reported recall must be reproducible from the reloaded records
    reported = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1]
    recall_pct = float(reported.split(",")[-1])
    assert abs(100 * mean_recall_at_k(records, 5) - recall_pct) < 0.005 + 1e-9


def test_calibrate_artifacts(pipeline):
    out = pipeline["calib"]
    maps = load_isotonic(out)
    labels = LabelSpace.from_json(
        (pipeline["prep"] / "labels.json").read_text(encoding="utf-8"))
    assert maps.n_labels == len(labels)
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


def _without_key(key):
    return _meta_line(lambda line: json.dumps(
        {k: v for k, v in json.loads(line).items() if k != key}).encode())


@pytest.mark.parametrize("stage, name, edit, argv", [
    ("calib", "isotonic.ckpt", _meta_line(lambda _: b"{not json"), _automate_calibrated),
    ("calib", "isotonic.ckpt", _meta_line(lambda _: b'{"kind": "isotonic"}'),
     _automate_calibrated),
    ("calib", "isotonic.ckpt", _meta_line(lambda _: b'["isotonic", 3]'), _automate_calibrated),
    ("model", "model.ckpt", _without_key("vocab_sha256"), _evaluate),
    ("prep", "vocab.json", lambda _: b"{bad", _evaluate),
], ids=["isotonic-not-json", "isotonic-no-n_labels", "isotonic-meta-a-list",
        "model-meta-no-vocab_sha256", "vocab-not-json"])
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
    prep2 = tmp_path / "prep2"
    shutil.copytree(pipeline["prep"], prep2)
    _edit_first_line(prep2 / "train.txt", meds=["paracétamol 500 mg"])
    c = ["--config", str(pipeline["cfg"]), "--in", str(prep2)]
    assert main(["train-reranker", *c, "--base", str(pipeline["model"]),
                 "--out", str(tmp_path / "rr")]) == 0
    raw = (tmp_path / "rr" / "reranker.ckpt").read_bytes()
    assert raw[:raw.index(b"\nEND\n")].isascii()
    meta, _ = load_params(tmp_path / "rr" / "reranker.ckpt")
    assert "paracétamol 500 mg" in meta["modalities"]["med"]
    assert main(["evaluate", *c, "--model", str(pipeline["model"]),
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


def _edit_first_record(eval_dir: Path, **changes) -> None:
    path = eval_dir / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **changes})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_probs(eval_dir: Path, edit) -> None:
    np.save(eval_dir / "probs.npy", edit(np.load(eval_dir / "probs.npy")))


def _drop_last_record(eval_dir: Path) -> None:
    path = eval_dir / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")


def _nan_cell(probs):
    probs[0, 0] = np.nan
    return probs


_LINE_1 = "records.jsonl line 1: "


@pytest.mark.parametrize("command, corrupt, code, category, where", [
    ("calibrate", lambda d: _edit_first_record(d, gt=[10_000]), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, gt=[10_000]), 3, "validation", _LINE_1),
    ("report", lambda d: _edit_first_record(d, n_unseen=-1), 3, "validation", _LINE_1),
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
], ids=["gt-outside-labels-calibrate", "gt-outside-labels-report", "negative-unseen",
        "row-count-mismatch", "nan-calibrate", "nan-report", "one-dimensional-probs",
        "first_visit-a-string", "first_visit-an-int", "dept-an-int", "dept-a-list",
        "freq_bucket-null", "patient_id-an-int", "codes-a-string", "codes-empty",
        "code-malformed"])
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
    prep2 = tmp_path / "prep2"
    shutil.copytree(pipeline["prep"], prep2)
    _edit_first_line(prep2 / "dev.txt", **{field: value})
    capsys.readouterr()
    assert main(["evaluate", "--config", str(pipeline["cfg"]), "--in", str(prep2),
                 "--model", str(pipeline["model"]), "--out", str(tmp_path / "o"),
                 "--split", "dev"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert "dev.txt:1" in err[0] and field in err[0]


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
      for name in ("train.txt", "dev.txt", "vocab.json", "labels.json")],
    ("prep", "test.txt", lambda d: [*_evaluate(d), "--split", "test"]),
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
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg), "--workdir", str(tmp_path / "w"),
                 "--max-fp", "0.1,oops"]) == 3
    out = capsys.readouterr().out
    assert "+ icdlab automate" in out and "+ icdlab report" not in out
    assert "pipeline complete" not in out


def _perfbench_spans():
    """The benchmark's tracer module, loaded from the checkout without
    importing anything else of the benchmark."""
    path = Path(icdlab.__file__).resolve().parents[2] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_runs_the_chain_and_counts_repeat(tmp_path):
    # the benchmark's traced run wraps program functions by name and reads
    # what they return; the whole chain must run under it, counting the same twice
    spans = _perfbench_spans()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    counts = []
    for run in range(2):
        tracer = spans.Tracer()
        with spans.traced(tracer):
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
