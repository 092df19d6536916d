"""End-to-end runs of every subcommand on a miniature corpus.

The pipeline fixture executes the whole chain once per session; individual
tests then inspect its artifacts. Exit-code tests run tiny one-off commands.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from icdlab.cli import load_isotonic, main, read_prediction_records
from icdlab.config import config_sha256, parse_config
from icdlab.corpus import LabelSpace, read_encounters
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
    "mean_encounters_per_patient = inf", "kernel_width = 4", "reranker_heads = 3"])
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


def _without_key(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


@pytest.mark.parametrize("stage, name, edit, argv", [
    ("calib", "isotonic.json", lambda _: "{not json", _automate_calibrated),
    ("calib", "isotonic.json", lambda _: '{"kind": "isotonic"}', _automate_calibrated),
    ("model", "model.ckpt.json", _without_key("vocab_sha256"), _evaluate),
    ("prep", "vocab.json", lambda _: "{bad", _evaluate),
], ids=["isotonic-not-json", "isotonic-no-n_labels", "sidecar-no-vocab_sha256",
        "vocab-not-json"])
def test_malformed_json_artifact_exits_with_one_error_line(pipeline, tmp_path, capsys,
                                                          stage, name, edit, argv):
    dirs = dict(pipeline)
    dirs[stage] = tmp_path / stage
    shutil.copytree(pipeline[stage], dirs[stage])
    path = dirs[stage] / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main([*argv(dirs), "--config", str(pipeline["cfg"]),
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("icdlab-error: validation:")
    assert name in err[0]


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
    from icdlab.checkpoint import load_params, save_params
    model2 = tmp_path / "model2"
    shutil.copytree(pipeline["model"], model2)
    params = load_params(model2 / "model.ckpt")
    params["out_b"] = np.full_like(params["out_b"], np.nan)
    save_params(model2 / "model.ckpt", params)
    code = main(["train-reranker", "--config", str(pipeline["cfg"]),
                 "--in", str(pipeline["prep"]), "--base", str(model2),
                 "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("icdlab-error: numeric:") and "batch" in err


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


@pytest.mark.parametrize("command, corrupt, code, category", [
    ("calibrate", lambda d: _edit_first_record(d, gt=[10_000]), 3, "validation"),
    ("report", lambda d: _edit_first_record(d, gt=[10_000]), 3, "validation"),
    ("report", lambda d: _edit_first_record(d, n_unseen=-1), 3, "validation"),
    ("calibrate", _drop_last_record, 3, "validation"),
    ("calibrate", lambda d: _edit_probs(d, _nan_cell), 4, "numeric"),
    ("report", lambda d: _edit_probs(d, _nan_cell), 4, "numeric"),
    ("report", lambda d: _edit_probs(d, lambda p: p[0]), 4, "numeric"),
], ids=["gt-outside-labels-calibrate", "gt-outside-labels-report", "negative-unseen",
        "row-count-mismatch", "nan-calibrate", "nan-report", "one-dimensional-probs"])
def test_malformed_predictions_exit_with_one_error_line(pipeline, tmp_path, capsys,
                                                        command, corrupt, code, category):
    bad = tmp_path / "eval"
    shutil.copytree(pipeline["eval_dev"], bad)
    corrupt(bad)
    capsys.readouterr()
    assert main([command, "--config", str(pipeline["cfg"]), "--in", str(bad),
                 "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"icdlab-error: {category}:")
