"""Pipeline subcommands: corpus generation through automation reports.

Every stage command reads a flat key=value config and writes its files into
a fresh staging directory beside --out. One runner, `_stage`, then writes a
manifest.json recording argv, the config hash, and the SHA-256 of every
input and output file, so a run can be replayed and verified byte-for-byte,
and moves the files into --out with the manifest last. A stage that fails
leaves --out as it was. Timing logs (history.csv) are listed separately
from outputs because wall-clock never reproduces. `pipeline` runs the
stages in order, each into its own directory under --workdir.

Exit codes: 0 success, 2 usage, 3 validation/config/parse errors,
4 numeric failures. Errors print one machine-parseable line to stderr:
"icdlab-error: <category>: <message>".
"""

import argparse
import datetime as dt
import functools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from .calibrate import IsotonicMap, automation_sweep, ece, fit_isotonic, sweep_csv
from .checkpoint import file_sha256, load_params, save_params
from .config import RunConfig, config_sha256, parse_config, parse_fractions, stage_seed
from .corpus import (Encounter, LabelSpace, corpus_stats, generate_corpus,
                     read_encounters, split_by_patient, write_encounters)
from .errors import (NumericError, ParseError, UndefinedMetricError, UsageError,
                     ValidationError, reading)
from .metrics import (GROUP_KEYS, Predictions, breakdown, breakdown_csv,
                      compute_report, consistency_check, instance_f1, recall_at_k,
                      score_histogram, spearman)
from .model import (BaseModel, MetadataReranker, ModalityVocabs, load_base_model,
                    load_reranker, save_base_model, save_reranker)
from .preprocess import Vocabulary, build_vocab, encounter_aux_text, preprocess_train
from .train import (Notes, data_fraction_experiment, fraction_csv, predict_records,
                    predict_records_reranked, train, train_reranker)

# --------------------------------------------------------------------------
# small file helpers and the stage runner
# --------------------------------------------------------------------------


def _write(path: Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _read_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _stage(command):
    """Run `command(args, rc, stage)` as a stage. It writes its files into
    `stage`, a fresh directory beside --out, and returns the paths it read,
    the names of its logs and the line to print; every other staged file is
    an output. Only if it succeeds are the files hashed into manifest.json
    and moved into --out, the manifest last."""

    def run(args, rc: RunConfig) -> int:
        out = Path(args.out)
        # stage in the nearest existing ancestor, so a failed stage creates no directory
        near = next(p for p in (out.parent, *out.parents) if p.is_dir())
        stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=near))
        try:
            inputs, logs, summary = command(args, rc, stage)
            names = sorted(p.name for p in stage.iterdir())
            manifest = {
                "command": args.command,
                "argv": list(args.argv),
                "seed": rc.seed,
                "config_sha256": config_sha256(rc),
                "inputs": {str(p): file_sha256(p) for p in [args.config, *inputs]},
                "outputs": {n: file_sha256(stage / n) for n in names if n not in logs},
                "logs": sorted(logs),
            }
            _write(stage / "manifest.json",
                   json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            out.mkdir(parents=True, exist_ok=True)
            (out / "manifest.json").unlink(missing_ok=True)
            for name in [*names, "manifest.json"]:
                os.replace(stage / name, out / name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        print(summary)
        return 0

    return run


def _load_prep(prep, rc: RunConfig, *splits):
    """A preprocess directory's vocabulary and label space, one Notes per
    named split, and the paths read."""

    def load(path, cls):
        with reading(path):
            return cls.from_json(path.read_text(encoding="utf-8"))

    prep = Path(prep)
    paths = [prep / "vocab.json", prep / "labels.json", *(prep / f"{s}.txt" for s in splits)]
    vocab, labels = load(paths[0], Vocabulary), load(paths[1], LabelSpace)
    notes = [Notes.of(read_encounters(path), vocab, labels, rc.max_note_tokens)
             for path in paths[2:]]
    return vocab, labels, notes, paths


# --------------------------------------------------------------------------
# prediction-record persistence (probs matrix + JSONL context)
# --------------------------------------------------------------------------


def _records_jsonl(p: Predictions) -> str:
    lines = []
    for gt, n_unseen, dept, first, bucket, e in zip(
            p.gt, p.n_unseen.tolist(), p.dept.tolist(), p.first_visit.tolist(),
            p.freq_bucket.tolist(), p.encounters):
        row = {
            "gt": np.flatnonzero(gt).tolist(),
            "n_unseen": n_unseen,
            "dept": dept,
            "first_visit": first,
            "freq_bucket": bucket,
            "patient_id": e.patient_id,
            "date": e.date.isoformat(),
            "codes": sorted(e.codes),
        }
        lines.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


_decode_json = json.JSONDecoder().decode  # json.loads without its per-call checks


def read_prediction_records(eval_dir) -> Predictions:
    """probs.npy + records.jsonl as one Predictions value. A malformed
    probability matrix is a numeric error; an unparseable record, a field of
    the wrong type (patient_id, dept and freq_bucket strings, first_visit a
    boolean, codes a list of strings), an empty code set or a malformed
    code, a gt index outside the label space, a negative unseen count or a
    row-count mismatch is a validation error naming the line."""
    eval_dir = Path(eval_dir)
    with reading(eval_dir / "probs.npy"):
        probs = np.load(eval_dir / "probs.npy", allow_pickle=False)
    if probs.ndim != 2 or probs.dtype.kind not in "fiu":
        raise NumericError(f"{eval_dir}/probs.npy: expected a 2-D numeric matrix, "
                           f"got {probs.dtype} of shape {probs.shape}")
    if not np.isfinite(probs).all():
        raise NumericError(f"{eval_dir}/probs.npy: non-finite probabilities")
    m, n = probs.shape
    with reading(eval_dir / "records.jsonl"):
        text = (eval_dir / "records.jsonl").read_text(encoding="utf-8")
    gt_rows, gt_cols, n_unseen, dept, first_visit, freq_bucket, encounters = (
        [], [], [], [], [], [], [])
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:  # not `reading`, whose enter/exit adds ~2 µs to every record line
            row = _decode_json(line)
            pid, day = row["patient_id"], dt.date.fromisoformat(row["date"])
            codes, gt, unseen = row["codes"], row["gt"], row["n_unseen"]
            d, first, bucket = row["dept"], row["first_visit"], row["freq_bucket"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{eval_dir}/records.jsonl line {number}: {exc!r}") from None
        if type(pid) is not str or type(d) is not str or type(bucket) is not str:
            problem = "patient_id, dept and freq_bucket must be strings"
        elif type(first) is not bool:
            problem = "first_visit must be true or false"
        elif type(codes) is not list or not all(type(c) is str for c in codes):
            problem = "codes must list code strings"
        elif type(gt) is not list or not all(type(i) is int and 0 <= i < n for i in gt):
            problem = f"gt must list label indices in [0, {n})"
        elif type(unseen) is not int or unseen < 0:
            problem = "n_unseen must be a non-negative integer"
        else:
            problem = None
        if problem is None:
            try:
                encounters.append(Encounter(pid, day, d, "", "", codes))
            except ValidationError as exc:  # an empty code set or a malformed code
                problem = str(exc)
        if problem:
            raise ValidationError(f"{eval_dir}/records.jsonl line {number}: {problem}")
        gt_rows += [len(n_unseen)] * len(gt)
        gt_cols += gt
        n_unseen.append(unseen)
        dept.append(d)
        first_visit.append(first)
        freq_bucket.append(bucket)
    if len(n_unseen) != m:
        raise ValidationError(f"{eval_dir}: probs.npy rows ({m}) and "
                              f"records.jsonl lines ({len(n_unseen)}) disagree")
    gt = np.zeros((m, n), dtype=bool)
    gt[gt_rows, gt_cols] = True
    return Predictions(probs=probs, gt=gt, n_unseen=n_unseen, dept=dept,
                       first_visit=first_visit, freq_bucket=freq_bucket,
                       encounters=encounters)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


@_stage
def cmd_gen_corpus(args, rc: RunConfig, stage: Path):
    encounters, labels = generate_corpus(rc.corpus())
    split = split_by_patient(encounters, rc.n_dev_patients, rc.n_test_patients,
                             seed=stage_seed(rc.seed, "split"))
    for name, part in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        write_encounters(stage / f"{name}.txt", part)
    _write(stage / "corpus_labels.json", labels.to_json() + "\n")
    _write(stage / "stats.txt", corpus_stats(encounters).as_text())
    return [], (), (f"gen-corpus: {len(encounters)} encounters, {len(labels)} codes, "
                    f"split {len(split.train)}/{len(split.dev)}/{len(split.test)}")


@_stage
def cmd_preprocess(args, rc: RunConfig, stage: Path):
    inputs = [Path(args.inp) / f"{n}.txt" for n in ("train", "dev", "test")]
    train_encs = read_encounters(inputs[0])
    filtered, retained, report = preprocess_train(train_encs, rc.min_code_count,
                                                  rc.dedup_scope)
    vocab = build_vocab(
        [e.text for e in filtered] + [encounter_aux_text(e) for e in filtered],
        rc.min_token_count)
    labels = LabelSpace(tuple(sorted(retained))).with_train_counts(filtered)
    write_encounters(stage / "train.txt", filtered)
    for path in inputs[1:]:  # dev and test pass through untouched
        write_encounters(stage / path.name, read_encounters(path))
    _write(stage / "vocab.json", vocab.to_json() + "\n")
    _write(stage / "labels.json", labels.to_json() + "\n")
    _write(stage / "report.csv", report.as_csv())
    _write(stage / "report.txt", report.as_text())
    return inputs, (), (f"preprocess: {report.docs_before} → {report.docs_after_filter} "
                        f"train docs, {len(labels)} labels, vocab {len(vocab)}")


@_stage
def cmd_train(args, rc: RunConfig, stage: Path):
    vocab, labels, (train_notes, dev_notes), inputs = _load_prep(args.inp, rc, "train", "dev")
    model = BaseModel.init(rc.architecture, len(vocab), len(labels), rc.base_hparams(),
                           seed=stage_seed(rc.seed, "train-init"))
    _, history = train(model, train_notes, dev_notes, rc.train_config("train"))
    save_base_model(stage / "model.ckpt", model, vocab.sha256(), labels.sha256())
    _write(stage / "history.csv", history.to_csv())
    best = max((e.dev_recall_at_5 for e in history.epochs), default=float("nan"))
    return inputs, ("history.csv",), (f"train: {len(history.epochs)} epochs, "
                                      f"best dev R@5 {best:.4f}")


@_stage
def cmd_train_reranker(args, rc: RunConfig, stage: Path):
    vocab, labels, (train_notes, dev_notes), inputs = _load_prep(args.inp, rc, "train", "dev")
    base_dir = Path(args.base)
    inputs.append(base_dir / "model.ckpt")
    base = load_base_model(base_dir / "model.ckpt", vocab.sha256(), labels.sha256())
    vocabs = ModalityVocabs.from_encounters(train_notes.encounters)
    reranker = MetadataReranker.init(len(labels), base.hp.d_c, vocabs, rc.reranker_hparams(),
                                     seed=stage_seed(rc.seed, "reranker-init"))
    _, history = train_reranker(base, reranker, train_notes, dev_notes, vocab,
                                rc.train_config("reranker"))
    save_reranker(stage / "reranker.ckpt", reranker, vocab.sha256(), labels.sha256(),
                  base_dir / "model.ckpt")
    _write(stage / "history.csv", history.to_csv())
    best = max((e.dev_recall_at_5 for e in history.epochs), default=float("nan"))
    return inputs, ("history.csv",), (f"train-reranker: {len(history.epochs)} epochs, "
                                      f"best dev R@5 {best:.4f}")


@_stage
def cmd_evaluate(args, rc: RunConfig, stage: Path):
    if args.k < 1:
        raise UsageError(f"--k must be at least 1, got {args.k}")
    vocab, labels, (notes,), inputs = _load_prep(args.inp, rc, args.split)
    model_dir = Path(args.model)
    inputs.append(model_dir / "model.ckpt")
    base = load_base_model(model_dir / "model.ckpt", vocab.sha256(), labels.sha256())
    if args.reranker:
        rr_dir = Path(args.reranker)
        inputs.append(rr_dir / "reranker.ckpt")
        reranker = load_reranker(rr_dir / "reranker.ckpt", vocab.sha256(),
                                 labels.sha256(), model_dir / "model.ckpt")
        records = predict_records_reranked(base, reranker, notes, vocab)
    else:
        records = predict_records(base, notes)
    report = compute_report(records, rc.decision_threshold, args.k)
    np.save(stage / "probs.npy", records.probs)
    _write(stage / "records.jsonl", _records_jsonl(records))
    _write(stage / "report.csv", report.as_csv())
    _write(stage / "report.txt", report.as_text())
    if args.breakdown:
        _write(stage / f"breakdown_{args.breakdown}.csv", breakdown_csv(breakdown(
            records, args.breakdown, recall_at_k(records, args.k),
            instance_f1(records, rc.decision_threshold))))
    return inputs, (), (f"evaluate[{args.split}]: R@{args.k} {report.recall_at_k:.4f}, "
                        f"iF1 {report.f1_instance:.4f} over {report.n_records} records")


@_stage
def cmd_fractions(args, rc: RunConfig, stage: Path):
    vocab, labels, (train_notes, dev_notes, test_notes), inputs = _load_prep(
        args.inp, rc, "train", "dev", "test")

    def make_model():
        return BaseModel.init(rc.architecture, len(vocab), len(labels), rc.base_hparams(),
                              seed=stage_seed(rc.seed, "fractions-init"))

    rows = data_fraction_experiment(make_model, train_notes, dev_notes,
                                    parse_fractions(rc.fractions),
                                    rc.train_config("fractions"), eval_notes=test_notes)
    _write(stage / "fractions.csv", fraction_csv(rows))
    return inputs, (), (f"fractions: {len(rows)} runs, "
                        f"full-data test R@5 {rows[-1].recall_at_5:.4f}")


@_stage
def cmd_calibrate(args, rc: RunConfig, stage: Path):
    src = Path(args.inp)
    records = read_prediction_records(src)
    maps = fit_isotonic(records)
    arrays = {}
    for j, (xs, vs) in sorted(maps.maps.items()):
        arrays |= {f"x{j}": xs, f"v{j}": vs}
    save_params(stage / "isotonic.ckpt", arrays, {"kind": "isotonic", "n_labels": maps.n_labels})
    before = ece(records.probs, records.gt, rc.ece_bins)
    after = ece(maps.apply(records).probs, records.gt, rc.ece_bins)
    improved = int(np.count_nonzero(after <= before + 1e-9))
    lines = ["label,ece_before,ece_after"]
    lines += [f"{j},{b:.6f},{a:.6f}" for j, (b, a) in enumerate(zip(before.tolist(),
                                                                    after.tolist()))]
    _write(stage / "ece.csv", "\n".join(lines) + "\n")
    return [src / "probs.npy", src / "records.jsonl"], (), (
        f"calibrate: fit-data ECE non-increasing for {improved}/{maps.n_labels} labels")


def load_isotonic(calib_dir) -> IsotonicMap:
    """The maps of a calibration checkpoint, which must hold one for every label."""
    path = Path(calib_dir) / "isotonic.ckpt"
    meta, arrays = load_params(path)
    with reading(path):
        if meta.get("kind") != "isotonic":
            raise ValidationError(f"{path}: not a calibration checkpoint")
        n = int(meta["n_labels"])
    maps = {}
    for j in range(n):
        xs, vs = maps[j] = arrays.get(f"x{j}"), arrays.get(f"v{j}")
        if (xs is None or vs is None or xs.ndim != 1 or not xs.size or vs.shape != xs.shape
                or not (np.diff(xs) >= 0).all() or not (np.diff(vs) >= 0).all()):
            raise ValidationError(f"{path}: label {j} needs non-empty 1-D x{j} and v{j} "
                                  f"of equal length, both non-decreasing")
    return IsotonicMap(n_labels=n, maps=maps)


def _labels_digest(eval_dir: Path) -> str:
    """The labels.json digest among the inputs of an eval dir's manifest."""
    path = eval_dir / "manifest.json"
    with reading(path):
        inputs = json.loads(path.read_text(encoding="utf-8"))["inputs"]
        return {Path(p).name: digest for p, digest in inputs.items()}["labels.json"]


@_stage
def cmd_automate(args, rc: RunConfig, stage: Path):
    if args.calibrated and not args.maps:
        raise UsageError("--calibrated requires --maps")
    dev_dir, test_dir = Path(args.dev), Path(args.test)
    if _labels_digest(dev_dir) != _labels_digest(test_dir):
        raise ValidationError(f"automate: the manifests of {dev_dir} and {test_dir} record "
                              f"different labels.json digests, so different label spaces")
    inputs = [d / n for d in (dev_dir, test_dir) for n in ("probs.npy", "records.jsonl")]
    dev_records = read_prediction_records(dev_dir)
    test_records = read_prediction_records(test_dir)
    n_dev, n_test = dev_records.probs.shape[1], test_records.probs.shape[1]
    if n_dev != n_test:
        raise ValidationError(f"automate: {dev_dir} scores {n_dev} labels but {test_dir} "
                              f"scores {n_test}; both must come from one label space")
    maps = None
    if args.calibrated:
        maps = load_isotonic(args.maps)
        inputs.append(Path(args.maps) / "isotonic.ckpt")
    fps = parse_fractions(args.max_fp)
    rows = automation_sweep(dev_records, test_records, fps, maps,
                            rc.decision_threshold)
    _write(stage / "automation.csv", sweep_csv(rows))
    return inputs, (), "\n".join(
        f"automate: max_fp {max_fp:.2f} calibrated={'yes' if calibrated else 'no'} "
        f"identified {100 * pct:.2f}% fp_rate {100 * fpr:.2f}%"
        for max_fp, calibrated, pct, fpr in rows)


@_stage
def cmd_report(args, rc: RunConfig, stage: Path):
    src = Path(args.inp)
    records = read_prediction_records(src)
    recall, if1 = recall_at_k(records), instance_f1(records, rc.decision_threshold)
    group_rows = {key: breakdown(records, key, recall, if1) for key in GROUP_KEYS}
    for key, rows in group_rows.items():
        _write(stage / f"breakdown_{key}.csv", breakdown_csv(rows))
    for values, name in ((if1, "hist_if1.csv"), (recall, "hist_recall.csv")):
        counts, frac = score_histogram(values)
        lines = ["bin_low,bin_high,count"]
        for i, c in enumerate(counts):
            lines.append(f"{i / len(counts):.2f},{(i + 1) / len(counts):.2f},{int(c)}")
        lines.append(f"exact_one_fraction,,{frac:.6f}")
        _write(stage / name, "\n".join(lines) + "\n")
    lines = ["group_key,versus,spearman"]
    for key, rows in group_rows.items():
        for versus, values in (("size", [g.size for g in rows]),
                               ("distinct_labels_per_period",
                                [g.distinct_labels_per_period for g in rows])):
            try:
                r = f"{spearman([g.recall_at_5 for g in rows], values):.4f}"
            except UndefinedMetricError:
                r = "n/a"
            lines.append(f"{key},{versus},{r}")
    _write(stage / "correlations.csv", "\n".join(lines) + "\n")
    consistency = consistency_check(records.encounters)
    _write(stage / "consistency.txt",
           f"matched pairs        {consistency.matched_pairs}\n"
           f"inconsistent pairs   {consistency.inconsistent_pairs}\n"
           f"inconsistency rate   {consistency.rate:.4f}\n")
    return [src / "probs.npy", src / "records.jsonl"], (), (
        f"report: {len(list(stage.iterdir()))} artifacts for {len(records)} records")


def cmd_pipeline(args, rc: RunConfig) -> int:
    """The whole chain, corpus to report, one stage directory each under
    --workdir; the first stage that fails stops it with that stage's exit
    code."""
    w = Path(args.workdir)
    w.mkdir(parents=True, exist_ok=True)

    def d(name):
        return str(w / name)

    model = ("--in", d("prep"), "--model", d("model"))
    evals = ("--dev", d("eval_dev"), "--test", d("eval_test"))
    stages = [
        ("gen-corpus", "--out", d("corpus")),
        ("preprocess", "--in", d("corpus"), "--out", d("prep")),
        ("train", "--in", d("prep"), "--out", d("model")),
        ("train-reranker", "--in", d("prep"), "--base", d("model"), "--out", d("reranker")),
        ("evaluate", *model, "--out", d("eval_dev"), "--split", "dev"),
        ("evaluate", *model, "--out", d("eval_test"), "--split", "test"),
        ("evaluate", *model, "--reranker", d("reranker"), "--out", d("eval_test_rr"),
         "--split", "test"),
        ("calibrate", "--in", d("eval_dev"), "--out", d("calib")),
        ("automate", *evals, "--out", d("automation"), "--max-fp", args.max_fp),
        ("automate", *evals, "--out", d("automation_cal"), "--max-fp", args.max_fp,
         "--calibrated", "--maps", d("calib")),
        ("report", "--in", d("eval_test"), "--out", d("report")),
    ]
    for command, *flags in stages:
        argv = [command, "--config", args.config, *flags]
        print("+ icdlab " + " ".join(argv), flush=True)
        code = main(argv)
        if code != 0:
            return code
    print(f"pipeline complete under {w}")
    return 0


# --------------------------------------------------------------------------
# parser and dispatch
# --------------------------------------------------------------------------


@functools.cache  # one per process: building it costs more than a parse
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icdlab",
        description="Synthetic outpatient coding pipeline: corpus, training, "
                    "evaluation, calibration, automation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    inp, out = {"--in": {"required": True, "dest": "inp"}}, {"--out": {"required": True}}
    command("gen-corpus", cmd_gen_corpus, **out)
    command("preprocess", cmd_preprocess, **inp, **out)
    command("train", cmd_train, **inp, **out)
    command("train-reranker", cmd_train_reranker,
            **{**inp, "--base": {"required": True}, **out})
    command("evaluate", cmd_evaluate,
            **{**inp, "--model": {"required": True}, **out, "--reranker": {"default": None},
               "--split": {"default": "test", "choices": ["train", "dev", "test"]},
               "--k": {"type": int, "default": 5},
               "--breakdown": {"default": None, "choices": list(GROUP_KEYS)}})
    command("fractions", cmd_fractions, **inp, **out)
    command("calibrate", cmd_calibrate, **inp, **out)
    command("automate", cmd_automate,
            **{"--dev": {"required": True}, "--test": {"required": True}, **out,
               "--max-fp": {"required": True, "dest": "max_fp"},
               "--calibrated": {"action": "store_true"}, "--maps": {"default": None}})
    command("report", cmd_report, **inp, **out)
    command("pipeline", cmd_pipeline,
            **{"--workdir": {"required": True},
               "--max-fp": {"default": "0.05,0.1,0.15,0.2", "dest": "max_fp"}})
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.argv = argv
    try:
        return args.func(args, _read_config(args.config))
    except UsageError as exc:
        print(f"icdlab-error: usage: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, OSError) as exc:
        print(f"icdlab-error: validation: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"icdlab-error: numeric: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
