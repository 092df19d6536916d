"""Pipeline subcommands: corpus generation through automation reports.

Every command reads a flat key=value config, writes its artifacts under
--out, and drops a manifest.json recording argv, the config hash, and
the SHA-256 of every input and output file, so a run can be replayed and
verified byte-for-byte. Timing logs (history.csv) are listed separately
from outputs because wall-clock never reproduces.

Exit codes: 0 success, 2 usage, 3 validation/config/parse errors,
4 numeric failures. Errors print one machine-parseable line to stderr:
"icdlab-error: <category>: <message>".
"""

import argparse
import datetime as dt
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .calibrate import IsotonicMap, automation_sweep, ece, fit_isotonic, sweep_csv
from .checkpoint import load_params, save_params
from .config import RunConfig, config_sha256, parse_config, parse_fractions, stage_seed
from .corpus import (Encounter, LabelSpace, corpus_stats, generate_corpus,
                     read_encounters, split_by_patient, write_encounters)
from .errors import (NumericError, ParseError, UndefinedMetricError, ValidationError,
                     reading)
from .metrics import (GROUP_KEYS, Predictions, breakdown, breakdown_csv,
                      compute_report, consistency_check, score_histogram,
                      spearman)
from .model import (BaseModel, MetadataReranker, ModalityVocabs, load_base_model,
                    load_reranker, save_base_model, save_reranker)
from .preprocess import Vocabulary, build_vocab, encounter_aux_text, preprocess_train
from .train import (data_fraction_experiment, fraction_csv, note_for_encounter,
                    predict_records, predict_records_reranked, train, train_reranker)

# --------------------------------------------------------------------------
# small file helpers
# --------------------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write(path: Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _read_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path, args, rc: RunConfig, inputs, outputs, logs=()) -> None:
    data = {
        "command": args.command,
        "argv": list(args.argv),
        "seed": rc.seed,
        "config_sha256": config_sha256(rc),
        "inputs": {str(p): _sha256_file(Path(p)) for p in inputs},
        "outputs": {Path(p).name: _sha256_file(Path(p)) for p in outputs},
        "logs": sorted(Path(p).name for p in logs),
    }
    _write(out / "manifest.json", json.dumps(data, indent=2, sort_keys=True) + "\n")


def _load_prep(prep: Path):
    def load(name, cls):
        with reading(prep / name):
            return cls.from_json((prep / name).read_text(encoding="utf-8"))

    return load("vocab.json", Vocabulary), load("labels.json", LabelSpace)


def _notes(encounters, vocab, rc: RunConfig):
    return [note_for_encounter(e, vocab, rc.max_note_tokens) for e in encounters]


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
            "doctor": e.doctor,
            "codes": sorted(e.codes),
            "meds": list(e.meds),
            "procs": list(e.procs),
        }
        lines.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def read_prediction_records(eval_dir) -> Predictions:
    """probs.npy + records.jsonl as one Predictions value. A malformed
    probability matrix is a numeric error; an unparseable record, a gt index
    outside the label space, a negative unseen count or a row-count mismatch
    is a validation error."""
    eval_dir = Path(eval_dir)
    with reading(eval_dir / "probs.npy"):
        probs = np.load(eval_dir / "probs.npy", allow_pickle=False)
    if probs.ndim != 2 or probs.dtype.kind not in "fiu":
        raise NumericError(f"{eval_dir}/probs.npy: expected a 2-D numeric matrix, "
                           f"got {probs.dtype} of shape {probs.shape}")
    if not np.isfinite(probs).all():
        raise NumericError(f"{eval_dir}/probs.npy: non-finite probabilities")
    m, n = probs.shape
    text = (eval_dir / "records.jsonl").read_text(encoding="utf-8")
    cols = {k: [] for k in ("gt", "n_unseen", "dept", "first_visit", "freq_bucket",
                            "encounters")}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{eval_dir}/records.jsonl line {number}"
        try:  # not `reading`, whose enter/exit adds ~2 µs to every record line
            row = json.loads(line)
            enc = Encounter(row["patient_id"], dt.date.fromisoformat(row["date"]),
                            row["dept"], row["doctor"], "", frozenset(row["codes"]),
                            meds=tuple(row["meds"]), procs=tuple(row["procs"]))
            gt, n_unseen = row["gt"], row["n_unseen"]
            for key in ("dept", "first_visit", "freq_bucket"):
                cols[key].append(row[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{where}: {exc!r}") from None
        if not (isinstance(gt, list) and all(type(i) is int and 0 <= i < n for i in gt)):
            raise ValidationError(f"{where}: gt must list label indices in [0, {n})")
        if type(n_unseen) is not int or n_unseen < 0:
            raise ValidationError(f"{where}: n_unseen must be a non-negative integer")
        cols["gt"].append(gt)
        cols["n_unseen"].append(n_unseen)
        cols["encounters"].append(enc)
    if len(cols["gt"]) != m:
        raise ValidationError(f"{eval_dir}: probs.npy rows ({m}) and "
                              f"records.jsonl lines ({len(cols['gt'])}) disagree")
    gt = np.zeros((m, n), dtype=bool)
    for i, indices in enumerate(cols.pop("gt")):
        gt[i, indices] = True
    return Predictions(probs=probs, gt=gt, **cols)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_gen_corpus(args, rc: RunConfig) -> int:
    out = _out_dir(args)
    encounters, labels = generate_corpus(rc.corpus())
    split = split_by_patient(encounters, rc.n_dev_patients, rc.n_test_patients,
                             seed=stage_seed(rc.seed, "split"))
    outputs = []
    for name, part in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        path = out / f"{name}.txt"
        write_encounters(path, part)
        outputs.append(path)
    _write(out / "corpus_labels.json", labels.to_json() + "\n")
    _write(out / "stats.txt", corpus_stats(encounters).as_text())
    outputs += [out / "corpus_labels.json", out / "stats.txt"]
    _manifest(out, args, rc, [args.config], outputs)
    print(f"gen-corpus: {len(encounters)} encounters, {len(labels)} codes, "
          f"split {len(split.train)}/{len(split.dev)}/{len(split.test)}")
    return 0


def cmd_preprocess(args, rc: RunConfig) -> int:
    src, out = Path(args.inp), _out_dir(args)
    inputs = [args.config] + [src / f"{n}.txt" for n in ("train", "dev", "test")]
    train_encs = read_encounters(src / "train.txt")
    filtered, retained, report = preprocess_train(train_encs, rc.min_code_count,
                                                  rc.dedup_scope)
    vocab = build_vocab(
        [e.text for e in filtered] + [encounter_aux_text(e) for e in filtered],
        rc.min_token_count)
    labels = LabelSpace(tuple(sorted(retained))).with_train_counts(filtered)
    write_encounters(out / "train.txt", filtered)
    for name in ("dev", "test"):  # pass through untouched
        write_encounters(out / f"{name}.txt", read_encounters(src / f"{name}.txt"))
    _write(out / "vocab.json", vocab.to_json() + "\n")
    _write(out / "labels.json", labels.to_json() + "\n")
    _write(out / "report.csv", report.as_csv())
    _write(out / "report.txt", report.as_text())
    outputs = [out / n for n in ("train.txt", "dev.txt", "test.txt", "vocab.json",
                                 "labels.json", "report.csv", "report.txt")]
    _manifest(out, args, rc, inputs, outputs)
    print(f"preprocess: {report.docs_before} → {report.docs_after_filter} train docs, "
          f"{len(labels)} labels, vocab {len(vocab)}")
    return 0


def cmd_train(args, rc: RunConfig) -> int:
    prep, out = Path(args.inp), _out_dir(args)
    inputs = [args.config] + [prep / n for n in ("train.txt", "dev.txt", "vocab.json",
                                                 "labels.json")]
    vocab, labels = _load_prep(prep)
    train_notes = _notes(read_encounters(prep / "train.txt"), vocab, rc)
    dev_notes = _notes(read_encounters(prep / "dev.txt"), vocab, rc)
    model = BaseModel.init(rc.architecture, len(vocab), len(labels), rc.base_hparams(),
                           seed=stage_seed(rc.seed, "train-init"))
    _, history = train(model, train_notes, dev_notes, labels, rc.train_config("train"))
    save_base_model(out / "model.ckpt", model, vocab.sha256(), labels.sha256())
    _write(out / "history.csv", history.to_csv())
    _manifest(out, args, rc, inputs,
              [out / "model.ckpt", out / "model.ckpt.json"],
              logs=[out / "history.csv"])
    best = max((e.dev_recall_at_5 for e in history.epochs), default=float("nan"))
    print(f"train: {len(history.epochs)} epochs, best dev R@5 {best:.4f}")
    return 0


def cmd_train_reranker(args, rc: RunConfig) -> int:
    prep, out = Path(args.inp), _out_dir(args)
    base_dir = Path(args.base)
    inputs = [args.config, base_dir / "model.ckpt", base_dir / "model.ckpt.json"] + \
        [prep / n for n in ("train.txt", "dev.txt", "vocab.json", "labels.json")]
    vocab, labels = _load_prep(prep)
    train_encs = read_encounters(prep / "train.txt")
    train_notes = _notes(train_encs, vocab, rc)
    dev_notes = _notes(read_encounters(prep / "dev.txt"), vocab, rc)
    base = load_base_model(base_dir / "model.ckpt", vocab.sha256(), labels.sha256())
    vocabs = ModalityVocabs.from_encounters(train_encs)
    reranker = MetadataReranker.init(len(labels), rc.d_c, vocabs, rc.reranker_hparams(),
                                     seed=stage_seed(rc.seed, "reranker-init"))
    _, history = train_reranker(base, reranker, train_notes, dev_notes, labels,
                                vocab, rc.train_config("reranker"))
    save_reranker(out / "reranker.ckpt", reranker, vocab.sha256(), labels.sha256())
    _write(out / "history.csv", history.to_csv())
    _manifest(out, args, rc, inputs,
              [out / "reranker.ckpt", out / "reranker.ckpt.json"],
              logs=[out / "history.csv"])
    best = max((e.dev_recall_at_5 for e in history.epochs), default=float("nan"))
    print(f"train-reranker: {len(history.epochs)} epochs, best dev R@5 {best:.4f}")
    return 0


def cmd_evaluate(args, rc: RunConfig) -> int:
    prep, out = Path(args.inp), _out_dir(args)
    model_dir = Path(args.model)
    split_file = prep / f"{args.split}.txt"
    inputs = [args.config, split_file, prep / "vocab.json", prep / "labels.json",
              model_dir / "model.ckpt", model_dir / "model.ckpt.json"]
    vocab, labels = _load_prep(prep)
    notes = _notes(read_encounters(split_file), vocab, rc)
    base = load_base_model(model_dir / "model.ckpt", vocab.sha256(), labels.sha256())
    if args.reranker:
        rr_dir = Path(args.reranker)
        inputs += [rr_dir / "reranker.ckpt", rr_dir / "reranker.ckpt.json"]
        reranker = load_reranker(rr_dir / "reranker.ckpt", vocab.sha256(),
                                 labels.sha256())
        records = predict_records_reranked(base, reranker, notes, labels, vocab)
    else:
        records = predict_records(base, notes, labels)
    report = compute_report(records, rc.decision_threshold, args.k)
    np.save(out / "probs.npy", records.probs)
    _write(out / "records.jsonl", _records_jsonl(records))
    _write(out / "report.csv", report.as_csv())
    _write(out / "report.txt", report.as_text())
    outputs = [out / n for n in ("probs.npy", "records.jsonl", "report.csv",
                                 "report.txt")]
    if args.breakdown:
        path = out / f"breakdown_{args.breakdown}.csv"
        _write(path, breakdown_csv(breakdown(records, args.breakdown,
                                             rc.decision_threshold, args.k)))
        outputs.append(path)
    _manifest(out, args, rc, inputs, outputs)
    print(f"evaluate[{args.split}]: R@{args.k} {report.recall_at_k:.4f}, "
          f"iF1 {report.f1_instance:.4f} over {report.n_records} records")
    return 0


def cmd_fractions(args, rc: RunConfig) -> int:
    prep, out = Path(args.inp), _out_dir(args)
    inputs = [args.config] + [prep / n for n in ("train.txt", "dev.txt", "test.txt",
                                                 "vocab.json", "labels.json")]
    vocab, labels = _load_prep(prep)
    train_notes = _notes(read_encounters(prep / "train.txt"), vocab, rc)
    dev_notes = _notes(read_encounters(prep / "dev.txt"), vocab, rc)
    test_notes = _notes(read_encounters(prep / "test.txt"), vocab, rc)

    def make_model():
        return BaseModel.init(rc.architecture, len(vocab), len(labels), rc.base_hparams(),
                              seed=stage_seed(rc.seed, "fractions-init"))

    rows = data_fraction_experiment(make_model, train_notes, dev_notes, labels,
                                    parse_fractions(rc.fractions),
                                    rc.train_config("fractions"), eval_notes=test_notes)
    _write(out / "fractions.csv", fraction_csv(rows))
    _manifest(out, args, rc, inputs, [out / "fractions.csv"])
    print(f"fractions: {len(rows)} runs, full-data test R@5 {rows[-1].recall_at_5:.4f}")
    return 0


def cmd_calibrate(args, rc: RunConfig) -> int:
    src, out = Path(args.inp), _out_dir(args)
    inputs = [args.config, src / "probs.npy", src / "records.jsonl"]
    records = read_prediction_records(src)
    maps = fit_isotonic(records)
    arrays = {}
    for j, (xs, vs) in sorted(maps.maps.items()):
        arrays[f"x{j}"] = xs
        arrays[f"v{j}"] = vs
    save_params(out / "isotonic.ckpt", arrays)
    _write(out / "isotonic.json",
           json.dumps({"kind": "isotonic", "n_labels": maps.n_labels},
                      sort_keys=True) + "\n")
    calibrated = maps.apply(records)
    lines = ["label,ece_before,ece_after"]
    improved = 0
    for j in range(maps.n_labels):
        before = ece(records.probs[:, j], records.gt[:, j], rc.ece_bins)
        after = ece(calibrated.probs[:, j], records.gt[:, j], rc.ece_bins)
        improved += after <= before + 1e-9
        lines.append(f"{j},{before:.6f},{after:.6f}")
    _write(out / "ece.csv", "\n".join(lines) + "\n")
    _manifest(out, args, rc, inputs,
              [out / "isotonic.ckpt", out / "isotonic.json", out / "ece.csv"])
    print(f"calibrate: fit-data ECE non-increasing for {improved}/{maps.n_labels} labels")
    return 0


def load_isotonic(calib_dir) -> IsotonicMap:
    calib_dir = Path(calib_dir)
    with reading(calib_dir / "isotonic.json"):
        meta = json.loads((calib_dir / "isotonic.json").read_text(encoding="utf-8"))
        if meta.get("kind") != "isotonic":
            raise ValidationError(f"{calib_dir}: not a calibration checkpoint")
        n = int(meta["n_labels"])
    arrays = load_params(calib_dir / "isotonic.ckpt")
    maps = {j: (arrays[f"x{j}"], arrays[f"v{j}"]) for j in range(n) if f"x{j}" in arrays}
    return IsotonicMap(n_labels=n, maps=maps)


def cmd_automate(args, rc: RunConfig) -> int:
    out = _out_dir(args)
    dev_dir, test_dir = Path(args.dev), Path(args.test)
    if args.calibrated and not args.maps:
        print("icdlab-error: usage: --calibrated requires --maps", file=sys.stderr)
        return 2
    inputs = [args.config] + [d / n for d in (dev_dir, test_dir)
                              for n in ("probs.npy", "records.jsonl")]
    dev_records = read_prediction_records(dev_dir)
    test_records = read_prediction_records(test_dir)
    maps = None
    if args.calibrated:
        maps = load_isotonic(args.maps)
        inputs += [Path(args.maps) / "isotonic.ckpt", Path(args.maps) / "isotonic.json"]
    fps = parse_fractions(args.max_fp)
    rows = automation_sweep(dev_records, test_records, fps, maps,
                            rc.decision_threshold)
    _write(out / "automation.csv", sweep_csv(rows))
    _manifest(out, args, rc, inputs, [out / "automation.csv"])
    for max_fp, calibrated, pct, fpr in rows:
        print(f"automate: max_fp {max_fp:.2f} calibrated={'yes' if calibrated else 'no'} "
              f"identified {100 * pct:.2f}% fp_rate {100 * fpr:.2f}%")
    return 0


def cmd_report(args, rc: RunConfig) -> int:
    src, out = Path(args.inp), _out_dir(args)
    inputs = [args.config, src / "probs.npy", src / "records.jsonl"]
    records = read_prediction_records(src)
    outputs = []
    group_rows = {}
    for key in GROUP_KEYS:
        rows = breakdown(records, key, rc.decision_threshold)
        group_rows[key] = rows
        path = out / f"breakdown_{key}.csv"
        _write(path, breakdown_csv(rows))
        outputs.append(path)
    for metric, name in (("if1", "hist_if1.csv"), ("recall@5", "hist_recall.csv")):
        counts, frac = score_histogram(records, metric=metric,
                                       decision_threshold=rc.decision_threshold)
        lines = ["bin_low,bin_high,count"]
        for i, c in enumerate(counts):
            lines.append(f"{i / len(counts):.2f},{(i + 1) / len(counts):.2f},{int(c)}")
        lines.append(f"exact_one_fraction,,{frac:.6f}")
        path = out / name
        _write(path, "\n".join(lines) + "\n")
        outputs.append(path)
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
    _write(out / "correlations.csv", "\n".join(lines) + "\n")
    outputs.append(out / "correlations.csv")
    consistency = consistency_check(records.encounters)
    _write(out / "consistency.txt",
           f"matched pairs        {consistency.matched_pairs}\n"
           f"inconsistent pairs   {consistency.inconsistent_pairs}\n"
           f"inconsistency rate   {consistency.rate:.4f}\n")
    outputs.append(out / "consistency.txt")
    _manifest(out, args, rc, inputs, outputs)
    print(f"report: {len(outputs)} artifacts for {len(records)} records")
    return 0


# --------------------------------------------------------------------------
# parser and dispatch
# --------------------------------------------------------------------------


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

    command("gen-corpus", cmd_gen_corpus, **{"--out": {"required": True}})
    command("preprocess", cmd_preprocess,
            **{"--in": {"required": True, "dest": "inp"}, "--out": {"required": True}})
    command("train", cmd_train,
            **{"--in": {"required": True, "dest": "inp"}, "--out": {"required": True}})
    command("train-reranker", cmd_train_reranker,
            **{"--in": {"required": True, "dest": "inp"},
               "--base": {"required": True}, "--out": {"required": True}})
    command("evaluate", cmd_evaluate,
            **{"--in": {"required": True, "dest": "inp"},
               "--model": {"required": True}, "--out": {"required": True},
               "--reranker": {"default": None},
               "--split": {"default": "test", "choices": ["train", "dev", "test"]},
               "--k": {"type": int, "default": 5},
               "--breakdown": {"default": None, "choices": list(GROUP_KEYS)}})
    command("fractions", cmd_fractions,
            **{"--in": {"required": True, "dest": "inp"}, "--out": {"required": True}})
    command("calibrate", cmd_calibrate,
            **{"--in": {"required": True, "dest": "inp"}, "--out": {"required": True}})
    command("automate", cmd_automate,
            **{"--dev": {"required": True}, "--test": {"required": True},
               "--out": {"required": True}, "--max-fp": {"required": True,
                                                         "dest": "max_fp"},
               "--calibrated": {"action": "store_true"},
               "--maps": {"default": None}})
    command("report", cmd_report,
            **{"--in": {"required": True, "dest": "inp"}, "--out": {"required": True}})
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
