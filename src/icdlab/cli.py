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
import functools
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .calibrate import IsotonicMap, automation_sweep, ece, fit_isotonic, sweep_csv
from .checkpoint import file_sha256, load_params, save_params
from .config import RunConfig, config_sha256, parse_config, parse_fractions, stage_seed
from .corpus import (LabelSpace, check_columns, corpus_stats, generate_corpus, read_columns,
                     read_encounters, split_by_patient, text_table, write_encounters)
from .errors import NumericError, UsageError, ValidationError, reading
from .metrics import (GROUP_KEYS, Predictions, breakdown, breakdown_csv,
                      compute_report, consistency_check, date_column, defined, instance_f1,
                      recall_at_k, score_histogram, spearman)
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
    named split, and the paths read. Each split comes from its packed
    `<split>.notes`, cut to max_note_tokens: no stage after preprocess parses
    or tokenizes the JSON-lines splits beside it."""

    def load(path, cls):
        with reading(path):
            return cls.from_json(path.read_text(encoding="utf-8"))

    prep = Path(prep)
    paths = [prep / "vocab.json", prep / "labels.json", *(prep / f"{s}.notes" for s in splits)]
    vocab, labels = load(paths[0], Vocabulary), load(paths[1], LabelSpace)
    notes = [Notes.load(path, vocab, labels, rc.max_note_tokens) for path in paths[2:]]
    return vocab, labels, notes, paths


# --------------------------------------------------------------------------
# prediction-record persistence (probs matrix + JSONL context)
# --------------------------------------------------------------------------


def _records_jsonl(p: Predictions) -> str:
    """One line per record, written from the columns with the bytes that
    JSONEncoder(sort_keys=True, ensure_ascii=False) gives the record's
    object: keys in sorted order, strings through that encoder's own
    encode_basestring, integers through str."""
    quote = encode_basestring
    gt_rows, gt = np.nonzero(p.gt)
    gt_offsets = np.searchsorted(gt_rows, np.arange(len(p) + 1)).tolist()
    gt, codes = list(map(str, gt.tolist())), list(map(quote, p.codes.tolist()))
    code_offsets = p.code_offsets.tolist()
    lines = []
    for i, (n_unseen, dept, first, bucket, pid, date) in enumerate(zip(
            p.n_unseen.tolist(), map(quote, p.dept.tolist()), p.first_visit.tolist(),
            map(quote, p.freq_bucket.tolist()), map(quote, p.patient_id.tolist()),
            np.datetime_as_string(p.date).tolist())):
        row_codes = ", ".join(codes[code_offsets[i]:code_offsets[i + 1]])
        row_gt = ", ".join(gt[gt_offsets[i]:gt_offsets[i + 1]])
        lines.append(f'{{"codes": [{row_codes}], "date": "{date}", "dept": {dept}, '
                     f'"first_visit": {"true" if first else "false"}, "freq_bucket": {bucket}, '
                     f'"gt": [{row_gt}], "n_unseen": {n_unseen}, "patient_id": {pid}}}')
    return "\n".join(lines) + "\n"


_RECORD_TYPES = {"gt": list[int], "n_unseen": int, "dept": str, "first_visit": bool,
                 "freq_bucket": str, "patient_id": str, "date": str, "codes": list[str]}


def _check_npy_size(path: Path) -> None:
    """That the .npy file at `path` holds as many data bytes as its header
    declares, checked before numpy allocates the array the header asks for."""
    with reading(path), open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}.get(version)
        if read_header is None:
            raise ValidationError(f".npy format version {version} is not supported")
        shape, _, dtype = read_header(fh)
        declared, held = math.prod(shape) * dtype.itemsize, path.stat().st_size - fh.tell()
    if declared != held:
        raise ValidationError(f"{path}: its header declares {shape} {dtype} values, "
                              f"{declared} bytes, but the file holds {held}")


def read_prediction_records(eval_dir) -> Predictions:
    """probs.npy + records.jsonl as one Predictions value. A header that
    declares more or fewer bytes than the file holds is a validation error,
    found before numpy allocates; a malformed matrix is a numeric error.
    records.jsonl is read as a split file is (`corpus.read_columns`, then
    `check_columns`): just before the duplicate-codes check, a gt index
    outside the label space or a negative unseen count is a validation
    error, and last a record whose gt indices repeat or, with its unseen
    count, do not number its codes. So is a row count other than the matrix's."""
    eval_dir = Path(eval_dir)
    _check_npy_size(eval_dir / "probs.npy")
    with reading(eval_dir / "probs.npy"):
        probs = np.load(eval_dir / "probs.npy", allow_pickle=False)
    if probs.ndim != 2 or probs.dtype.kind not in "fiu":
        raise NumericError(f"{eval_dir}/probs.npy: expected a 2-D numeric matrix, "
                           f"got {probs.dtype} of shape {probs.shape}")
    if not np.isfinite(probs).all():
        raise NumericError(f"{eval_dir}/probs.npy: non-finite probabilities")
    m, n = probs.shape
    path = eval_dir / "records.jsonl"
    columns, linenos, fault = read_columns(path, _RECORD_TYPES)
    gt, n_unseen = columns["gt"], columns["n_unseen"]
    codes, code_offsets, dates = check_columns(
        path, columns, linenos, fault,
        (next((i for i, g in enumerate(gt) if g and not (min(g) >= 0 and max(g) < n)), None),
         lambda: f"gt must list label indices in [0, {n})"),
        (next((i for i, u in enumerate(n_unseen) if u < 0), None),
         lambda: "n_unseen must be non-negative"),
        last=[(next((i for i, (g, u, c) in enumerate(zip(gt, n_unseen, columns["codes"]))
                     if len(set(g)) != len(g) or len(g) + u != len(c)), None),
               lambda: "gt and n_unseen must account for each of the record's codes once")])
    if len(linenos) != m:
        raise ValidationError(f"{eval_dir}: probs.npy rows ({m}) and "
                              f"records.jsonl lines ({len(linenos)}) disagree")
    gt_matrix = np.zeros((m, n), dtype=bool)
    gt_matrix[np.repeat(np.arange(m), list(map(len, gt))), list(itertools.chain(*gt))] = True
    return Predictions(probs, gt_matrix, n_unseen, columns["dept"], columns["first_visit"],
                       columns["freq_bucket"], columns["patient_id"], date_column(dates),
                       code_offsets, codes)


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
    _write(stage / "corpus_labels.json", labels.to_json())
    _write(stage / "stats.txt", corpus_stats(encounters).as_text())
    return [], (), (f"gen-corpus: {len(encounters)} encounters, {len(labels)} codes, "
                    f"split {len(split.train)}/{len(split.dev)}/{len(split.test)}")


@_stage
def cmd_preprocess(args, rc: RunConfig, stage: Path):
    """De-duplicate and label-filter the train split, then build the
    vocabulary and label space from it. Writes the filtered train.txt, copies
    dev.txt and test.txt byte for byte once every line parses, and packs each
    split once as `<split>.notes` (`Notes.save`, every token kept), which the
    later stages load in place of the text splits."""
    inputs = [Path(args.inp) / f"{n}.txt" for n in ("train", "dev", "test")]
    train_encs = read_encounters(inputs[0])
    filtered, retained, report = preprocess_train(train_encs, rc.min_code_count,
                                                  rc.dedup_scope)
    vocab = build_vocab(
        [e.text for e in filtered] + [encounter_aux_text(e) for e in filtered],
        rc.min_token_count)
    labels = LabelSpace(tuple(sorted(retained))).with_train_counts(filtered)
    write_encounters(stage / "train.txt", filtered)

    def pack(name, encounters):  # one split's encounters at a time
        Notes.of(encounters, vocab, labels, max_len=None).save(stage / f"{name}.notes",
                                                               vocab, labels)

    pack("train", filtered)
    for path in inputs[1:]:  # dev and test pass through byte-for-byte once they parse
        pack(path.stem, read_encounters(path))
        shutil.copyfile(path, stage / path.name)
    _write(stage / "vocab.json", vocab.to_json())
    _write(stage / "labels.json", labels.to_json())
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
    return inputs, ("history.csv",), (
        f"train: {len(history.epochs)} epochs, kept epoch {history.best_epoch} "
        f"at dev R@5 {history.best_dev_recall_at_5:.4f}")


@_stage
def cmd_train_reranker(args, rc: RunConfig, stage: Path):
    vocab, labels, (train_notes, dev_notes), inputs = _load_prep(args.inp, rc, "train", "dev")
    base_dir = Path(args.base)
    inputs.append(base_dir / "model.ckpt")
    base = load_base_model(base_dir / "model.ckpt", vocab.sha256(), labels.sha256())
    reranker = MetadataReranker.init(len(labels), base.hp.d_c, ModalityVocabs.of(train_notes),
                                     rc.reranker_hparams(),
                                     seed=stage_seed(rc.seed, "reranker-init"))
    _, history = train_reranker(base, reranker, train_notes, dev_notes,
                                rc.train_config("reranker"))
    save_reranker(stage / "reranker.ckpt", reranker, vocab.sha256(), labels.sha256(),
                  base_dir / "model.ckpt")
    _write(stage / "history.csv", history.to_csv())
    return inputs, ("history.csv",), (
        f"train-reranker: {len(history.epochs)} epochs, kept epoch {history.best_epoch} "
        f"at dev R@5 {history.best_dev_recall_at_5:.4f}")


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
        records = predict_records_reranked(base, reranker, notes)
    else:
        records = predict_records(base, notes)
    report = compute_report(records, rc.decision_threshold, args.k)
    np.save(stage / "probs.npy", records.probs)
    _write(stage / "records.jsonl", _records_jsonl(records))
    _write(stage / "report.csv", report.as_csv())
    _write(stage / "report.txt", report.as_text())
    if args.breakdown:
        rows = breakdown(records, args.breakdown, recall_at_k(records, args.k),
                         instance_f1(records, rc.decision_threshold))
        _write(stage / f"breakdown_{args.breakdown}.csv", breakdown_csv(rows, args.k))
    scored = f"{args.split}, reranked" if args.reranker else args.split
    return inputs, (), (f"evaluate[{scored}]: R@{args.k} {report.recall_at_k:.4f}, "
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
    for j, (xs, vs) in enumerate(maps.maps):
        arrays |= {f"x{j}": xs, f"v{j}": vs}
    save_params(stage / "isotonic.ckpt", arrays, {
        "kind": "isotonic", "n_labels": len(maps.maps),
        "labels_sha256": _eval_digests(src)[0]})
    before = ece(records.probs, records.gt, rc.ece_bins)
    after = ece(maps.apply(records).probs, records.gt, rc.ece_bins)
    improved = int(np.count_nonzero(after <= before + 1e-9))
    lines = ["label,ece_before,ece_after"]
    lines += [f"{j},{b:.6f},{a:.6f}" for j, (b, a) in enumerate(zip(before.tolist(),
                                                                    after.tolist()))]
    _write(stage / "ece.csv", "\n".join(lines) + "\n")
    return [src / "manifest.json", src / "probs.npy", src / "records.jsonl"], (), (
        f"calibrate: fit-data ECE non-increasing for {improved}/{len(maps.maps)} labels")


def load_isotonic(calib_dir, labels_sha256: str, dev_dir) -> IsotonicMap:
    """The maps of a calibration checkpoint fitted on the label space whose
    labels.json digest is `labels_sha256`, that of `dev_dir`: for each of its
    n_labels labels j exactly the arrays x{j} and v{j}, non-empty, 1-D, of
    equal length and non-decreasing. Labels are checked in order, stopping at
    the first faulty or missing one, so no more are looked up than the file
    holds."""
    path = Path(calib_dir) / "isotonic.ckpt"
    meta, arrays = load_params(path, kind="isotonic")
    with reading(path):
        n, digest = meta["n_labels"], meta["labels_sha256"]
    if type(n) is not int or n < 0:  # not a bool, a float or a string
        raise ValidationError(f"{path}: n_labels must be a non-negative integer, got {n!r}")
    if digest != labels_sha256:
        raise ValidationError(f"{path}: maps were fitted on another label space than the "
                              f"one the manifest of {dev_dir} records")
    maps = []
    for j in range(n):
        xs, vs = arrays.get(f"x{j}"), arrays.get(f"v{j}")
        if (xs is None or vs is None or xs.ndim != 1 or not xs.size or vs.shape != xs.shape
                or not (np.diff(xs) >= 0).all() or not (np.diff(vs) >= 0).all()):
            raise ValidationError(f"{path}: label {j} needs non-empty 1-D x{j} and v{j} "
                                  f"of equal length, both non-decreasing")
        maps.append((xs, vs))
    extra = sorted(set(arrays) - {f"{c}{j}" for j in range(n) for c in "xv"})
    if extra:
        raise ValidationError(f"{path}: array {extra[0]!r} is not an x{{j}} or v{{j}} "
                              f"of its {n} labels")
    return IsotonicMap(tuple(maps))


# what the digests of an eval's inputs tell apart, each input by its file name
_EVAL_INPUTS = {"labels.json": "label spaces", "model.ckpt": "base models",
                "reranker.ckpt": "rerankers, or a reranker and none"}


def _eval_digests(eval_dir: Path) -> tuple[str, str, str | None]:
    """The labels.json, model.ckpt and reranker.ckpt digests among the
    inputs of an eval dir's manifest; None for a base model's eval, which
    reads no reranker."""
    path = eval_dir / "manifest.json"
    with reading(path):
        inputs = json.loads(path.read_text(encoding="utf-8"))["inputs"]
        digests = {Path(p).name: digest for p, digest in inputs.items()}
        return digests["labels.json"], digests["model.ckpt"], digests.get("reranker.ckpt")


def _budgets(spec: str) -> list[float]:
    """The --max-fp false-positive budgets: a comma-separated list of
    fractions in (0, 1]."""
    try:
        fps = parse_fractions(spec)
    except ValidationError:
        fps = []
    if not fps or not all(0.0 < f <= 1.0 for f in fps):
        raise UsageError(f"--max-fp must list budgets in (0, 1], separated by commas, "
                         f"got {spec!r}")
    return fps


@_stage
def cmd_automate(args, rc: RunConfig, stage: Path):
    if args.calibrated != bool(args.maps):
        raise UsageError("--calibrated requires --maps" if args.calibrated
                         else "--maps requires --calibrated")
    fps = _budgets(args.max_fp)
    dev_dir, test_dir = Path(args.dev), Path(args.test)
    digests = _eval_digests(dev_dir)
    for name, ours, theirs in zip(_EVAL_INPUTS, digests, _eval_digests(test_dir)):
        if ours != theirs:
            raise ValidationError(f"automate: the manifests of {dev_dir} and {test_dir} record "
                                  f"different {name} digests, so different {_EVAL_INPUTS[name]}")
    inputs = [d / n for d in (dev_dir, test_dir)
              for n in ("manifest.json", "probs.npy", "records.jsonl")]
    dev_records = read_prediction_records(dev_dir)
    test_records = read_prediction_records(test_dir)
    n_dev, n_test = dev_records.probs.shape[1], test_records.probs.shape[1]
    if n_dev != n_test:
        raise ValidationError(f"automate: {dev_dir} scores {n_dev} labels but {test_dir} "
                              f"scores {n_test}; both must come from one label space")
    maps = None
    if args.calibrated:
        maps = load_isotonic(args.maps, digests[0], dev_dir)
        inputs.append(Path(args.maps) / "isotonic.ckpt")
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
            r = defined(spearman, [g.recall_at_5 for g in rows], values)
            lines.append(f"{key},{versus},{'n/a' if r is None else format(r, '.4f')}")
    _write(stage / "correlations.csv", "\n".join(lines) + "\n")
    consistency = consistency_check(records)
    _write(stage / "consistency.txt", text_table([
        ("matched pairs", consistency.matched_pairs),
        ("inconsistent pairs", consistency.inconsistent_pairs),
        ("inconsistency rate", f"{consistency.rate:.4f}")], 21))
    return [src / "probs.npy", src / "records.jsonl"], (), (
        f"report: {len(list(stage.iterdir()))} artifacts for {len(records)} records")


def cmd_pipeline(args, rc: RunConfig) -> int:
    """The whole chain, corpus to report, one stage directory each under
    --workdir; the first stage that fails stops it with that stage's exit
    code. Bad --max-fp budgets stop it before the first stage."""
    _budgets(args.max_fp)
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
