#!/usr/bin/env python3
"""The icdlab benchmark: one workload per run, driven in-process through
`icdlab.cli.main(argv)`, the path `scripts/run_pipeline.py` takes.

    python3 perfbench/run.py --workload train --seed 1 --seconds 45 --trace 0

Both workloads run on a reduced corpus (190 patients, 40 of them dev and
40 test; every other corpus key at its default) with min_code_count = 1
and learning_rate = 0.005. The seed is the config's master seed, so it
drives the corpus, the splits and every initialisation. The corpus is
reduced so that one timed unit takes about five seconds and a run holds
eight to ten of them: the median over many short units, with the pacing
below, is what keeps a run steady on a shared host.

* train       - set-up: gen-corpus, preprocess. Unit: `train` (one epoch,
                patience = max_epochs), then `train-reranker` (one epoch)
                over the model just trained. Tail: `evaluate` of the base
                model on dev and on test, and `evaluate --reranker` on test.
* post_model  - set-up adds one base-model `train` (lr 0.02, batch 8, two
                epochs), the least that gives non-degenerate predictions
                (automation selects records) on every seed tried. Unit:
                evaluate dev and test, calibrate, automate over four budgets
                uncalibrated and --calibrated, report. No tail.

With --trace 0 the unit repeats until --seconds have passed (at least
MIN_UNITS times) and the tail runs once on the first unit's outputs.
Set-up repeats SETUP_REPEATS times. Every stage call is followed by the
pace kernel (see `pace` and PACE_PARTS), a fixed piece of interpreter work,
plus small-array numpy work on train, whose time tracks how fast the shared
host runs right now. Each stage's wall time is scaled by REFERENCE_PACE_S
over the median of the PACE_WINDOW paces on either side of it; the gated
times are medians of these scaled times, and the raw wall times are
recorded next to them. work_per_s counts notes through
`train` plus notes through `train-reranker` on train, and scored
(record, label) cells of dev plus test on post_model, whose stages all
work on records x labels matrices; per cell, seeds with more labels do not
read as slower.
With --trace 1 the run sets up once, then makes two traced passes
(gen-corpus, preprocess, unit and tail, with every public layer function
wrapped; see spans.py) around one untraced unit and tail, and reports the
per-layer metrics, the tracing overhead and whether the counts repeat.

Stage exit codes and output checks count as operations; the last stdout
line is {"correct", "attempted", "failed", "metrics"}. Each run also
appends its full record, with provenance, to perfbench/.runs/results.jsonl,
which compare.py reads.
"""

import os

BLAS_THREADS = 1  # steadier than 2 on a 2-core host, and byte-identical output
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"

EPOCHS = 1
BUDGETS = "0.05,0.1,0.2,0.4"
SETUP_REPEATS = 3
MIN_UNITS = 5
WORKLOADS = ("train", "post_model")
STAGES = ("gen-corpus", "preprocess", "train", "train-reranker", "evaluate",
          "calibrate", "automate", "report")
WORKLOAD_CONFIG = {"n_patients": 190, "n_dev_patients": 40, "n_test_patients": 40,
                   "min_code_count": 1, "learning_rate": 0.005,
                   "max_epochs": EPOCHS, "patience": EPOCHS,
                   "reranker_max_epochs": EPOCHS, "reranker_patience": EPOCHS}
SETUP_TRAIN_CONFIG = {**WORKLOAD_CONFIG, "learning_rate": 0.02, "batch_size": 8,
                      "max_epochs": 2, "patience": 2}


def import_program():
    """icdlab from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import icdlab.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import icdlab from {src}: {exc}")
    if src.resolve() not in Path(icdlab.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: icdlab was imported from {icdlab.cli.__file__}, not {src}")
    return icdlab.cli.main


# --------------------------------------------------------------------------
# stage calls and output checks
# --------------------------------------------------------------------------


class Run:
    """Stage calls and checks of one benchmark run, with their outcomes."""

    def __init__(self, main, work: Path):
        self.main = main
        self.work = work
        self.attempted = 0
        self.problems: list[str] = []
        self.stage_failures: dict[str, int] = defaultdict(int)
        self.tracer = None
        self.pacer = None
        self.paced: list[tuple[str, float, int]] = []  # (stage key, wall, pace after it)
        self.log = open(work / "stages.log", "w", encoding="utf-8")

    @property
    def failed(self) -> int:
        return len(self.problems)

    def stage(self, key: str, *argv) -> float:
        """Call one CLI stage; returns its wall time. While a pacer is set,
        a pace follows the stage."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        code = None
        with contextlib.redirect_stdout(self.log):
            started = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self.main(argv)
                else:
                    with self.tracer.stage_span(f"cli.{argv[0]}", key):
                        code = self.main(argv)
            except Exception:  # a crashing stage is a failed operation; keep measuring
                traceback.print_exc()
            wall = time.perf_counter() - started
        if code != 0:
            self.stage_failures[argv[0]] += 1
            self.problems.append(f"stage {key}: exit {code}")
        if self.pacer is not None:
            self.paced.append((key, wall, self.pacer.take()))
        return wall

    def scaled(self, span: tuple[int, int]) -> dict:
        """{stage key: wall time at the reference pace} over paced[i:j]."""
        i, j = span
        return {key: wall * self.pacer.factor(after) for key, wall, after in self.paced[i:j]}

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(f"check {label}: {detail}")


def write_config(path: Path, seed: int, values: dict) -> Path:
    path.write_text(f"seed = {seed}\n" + "".join(f"{k} = {v}\n" for k, v in values.items()),
                    encoding="utf-8")
    return path


def manifest(d: Path) -> dict:
    try:
        return json.loads((d / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def count_lines(path: Path) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())
    except OSError:
        return 0


def oracle_recall_at_5(eval_dir: Path) -> float | None:
    """Mean Recall@5 recomputed from probs.npy + records.jsonl: top five by
    descending score, ties to the lower label index; gt codes outside the
    label space stay in the denominator."""
    try:
        probs = np.load(eval_dir / "probs.npy", allow_pickle=False)
        rows = [json.loads(line) for line in
                (eval_dir / "records.jsonl").read_text(encoding="utf-8").splitlines()
                if line.strip()]
    except (OSError, ValueError):
        return None
    if probs.ndim != 2 or len(rows) != probs.shape[0] or not rows:
        return None
    top = np.argsort(-probs, axis=1, kind="stable")[:, :5]
    recalls = [len(set(top[i].tolist()) & set(r["gt"])) / (len(r["gt"]) + r["n_unseen"])
               for i, r in enumerate(rows)]
    return float(np.mean(recalls))


def reported_recall(eval_dir: Path) -> float | None:
    try:
        header, row = (eval_dir / "report.csv").read_text(encoding="utf-8").splitlines()[:2]
        return float(dict(zip(header.split(","), row.split(",")))["recall_at_5"]) / 100.0
    except (OSError, ValueError, KeyError):
        return None


def check_eval(run: Run, label: str, eval_dir: Path) -> float | None:
    """The numpy oracle's R@5 against report.csv (two decimals in percent)."""
    oracle, reported = oracle_recall_at_5(eval_dir), reported_recall(eval_dir)
    ok = oracle is not None and reported is not None and abs(oracle - reported) <= 5.01e-5
    run.check(f"{label} R@5 oracle", ok, f"oracle {oracle} vs report.csv {reported}")
    return oracle


def check_automation(run: Run, label: str, auto_dir: Path) -> None:
    rows = count_lines(auto_dir / "automation.csv") - 1
    want = len(BUDGETS.split(","))
    run.check(f"{label} rows", rows == want, f"{rows} automation.csv rows, want {want}")


def check_quality(run: Run, key: str, seed: int, value: float | None) -> None:
    """R@5 against this seed's reference in reference.json, else its floor."""
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    expected = ref["seeds"].get(str(seed), {}).get(key)
    if value is None:
        run.check(f"{key} R@5", False, "no R@5")
    elif expected is not None:
        run.check(f"{key} R@5", abs(value - expected) <= ref["tolerance"],
                  f"{value:.4f}, reference {expected:.4f} ± {ref['tolerance']}")
    else:
        floor = ref["floor"][key]
        run.check(f"{key} R@5", value >= floor, f"{value:.4f} below floor {floor}")


def check_repeatable(run: Run, units: list[dict]) -> None:
    """Every unit writes byte-identical outputs (the determinism contract)."""
    first = {name: manifest(d).get("outputs") for name, d in units[0]["dirs"].items()}
    for i, unit in enumerate(units[1:], start=1):
        for name, d in unit["dirs"].items():
            run.check(f"unit {i} {name} outputs", manifest(d).get("outputs") == first[name],
                      "output digests differ from unit 0")


# --------------------------------------------------------------------------
# host pace
# --------------------------------------------------------------------------

# A typical pace on the host the benchmark was tuned on (2 vCPUs of a shared
# x86-64 server, Python 3.11, numpy 2.4). It only sets the scale of scaled
# times, which read as seconds at that pace.
REFERENCE_PACE_S = 0.19

_PACE_RNG = np.random.default_rng(0)
_PACE_X = _PACE_RNG.standard_normal((20, 48))
_PACE_W = _PACE_RNG.standard_normal((48, 64)) * 0.1
_PACE_L = _PACE_RNG.standard_normal((200, 64))


def _interpreter_work() -> float:
    total = 0.0
    for i in range(18000):
        d = {j: j * i for j in range(30)}
        total += sum(d.values()) + len((i, d))
    return total


def _numpy_work() -> float:
    total = 0.0
    for _ in range(700):
        h = np.tanh(_PACE_X @ _PACE_W)
        a = _PACE_L @ h.T
        a = np.exp(a - a.max(axis=1, keepdims=True))
        a /= a.sum(axis=1, keepdims=True)
        total += float(((a @ h) * _PACE_L).sum())
    return total


# The pace kernel of each workload: two parts of about equal time, mixed as
# the workload's stages are. When the host goes from loaded to idle, train's
# stages speed up about as much as interpreter and small-array numpy work
# together (1.5x), the post-model stages as much as interpreter work alone
# (1.7-1.9x against 1.5x for the mix).
PACE_PARTS = {"train": (_interpreter_work, _numpy_work),
              "post_model": (_interpreter_work, _interpreter_work)}


def pace(parts) -> float:
    """Seconds a fixed kernel takes now. On a shared host it slows down with
    the program when neighbours load the machine. It calls no program code
    and runs with gc off, so a change to the program cannot change its time."""
    gc_on = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    for part in parts:
        part()
    elapsed = time.perf_counter() - started
    if gc_on:
        gc.enable()
    return elapsed


# Paces on each side of a stage whose median scales it. One pace is as
# noisy as a short stage; the median of six damps that and still follows
# the host within a few stages.
PACE_WINDOW = 3


class Pacer:
    """Paces taken between back-to-back stage calls."""

    def __init__(self, parts):
        self.parts = parts
        self.paces = [pace(parts)]

    def take(self) -> int:
        """Call right after a stage; the index of the pace that follows it."""
        self.paces.append(pace(self.parts))
        return len(self.paces) - 1

    def factor(self, after: int) -> float:
        """Scale for the stage between paces after - 1 and after."""
        window = self.paces[max(0, after - PACE_WINDOW):after + PACE_WINDOW]
        return REFERENCE_PACE_S / statistics.median(window)


# --------------------------------------------------------------------------
# set-up and units
# --------------------------------------------------------------------------


def setup(run: Run, seed: int, repeats: int, with_base: bool) -> dict:
    """gen-corpus, preprocess and, for post_model, the set-up training,
    `repeats` times."""
    cfg = write_config(run.work / "workload.cfg", seed, WORKLOAD_CONFIG)
    if with_base:
        setup_cfg = write_config(run.work / "setup-train.cfg", seed, SETUP_TRAIN_CONFIG)
    raw, spans, walls = [], [], {}
    for r in range(repeats):
        d = run.work / f"setup{r}"
        first_paced = len(run.paced)
        t = {"gen-corpus": run.stage("gen-corpus", "gen-corpus", "--config", cfg,
                                     "--out", d / "corpus"),
             "preprocess": run.stage("preprocess", "preprocess", "--config", cfg,
                                     "--in", d / "corpus", "--out", d / "prep")}
        if with_base:
            t["setup-train"] = run.stage("setup-train", "train", "--config", setup_cfg,
                                         "--in", d / "prep", "--out", d / "base")
        raw.append(sum(t.values()))
        spans.append((first_paced, len(run.paced)))
        for key, value in t.items():
            walls.setdefault(key, value)
    first = run.work / "setup0"
    for r in range(1, repeats):
        for name in ("corpus", "prep") + (("base",) if with_base else ()):
            run.check(f"set-up {r} {name} outputs",
                      manifest(run.work / f"setup{r}" / name).get("outputs")
                      == manifest(first / name).get("outputs"), "output digests differ")
    return {"cfg": cfg, "prep": first / "prep", "base": first / "base" if with_base else None,
            "setup_raw_s": statistics.median(raw), "setup_spans": spans, "walls": walls}


def corpus_counts(prep: Path) -> dict:
    try:
        labels = json.loads((prep / "labels.json").read_text(encoding="utf-8"))["codes"]
    except (OSError, ValueError, KeyError):
        labels = []
    return {"n_train": count_lines(prep / "train.txt"), "n_labels": len(labels)}


def unit_train(run: Run, env: dict, d: Path, prep: Path) -> dict:
    model, rr = d / "model", d / "reranker"
    t = {"train": run.stage("train", "train", "--config", env["cfg"], "--in", prep,
                            "--out", model),
         "train-reranker": run.stage("train-reranker", "train-reranker", "--config",
                                     env["cfg"], "--in", prep, "--base", model, "--out", rr)}
    return {"walls": t, "main_s": sum(t.values()), "main_items": 2 * EPOCHS * env["n_train"],
            "dirs": {"model": model, "reranker": rr}}


def tail_train(run: Run, env: dict, d: Path, prep: Path) -> dict:
    ed, et, er = d / "eval_dev", d / "eval_test", d / "eval_rr"
    t = {}
    for key, split, out, extra in (("evaluate-dev", "dev", ed, ()),
                                   ("evaluate-test", "test", et, ()),
                                   ("evaluate-rr", "test", er, ("--reranker", d / "reranker"))):
        t[key] = run.stage(key, "evaluate", "--config", env["cfg"], "--in", prep,
                           "--model", d / "model", *extra, "--out", out, "--split", split)
    return {"walls": t,
            "eval_records": sum(count_lines(x / "records.jsonl") for x in (ed, et, er)),
            "dirs": {"eval_dev": ed, "eval_test": et, "eval_rr": er}}


def unit_post_model(run: Run, env: dict, d: Path, prep: Path) -> dict:
    cfg, base = env["cfg"], env["base"]
    ed, et, cal = d / "eval_dev", d / "eval_test", d / "calib"
    auto, auto_cal, rep = d / "auto", d / "auto_cal", d / "report"
    t = {}
    for key, split, out in (("evaluate-dev", "dev", ed), ("evaluate-test", "test", et)):
        t[key] = run.stage(key, "evaluate", "--config", cfg, "--in", prep, "--model", base,
                           "--out", out, "--split", split)
    t["calibrate"] = run.stage("calibrate", "calibrate", "--config", cfg, "--in", ed,
                               "--out", cal)
    t["automate"] = run.stage("automate", "automate", "--config", cfg, "--dev", ed,
                              "--test", et, "--out", auto, "--max-fp", BUDGETS)
    t["automate-calibrated"] = run.stage("automate-calibrated", "automate", "--config", cfg,
                                         "--dev", ed, "--test", et, "--out", auto_cal,
                                         "--max-fp", BUDGETS, "--calibrated", "--maps", cal)
    t["report"] = run.stage("report", "report", "--config", cfg, "--in", et, "--out", rep)
    records = count_lines(ed / "records.jsonl") + count_lines(et / "records.jsonl")
    return {"walls": t, "main_s": sum(t.values()), "main_items": records * env["n_labels"],
            "eval_records": records,
            "dirs": {"eval_dev": ed, "eval_test": et, "calib": cal, "auto": auto,
                     "auto_cal": auto_cal, "report": rep}}


def no_tail(run: Run, env: dict, d: Path, prep: Path) -> dict:
    return {"walls": {}, "dirs": {}}


# workload -> (unit timed again and again, stages run once on the first unit's outputs)
UNITS = {"train": (unit_train, tail_train), "post_model": (unit_post_model, no_tail)}


def history_r5(run: Run, label: str, model_dir: Path) -> float | None:
    """The dev R@5 that history.csv records after the last of EPOCHS epochs."""
    path = model_dir / "history.csv"
    rows = [line.split(",") for line in
            path.read_text(encoding="utf-8").splitlines()[1:]] if path.exists() else []
    run.check(f"{label} history", len(rows) == EPOCHS, f"{len(rows)} epochs, want {EPOCHS}")
    return float(rows[-1][2]) if rows else None


def check_unit(run: Run, seed: int, workload: str, dirs: dict) -> dict:
    """Output checks on one unit and its tail; returns the R@5 values found.

    `quality` is the mean of the dev and test R@5 of the base model the
    workload scores: the freshly trained one, or the set-up model. Either
    split alone is a few hundred records, and their mean spreads about half
    as much from seed to seed. The reranker's dev R@5 after its epoch is
    checked as well: training may still return the zero-initialised
    identity, whose test R@5 equals the base model's, so only the history
    shows what the epoch computed.
    """
    dev_r5 = check_eval(run, "evaluate dev", dirs["eval_dev"])
    test_r5 = check_eval(run, "evaluate test", dirs["eval_test"])
    quality = None if None in (dev_r5, test_r5) else (dev_r5 + test_r5) / 2.0
    found = {"quality": quality, "dev_r5": dev_r5, "test_r5": test_r5}
    check_quality(run, workload, seed, quality)
    if workload == "train":
        last = history_r5(run, "train", dirs["model"])
        run.check("train best model", None not in (dev_r5, last) and dev_r5 >= last - 1e-6,
                  f"evaluate dev R@5 {dev_r5} below the trained R@5 {last}")
        found["rerank_dev_r5"] = history_r5(run, "train-reranker", dirs["reranker"])
        check_quality(run, "reranker", seed, found["rerank_dev_r5"])
        found["rerank_test_r5"] = check_eval(run, "evaluate --reranker", dirs["eval_rr"])
    else:
        check_automation(run, "automate", dirs["auto"])
        check_automation(run, "automate --calibrated", dirs["auto_cal"])
    return found


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------


def openblas_threads() -> int | None:
    """The thread count OpenBLAS reports, from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None  # an exported checkout carries no history
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text(encoding="utf-8").splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance(seed: int, env: dict, units: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    prep = env["prep"]
    vocab = json.loads((prep / "vocab.json").read_text(encoding="utf-8"))["tokens"] \
        if (prep / "vocab.json").exists() else []
    digests = {"workload": manifest(prep).get("config_sha256")}
    if env["base"] is not None:
        digests["setup-train"] = manifest(env["base"]).get("config_sha256")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "config_sha256": digests,
        "seed": seed,
        "train_notes": env["n_train"],
        "dev_records": count_lines(prep / "dev.txt"),
        "test_records": count_lines(prep / "test.txt"),
        "labels": env["n_labels"],
        "vocab": len(vocab) + 2,
        "units": units,
    }


# --------------------------------------------------------------------------
# the two kinds of run
# --------------------------------------------------------------------------


def measure(run: Run, workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """Untraced: set-up several times, units for `seconds`, then the tail
    once; every stage is paced (see Pacer) and the gated times are medians
    of scaled times."""
    unit_fn, tail_fn = UNITS[workload]
    run.pacer = pacer = Pacer(PACE_PARTS[workload])
    env = setup(run, seed, SETUP_REPEATS, workload == "post_model")
    env.update(corpus_counts(env["prep"]))
    units = []
    started = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - started < seconds:
        first_paced = len(run.paced)
        units.append(unit_fn(run, env, run.work / f"unit{len(units)}", env["prep"]))
        units[-1]["span"] = (first_paced, len(run.paced))
    first_paced = len(run.paced)
    tail = tail_fn(run, env, run.work / "unit0", env["prep"])
    tail["span"] = (first_paced, len(run.paced))
    for u in units + [tail]:
        u["scaled"] = run.scaled(u["span"])
    setup_s = statistics.median(sum(run.scaled(span).values()) for span in env["setup_spans"])
    run.pacer = None
    r5 = check_unit(run, seed, workload, {**units[0]["dirs"], **tail["dirs"]})
    check_repeatable(run, units)
    metrics = {
        "setup_s": setup_s,
        "work_per_s": statistics.median(u["main_items"] / sum(u["scaled"].values())
                                        for u in units),
        "quality_r5": r5["quality"] if r5["quality"] is not None else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = {k: v for k, v in r5.items() if k != "quality"}
    if workload == "train":
        for stage in ("train", "train-reranker"):
            named[f"{stage.replace('-', '_')}_notes_per_s"] = statistics.median(
                EPOCHS * env["n_train"] / u["scaled"][stage] for u in units)
    else:
        named["post_model_s"] = statistics.median(sum(u["scaled"].values()) for u in units)
    scoring = [tail] if workload == "train" else units
    named["score_records_per_s"] = statistics.median(
        u["eval_records"] / sum(v for k, v in u["scaled"].items() if k.startswith("evaluate"))
        for u in scoring)
    named["raw"] = {"setup_s": env["setup_raw_s"],
                    "work_per_s": statistics.median(u["main_items"] / u["main_s"] for u in units)}
    named["paces"] = [round(p, 4) for p in pacer.paces]
    named["paced_stages"] = [(key, round(wall, 3), after) for key, wall, after in run.paced]
    return metrics, named, provenance(seed, env, len(units))


def trace(run: Run, workload: str, seed: int) -> tuple[dict, dict, dict]:
    """Traced: two traced passes with one untraced unit and tail between them."""
    import spans

    unit_fn, tail_fn = UNITS[workload]

    def unit_and_tail(d: Path, prep: Path) -> tuple[dict, dict]:
        unit, tail = unit_fn(run, env, d, prep), tail_fn(run, env, d, prep)
        return {**unit["walls"], **tail["walls"]}, {**unit["dirs"], **tail["dirs"]}

    env = setup(run, seed, 1, workload == "post_model")
    env.update(corpus_counts(env["prep"]))
    cfg = env["cfg"]
    passes = []
    for p in range(2):
        if p == 1:  # between the traced passes, so neither side alone warms up
            walls, _ = unit_and_tail(run.work / "untraced", env["prep"])
            untraced = (env["walls"]["gen-corpus"] + env["walls"]["preprocess"]
                        + sum(walls.values()))
        tracer = spans.Tracer()
        d = run.work / f"traced{p}"
        with spans.traced(tracer) as missing:
            run.tracer = tracer
            try:
                run.stage("gen-corpus", "gen-corpus", "--config", cfg, "--out", d / "corpus")
                run.stage("preprocess", "preprocess", "--config", cfg, "--in", d / "corpus",
                          "--out", d / "prep")
                _, dirs = unit_and_tail(d, d / "prep")
            finally:
                run.tracer = None
        check_unit(run, seed, workload, dirs)
        timings, counts = spans.summarize(tracer, {f"cli.{s}" for s in STAGES})
        passes.append((tracer, timings, counts, missing))
    (tracer, timings, counts, missing), (_, timings2, counts2, _) = passes
    mismatches = sorted(k for k in set(counts) | set(counts2)
                        if counts.get(k) != counts2.get(k))
    run.check("per-layer counts repeat", not mismatches, ", ".join(mismatches))
    metrics = {**counts}
    for key in set(timings) | set(timings2):
        metrics[key] = (timings.get(key, 0.0) + timings2.get(key, 0.0)) / 2.0
    for stage in STAGES:
        wall = metrics.get(f"cli.{stage}.wall_s", 0.0)
        metrics[f"cli.{stage}.unattributed_share"] = (
            metrics.get(f"cli.{stage}.self_s", 0.0) / wall if wall else 0.0)
        metrics[f"cli.{stage}.failed"] = float(run.stage_failures.get(stage, 0))
    tokens = counts.get("model.BaseModel.encode.real_tokens", 0.0)
    metrics["autodiff.conv1d.positions_per_token"] = (
        counts.get("autodiff.conv1d.positions", 0.0) / tokens if tokens else 0.0)
    read = tracer.counts.get(("automate-calibrated", "cli.read_prediction_records.records"))
    applied = tracer.counts.get(("automate-calibrated", "calibrate.IsotonicMap.apply.records"), 0.0)
    metrics["calibrate.apply_records_per_input_record"] = applied / read if read else 0.0
    traced_wall = sum(v for k, v in metrics.items() if k.endswith(".wall_s"))
    metrics["trace.overhead_s"] = traced_wall - untraced
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
    metrics["trace.count_mismatches"] = float(len(mismatches))
    tracer.save(RUNS / f"spans-{workload}-seed{seed}.npz")
    named = {"missing_targets": missing, "count_mismatches": mismatches,
             "spans": len(tracer.name)}
    return metrics, named, provenance(seed, env, 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    icdlab_main = import_program()

    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(icdlab_main, work)
    try:
        if args.trace:
            values, named, prov = trace(run, args.workload, args.seed)
            wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        else:
            values, named, prov = measure(run, args.workload, args.seed, args.seconds)
            wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    finally:
        run.log.close()
    values["ok_op_ratio"] = 1.0 - run.failed / max(run.attempted, 1)
    named["failed_op_ratio"] = run.failed / max(run.attempted, 1)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in wanted}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    if run.failed == 0:
        shutil.rmtree(work)
    else:
        print(f"perfbench: outputs kept in {work}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": prov, "named": named,
              "problems": run.problems, "result": result}
    with open(RUNS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in named.items():
        print(f"{args.workload:>10}  {name:<40} {value}")
    for name, m in metrics.items():
        print(f"{args.workload:>10}  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"checks: {run.attempted} attempted, {run.failed} failed")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
