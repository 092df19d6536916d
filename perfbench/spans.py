"""Outside-in tracing of the icdlab layers for the benchmark's traced run.

Each public function of a layer is wrapped at the name through which its
callers look it up: `icdlab.cli.compute_report` rather than
`icdlab.metrics.compute_report`, because `cli` binds it with
`from ... import`, and `icdlab.autodiff.matmul` because `model` and
`multi_head_attention` look primitives up on that module. A wrapper records
one span (name, start, end, parent) in flat in-memory arrays and may add
counts (bytes, records, tokens, flops) under the current stage. Nothing is
written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PAD_ID = 0  # icdlab.preprocess.PAD_ID; padding positions are not real tokens

AUTODIFF_PRIMITIVES = ("embedding", "conv1d", "matmul", "transpose", "softmax", "tanh",
                       "sigmoid", "mul", "add", "tensor_sum", "scale", "concat",
                       "clamp01", "bce_loss", "multi_head_attention", "backward")


class Tracer:
    """Spans in parallel arrays, plus counts keyed by (stage, name)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.stage = ""
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[(self.stage, key)] += value

    @contextmanager
    def stage_span(self, name: str, stage: str):
        """The span of one CLI stage call; counts inside it go under `stage`."""
        self.stage = stage
        i = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(i)
            self.stage = ""

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.asarray(self.name, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int32),
                "start": np.asarray(self.start, dtype=np.float64),
                "end": np.asarray(self.end, dtype=np.float64),
                "names": np.asarray(self.names, dtype=str)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


# --------------------------------------------------------------------------
# counts taken at call time (from arguments) or from the result
# --------------------------------------------------------------------------


def _shape(x) -> tuple[int, ...]:
    return tuple(getattr(x, "shape", np.shape(x)))


def _matmul_counts(args, out):
    a, b = _shape(args[0]), _shape(args[1])
    return [("autodiff.matmul.flops", 2.0 * float(np.prod(a)) * b[-1])]


def _conv1d_counts(args, out):
    x, k = _shape(args[0]), _shape(args[1])
    positions = float(np.prod(x[:-1]))
    return [("autodiff.conv1d.flops", 2.0 * positions * float(np.prod(k))),
            ("autodiff.conv1d.positions", positions)]


def _real_tokens(ids) -> int:
    """Non-padding ids in a note, a sequence of notes, or an id array."""
    ids = getattr(ids, "token_ids", ids)
    if isinstance(ids, (list, tuple)) and ids and hasattr(ids[0], "token_ids"):
        return sum(_real_tokens(n) for n in ids)
    return int(np.count_nonzero(np.asarray(ids) != PAD_ID))


def _encode_counts(args, out):
    return [("model.BaseModel.encode.real_tokens", float(_real_tokens(args[1])))]


def _tokenize_counts(args, out):
    return [("preprocess.tokens", float(len(out.token_ids)))]


def _generated_counts(args, out):
    return [("corpus.encounters", float(len(out[0])))]


def _read_counts(args, out):
    return [("corpus.encounters", float(len(out)))]


def _records(key):
    return lambda args, out: [(key, float(len(out)))]


def _file_bytes(key):
    return lambda args, out: [(key, float(os.path.getsize(args[0])))]


# (module, attribute path, span name, counts)
TARGETS = [
    ("icdlab.cli", "generate_corpus", "corpus.generate_corpus", _generated_counts),
    ("icdlab.cli", "read_encounters", "corpus.read_encounters", _read_counts),
    ("icdlab.cli", "write_encounters", "corpus.write_encounters", None),
    ("icdlab.cli", "preprocess_train", "preprocess.preprocess_train", None),
    ("icdlab.cli", "build_vocab", "preprocess.build_vocab", None),
    ("icdlab.train", "tokenize", "preprocess.tokenize", _tokenize_counts),
    *[(mod, "save_params", "checkpoint.save_params",
       _file_bytes("checkpoint.save_params.bytes")) for mod in ("icdlab.cli", "icdlab.model")],
    *[(mod, "load_params", "checkpoint.load_params",
       _file_bytes("checkpoint.load_params.bytes")) for mod in ("icdlab.cli", "icdlab.model")],
    *[("icdlab.autodiff", p, f"autodiff.{p}",
       {"matmul": _matmul_counts, "conv1d": _conv1d_counts}.get(p))
      for p in AUTODIFF_PRIMITIVES],
    ("icdlab.model", "BaseModel.forward", "model.BaseModel.forward", None),
    ("icdlab.model", "BaseModel.encode", "model.BaseModel.encode", _encode_counts),
    ("icdlab.model", "BaseModel.predict_probs", "model.BaseModel.predict_probs", None),
    ("icdlab.model", "MetadataReranker.forward", "model.MetadataReranker.forward", None),
    ("icdlab.train", "frozen_base_outputs", "model.frozen_base_outputs", None),
    ("icdlab.cli", "train", "train.train", None),
    ("icdlab.cli", "train_reranker", "train.train_reranker", None),
    ("icdlab.train", "Adam.step", "train.Adam.step", None),
    *[(mod, "predict_records", "train.predict_records", None)
      for mod in ("icdlab.cli", "icdlab.train")],
    ("icdlab.cli", "predict_records_reranked", "train.predict_records_reranked", None),
    ("icdlab.train", "label_targets", "train.label_targets", None),
    ("icdlab.cli", "note_for_encounter", "train.note_for_encounter", None),
    ("icdlab.cli", "compute_report", "metrics.compute_report", None),
    *[("icdlab.metrics", f, f"metrics.{f}", None)
      for f in ("auc_micro", "auc_macro", "micro_f1", "macro_f1")],
    *[(mod, f, f"metrics.{f}", None) for mod in ("icdlab.metrics", "icdlab.train")
      for f in ("mean_recall_at_k", "mean_instance_f1")],
    *[("icdlab.cli", f, f"metrics.{f}", None)
      for f in ("breakdown", "score_histogram", "spearman", "consistency_check")],
    ("icdlab.cli", "fit_isotonic", "calibrate.fit_isotonic", None),
    ("icdlab.calibrate", "IsotonicMap.apply", "calibrate.IsotonicMap.apply",
     _records("calibrate.IsotonicMap.apply.records")),
    ("icdlab.cli", "ece", "calibrate.ece", None),
    ("icdlab.calibrate", "search_thresholds", "calibrate.search_thresholds", None),
    ("icdlab.calibrate", "evaluate_automation", "calibrate.evaluate_automation", None),
    ("icdlab.cli", "automation_sweep", "calibrate.automation_sweep", None),
    ("icdlab.cli", "read_prediction_records", "cli.read_prediction_records",
     _records("cli.read_prediction_records.records")),
]


def _wrap(tracer: Tracer, fn, name: str, counts):
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if counts is not None:
            for key, value in counts(args, out):
                tracer.add(key, value)
        return out

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Patch every target for the duration of the block; yields the names
    of targets that the program no longer has."""
    patched, missing = [], []
    try:
        for module, path, name, counts in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{module}.{path}")
                continue
            patched.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, counts))
        yield missing
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


def summarize(tracer: Tracer, stage_names) -> tuple[dict, dict]:
    """(timings, counts) for one traced pass.

    Self time is a span's duration minus the time its direct children
    cover; spans are strictly nested in this single-threaded program, so
    the children never overlap. A stage span's self time is the share of
    that stage no layer span covers.
    """
    a = tracer.arrays()
    n_names = len(tracer.names)
    dur = a["end"] - a["start"]
    child = a["parent"] >= 0
    covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
    self_time = np.bincount(a["name"], weights=dur - covered, minlength=n_names)
    wall = np.bincount(a["name"], weights=dur, minlength=n_names)
    calls = np.bincount(a["name"], minlength=n_names)
    timings, counts = {}, {}
    for i, name in enumerate(tracer.names):
        timings[f"{name}.self_s"] = float(self_time[i])
        if name in stage_names:
            timings[f"{name}.wall_s"] = float(wall[i])
        else:
            counts[f"{name}.calls"] = float(calls[i])
    for (_, key), value in tracer.counts.items():
        counts[key] = counts.get(key, 0.0) + value
    return timings, counts
