"""Reference code that only the tests run: a scalar reduction of a tensor,
a central-difference gradient check, the two baselines that criterion 4
measures the trained models against, and the row-at-a-time JSON-lines
reader that the column readers of split files and records.jsonl replaced."""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from icdlab.autodiff import Tensor, _node, backward
from icdlab.cli import _RECORD_TYPES
from icdlab.corpus import _ENCOUNTER_TYPES, _KINDS, CODE_RE, Encounter, LabelSpace
from icdlab.errors import ValidationError, reading
from icdlab.metrics import Predictions, date_column
from icdlab.train import Notes


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    if axis is not None and not -a.data.ndim <= axis < a.data.ndim:
        raise ValidationError(f"sum: axis {axis} out of range for shape {a.shape}")

    def grad_fn(g):
        if axis is None:
            return (np.full_like(a.data, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _node(np.sum(a.data, axis=axis), (a,), grad_fn)


def grad_check(
    f: Callable[..., Tensor],
    inputs: Iterable[Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per coordinate: |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    Only requires_grad inputs are perturbed.
    """
    inputs = list(inputs)
    loss = f(*inputs)
    analytic = backward(loss)
    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        # inputs the loss never touched have identically-zero gradient
        grad = analytic.get(t, np.zeros_like(t.data)).reshape(-1)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(*inputs).data)
            flat[i] = orig - eps
            lo = float(f(*inputs).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            rel = abs(grad[i] - numeric) / max(1e-8, abs(grad[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst


def uniform_baseline_records(notes: Notes, seed: int = 0) -> Predictions:
    """Scores every label uniformly at random, fresh per document."""
    return notes.scored(np.random.default_rng(seed).uniform(size=notes.gt.shape))


def marginal_baseline_records(notes: Notes, labels: LabelSpace) -> Predictions:
    """Scores every document with the train-frequency ranking of the codes."""
    counts = np.asarray([labels.train_count(c) for c in labels.codes], dtype=np.float64)
    probs = counts / max(counts.max(), 1.0)
    return notes.scored(np.tile(probs, (len(notes), 1)))


# --------------------------------------------------------------------------
# the row-at-a-time reader: each line decoded, checked and built in turn
# --------------------------------------------------------------------------

_decode = json.JSONDecoder().decode


def read_rows(path, types: dict) -> Iterator[tuple[int, dict]]:
    """(line number, row) for each non-blank line of a JSON-lines file, one
    at a time. A row is an object holding exactly the fields of `types`, each
    of exactly its type; no field that becomes a numpy str column holds
    U+0000. Every fault is one ValidationError naming `path:line`."""
    with open(path, encoding="utf-8") as fh, reading(path):
        text = fh.read()
    checks = [(name, *_KINDS[kind]) for name, kind in types.items()]
    n_fields = len(checks)
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = _decode(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: not valid JSON ({exc.msg})") from None
        except RecursionError:
            raise ValidationError(f"{path}:{lineno}: JSON nested too deeply") from None
        if type(row) is not dict:
            raise ValidationError(f"{path}:{lineno}: expected an object")
        if len(row) != n_fields:
            raise _row_error(path, lineno, row, types)
        for name, exact, item, kind in checks:
            try:
                value = row[name]
            except KeyError:
                raise _row_error(path, lineno, row, types) from None
            if type(value) is not exact:
                raise _row_error(path, lineno, row, types, f"{name} must be {kind}")
            if item:
                for x in value:
                    if type(x) is not item:
                        raise _row_error(path, lineno, row, types, f"{name} must be {kind}")
        if "\\u0000" in line:
            for name in ("patient_id", "dept", "doctor", "freq_bucket", "meds", "procs"):
                if "\0" in "".join(row.get(name, "")):
                    raise ValidationError(f"{path}:{lineno}: {name} must not contain U+0000")
        yield lineno, row


def _row_error(path, lineno: int, row: dict, types: dict, fault: str = "") -> ValidationError:
    """A wrong field set is reported before any field's type."""
    if row.keys() != types.keys():
        missing = [f for f in types if f not in row]
        unknown = [f for f in row if f not in types]
        fault = f"missing fields {missing}, unknown fields {unknown}"
    return ValidationError(f"{path}:{lineno}: {fault}")


def check_row(path, lineno: int, row: dict) -> tuple[dt.date, list[str]]:
    """The date and the sorted codes of a row of `read_rows`. Duplicate
    codes, a bad date, an empty code set or a malformed code, checked in that
    order, is a ValidationError naming `path:line`."""
    codes = row["codes"]
    if len(set(codes)) != len(codes):
        raise ValidationError(f"{path}:{lineno}: duplicate codes in record")
    text = row["date"]
    try:
        if len(text) != 10 or text[4] != "-" or text[7] != "-":
            raise ValueError(text)
        date = dt.date.fromisoformat(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: bad date {text!r}") from None
    if not codes:
        raise ValidationError(f"{path}:{lineno}: encounter {row['patient_id']}/{date}: "
                              "empty code set")
    codes = sorted(codes)
    for c in codes:
        if not CODE_RE.match(c):
            raise ValidationError(f"{path}:{lineno}: malformed code {c!r}")
    return date, codes


def encounter_of(path, lineno: int, row: dict) -> Encounter:
    date, codes = check_row(path, lineno, row)
    return Encounter(row["patient_id"], date, row["dept"], row["doctor"], row["text"],
                     frozenset(codes), tuple(row["meds"]), tuple(row["procs"]))


def read_encounters(path) -> list[Encounter]:
    return [encounter_of(path, lineno, row) for lineno, row in read_rows(path, _ENCOUNTER_TYPES)]


def read_prediction_records(eval_dir) -> Predictions:
    """probs.npy, taken as valid, and records.jsonl, read a row at a time: a
    gt index outside the label space or a negative unseen count, then the
    checks of `check_row`, then a record whose gt indices repeat or, with its
    unseen count, do not number its codes, then a row count other than the
    matrix's."""
    eval_dir = Path(eval_dir)
    probs = np.load(eval_dir / "probs.npy", allow_pickle=False)
    m, n = probs.shape
    path = eval_dir / "records.jsonl"
    context, dates, gt, n_gt, codes, code_offsets = [], [], [], [], [], [0]
    for lineno, row in read_rows(path, _RECORD_TYPES):
        if row["gt"] and not (min(row["gt"]) >= 0 and max(row["gt"]) < n):
            raise ValidationError(f"{path}:{lineno}: gt must list label indices in [0, {n})")
        if row["n_unseen"] < 0:
            raise ValidationError(f"{path}:{lineno}: n_unseen must be non-negative")
        date, row_codes = check_row(path, lineno, row)
        distinct = len(set(row["gt"]))
        if distinct != len(row["gt"]) or distinct + row["n_unseen"] != len(row_codes):
            raise ValidationError(f"{path}:{lineno}: gt and n_unseen must account for each "
                                  "of the record's codes once")
        context.append((row["n_unseen"], row["dept"], row["first_visit"], row["freq_bucket"],
                        row["patient_id"]))
        dates.append(date)
        gt += row["gt"]
        n_gt.append(len(row["gt"]))
        codes += row_codes
        code_offsets.append(len(codes))
    if len(context) != m:
        raise ValidationError(f"{eval_dir}: probs.npy rows ({m}) and "
                              f"records.jsonl lines ({len(context)}) disagree")
    gt_matrix = np.zeros((m, n), dtype=bool)
    gt_matrix[np.repeat(np.arange(m), n_gt), gt] = True
    n_unseen, dept, first_visit, freq_bucket, patient_id = zip(*context) if m else [()] * 5
    return Predictions(probs, gt_matrix, n_unseen, dept, first_visit, freq_bucket, patient_id,
                       date_column(dates), code_offsets, codes)
