"""Reference code that only the tests run: a scalar reduction of a tensor,
a central-difference gradient check, scored splits built from plain
columns, the two baselines that criterion 4 measures the trained models
against, and the row-at-a-time reader of JSON-lines split files that the
column reader replaced."""

from __future__ import annotations

import datetime as dt
import json
from typing import Callable, Iterable, Iterator

import numpy as np

from icdlab.autodiff import Tensor, _node, backward
from icdlab.corpus import _ENCOUNTER_TYPES, _KINDS, CODE_RE, Encounter, LabelSpace
from icdlab.errors import ValidationError, reading
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


def scored_notes(probs, gt=None, n_unseen=None, dept=None, first_visit=None,
                 freq_bucket=None, patient_id=None, date=None, codes=None) -> Notes:
    """A scored split of m notes from plain columns: the (m, N) scores, one
    set of ground-truth label indices per note, one entry per note for each
    record column, and one list of codes per note. A column left out is the
    same for every note: no ground truth and no unseen code, a first visit
    of patient P0 to department D0 on 2020-01-01, frequency bucket "", coded
    A00.0. Each note holds one token, no doctor and no meds, procs or
    auxiliary ids."""
    probs = np.asarray(probs, dtype=np.float64)
    m = len(probs)

    def per_note(values, default, dtype):
        return np.array([default] * m if values is None else values, dtype)

    gt_matrix = np.zeros(probs.shape, dtype=bool)
    for i, labels in enumerate(gt or ()):
        gt_matrix[i, sorted(labels)] = True
    codes = [["A00.0"]] * m if codes is None else codes
    no_rows = np.zeros(m + 1, np.int64)
    return Notes(
        tokens=np.ones(m, np.int64), offsets=np.arange(m + 1), gt=gt_matrix,
        n_unseen=per_note(n_unseen, 0, np.int64), dept=per_note(dept, "D0", str),
        first_visit=per_note(first_visit, True, bool),
        freq_bucket=per_note(freq_bucket, "", str), patient_id=per_note(patient_id, "P0", str),
        date=per_note(date, dt.date(2020, 1, 1), "datetime64[D]"),
        code_offsets=np.cumsum([0, *map(len, codes)]),
        codes=np.array([c for row in codes for c in row], str), doctor=per_note(None, "", str),
        med_offsets=no_rows, meds=np.array([], str), proc_offsets=no_rows,
        procs=np.array([], str), aux_offsets=no_rows, aux=np.array([], np.int64),
    ).scored(probs)


def visit_columns(encounters) -> dict:
    """The patient, date and code columns of `scored_notes` over `encounters`."""
    return {"patient_id": [e.patient_id for e in encounters],
            "date": [e.date for e in encounters],
            "codes": [sorted(e.codes) for e in encounters]}


def uniform_baseline_records(notes: Notes, seed: int = 0) -> Notes:
    """Scores every label uniformly at random, fresh per document."""
    return notes.scored(np.random.default_rng(seed).uniform(size=notes.gt.shape))


def marginal_baseline_records(notes: Notes, labels: LabelSpace) -> Notes:
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
            for name in ("patient_id", "dept", "doctor", "meds", "procs"):
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

