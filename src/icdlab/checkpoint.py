"""Bit-exact checkpoints: named float64 arrays and their metadata in one file.
The model and calibration checkpoints use it, and so do the packed splits
that `preprocess` writes (`train.Notes.save`).

An ASCII header (the magic line, the metadata as one line of sort-keyed JSON,
one "name dim0 dim1 ..." line per array, then an END line) is followed by the
raw little-endian row-major values in header order. Round-trip is byte-exact,
so saved models replay identically. Every error names the file. A checkpoint
of another format version is a ValidationError and must be regenerated; a value
that is NaN or infinite is a NumericError.

Readers name the metadata they expect, `load_params(path, **expected)`: a
kind, the digests of a vocabulary and a label space. A mismatch is one
ValidationError naming the file, the key and both values, before any array
is read. `vocab_sha256` and `labels_sha256` are the digests of the files'
bytes, as the manifests record them.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import NumericError, ValidationError

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-/\[\]]+$")
_MAGIC = "icdlab-params v2"


def file_sha256(path) -> str:
    """The hex sha256 of a file's bytes: manifest digests, and the base
    model a reranker checkpoint names."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_params(path, params: dict[str, np.ndarray], meta: dict) -> None:
    """Write `meta` and named float64 arrays; header order = dict insertion
    order."""
    lines = [_MAGIC, json.dumps(meta, sort_keys=True)]  # ASCII: non-ASCII is escaped
    blobs = []
    for name, arr in params.items():
        if not _NAME_RE.match(name):
            raise ValidationError(f"checkpoint: bad parameter name {name!r}")
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim and not a.flags["C_CONTIGUOUS"]:
            a = np.ascontiguousarray(a)
        lines.append(" ".join([name, *map(str, a.shape)]))
        blobs.append(a.astype("<f8", copy=False).tobytes())
    lines.append("END\n")
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("ascii"))
        for blob in blobs:
            fh.write(blob)


def load_params(path, **expected) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint back into (metadata, {name: array}), verifying that
    its metadata holds each `expected` key's value, then sizes and that
    every value is finite."""
    raw = Path(path).read_bytes()
    cut = 0
    header_lines = []
    while True:
        nl = raw.find(b"\n", cut)
        if nl < 0:
            raise ValidationError(f"checkpoint {path}: header not terminated by END line")
        line = raw[cut:nl].decode("latin-1")
        if not line.isascii():
            raise ValidationError(f"checkpoint {path}: non-ASCII header line {len(header_lines) + 1}")
        cut = nl + 1
        if line == "END":
            break
        header_lines.append(line)
    if header_lines[:1] != [_MAGIC]:
        raise ValidationError(f"checkpoint {path}: first line is not {_MAGIC!r}; "
                              f"a checkpoint of another version must be regenerated")
    try:
        meta = json.loads(header_lines[1] if len(header_lines) > 1 else "")
    except ValueError as exc:
        raise ValidationError(f"checkpoint {path}: line 2 is not JSON metadata ({exc})") from None
    if not isinstance(meta, dict):
        raise ValidationError(f"checkpoint {path}: line 2 holds a JSON {type(meta).__name__}, "
                              f"not a metadata object")
    for key, want in expected.items():
        if (got := meta.get(key)) != want:
            raise ValidationError(f"checkpoint {path}: metadata {key} is {got!r}, "
                                  f"expected {want!r}")

    params: dict[str, np.ndarray] = {}
    offset = cut
    for lineno, line in enumerate(header_lines[2:], start=3):
        fields = line.split(" ")
        name, dims = fields[0], fields[1:]
        if name in params:
            raise ValidationError(f"checkpoint {path}: duplicate parameter {name!r} (line {lineno})")
        shape = tuple(int(d) for d in dims if d.isdigit())  # no sign, so no negative size
        if len(shape) != len(dims):
            raise ValidationError(f"checkpoint {path}: bad shape on line {lineno}: {line!r}")
        count = math.prod(shape)  # a Python int, which cannot overflow
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise ValidationError(f"checkpoint {path}: truncated data for parameter {name!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise NumericError(f"checkpoint {path}: parameter {name!r} holds non-finite values")
        params[name] = arr.copy()  # writable, native order
        offset += nbytes
    if offset != len(raw):
        raise ValidationError(f"checkpoint {path}: {len(raw) - offset} trailing bytes after data")
    return meta, params
