"""Bit-exact parameter checkpoints.

One file holds any ordered mapping of named float64 arrays: an ASCII
header (one "name dim0 dim1 ..." line per parameter, then an END line)
followed by the raw little-endian row-major values in header order.
Round-trip is byte-exact, so saved models replay identically. A value that
is NaN or infinite is a NumericError when the checkpoint is read.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import NumericError, ParseError, ValidationError

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-/\[\]]+$")
_MAGIC = "icdlab-params v1"


def save_params(path, params: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays; header order = dict insertion order."""
    lines = [_MAGIC]
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


def load_params(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into {name: array}, verifying sizes and that
    every value is finite."""
    raw = Path(path).read_bytes()
    cut = 0
    header_lines = []
    while True:
        nl = raw.find(b"\n", cut)
        if nl < 0:
            raise ParseError("checkpoint: header not terminated by END line")
        line = raw[cut:nl].decode("latin-1")
        if not line.isascii():
            raise ParseError(f"checkpoint {path}: non-ASCII header line {len(header_lines) + 1}")
        cut = nl + 1
        if line == "END":
            break
        header_lines.append(line)
    if not header_lines or header_lines[0] != _MAGIC:
        raise ParseError("checkpoint: missing magic line")

    params: dict[str, np.ndarray] = {}
    offset = cut
    for lineno, line in enumerate(header_lines[1:], start=2):
        fields = line.split(" ")
        name, dims = fields[0], fields[1:]
        if name in params:
            raise ParseError(f"checkpoint: duplicate parameter {name!r} (line {lineno})")
        try:
            shape = tuple(int(d) for d in dims)
        except ValueError as exc:
            raise ParseError(f"checkpoint: bad shape on line {lineno}: {line!r}") from exc
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise ParseError(f"checkpoint: truncated data for parameter {name!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise NumericError(f"checkpoint {path}: parameter {name!r} holds non-finite values")
        params[name] = arr.copy()  # writable, native order
        offset += nbytes
    if offset != len(raw):
        raise ParseError(f"checkpoint: {len(raw) - offset} trailing bytes after parameters")
    return params
