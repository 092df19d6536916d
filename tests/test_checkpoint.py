import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdlab.checkpoint import load_params, save_params
from icdlab.errors import ValidationError


def test_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "emb": rng.normal(size=(5, 3)),
        "w": rng.normal(size=(3, 2)),
        "b": rng.normal(size=2),
        "scalar": np.asarray(3.5),
    }
    meta = {"kind": "toy", "sizes": [5, 3], "names": ["é", "b"]}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_params(p1, params, meta)
    back, loaded = load_params(p1)
    assert back == meta
    assert list(loaded) == list(params)  # header preserves order
    for k in params:
        assert loaded[k].shape == np.asarray(params[k]).shape
        assert loaded[k].tobytes() == np.asarray(params[k], dtype="<f8").tobytes()
    save_params(p2, loaded, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_is_readable_text(tmp_path):
    path = tmp_path / "m.ckpt"
    save_params(path, {"layer/w": np.zeros((2, 4))}, {"name": "café", "n": 2})
    head = path.read_bytes().split(b"END")[0].decode("ascii")  # non-ASCII metadata is escaped
    assert head.splitlines() == ["icdlab-params v2", '{"n": 2, "name": "caf\\u00e9"}',
                                 "layer/w 2 4"]


def test_negative_zero_and_specials_preserved(tmp_path):
    path = tmp_path / "m.ckpt"
    vals = np.array([-0.0, 1e-308, np.pi, 1e308])
    save_params(path, {"v": vals}, {})
    back = load_params(path)[1]["v"]
    assert back.tobytes() == vals.tobytes()
    assert np.signbit(back[0])


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_params(path, {"v": np.arange(4.0)}, {})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValidationError, match="m.ckpt: truncated data for parameter 'v'"):
        load_params(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_params(path, {"v": np.arange(4.0)}, {})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ValidationError, match="m.ckpt: 2 trailing bytes"):
        load_params(path)


def test_bad_parameter_name_rejected(tmp_path):
    with pytest.raises(ValidationError):
        save_params(tmp_path / "m.ckpt", {"has space": np.zeros(1)}, {})


def test_missing_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"w 2\nEND\n" + b"\x00" * 16)
    with pytest.raises(ValidationError, match="m.ckpt: first line is not 'icdlab-params v2'"):
        load_params(path)


def test_version_1_checkpoint_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"icdlab-params v1\nw 2\nEND\n" + b"\x00" * 16)
    with pytest.raises(ValidationError, match="m.ckpt: .* must be regenerated"):
        load_params(path)


@pytest.mark.parametrize("header, message", [
    (b"icdlab-params v2\n", "header not terminated by END line"),
    (b"icdlab-params v2\nEND\n", "line 2 is not JSON metadata"),
    (b"icdlab-params v2\n{not json\nEND\n", "line 2 is not JSON metadata"),
    (b"icdlab-params v2\n[1, 2]\nEND\n", "line 2 holds a JSON list"),
    (b"icdlab-params v2\n{}\nw 2\nw 2\nEND\n" + b"\x00" * 32, "duplicate parameter 'w'"),
    (b"icdlab-params v2\n{}\nw -2\nEND\n", "bad shape on line 3"),
    (b"icdlab-params v2\n{}\nw 2 x\nEND\n", "bad shape on line 3"),
    (b"icdlab-params v2\n{}\nw 99999999999 99999999999\nEND\n", "truncated data"),
], ids=["no-end", "no-metadata-line", "metadata-not-json", "metadata-a-list",
        "duplicate-name", "negative-dimension", "non-integer-dimension", "overflowing-size"])
def test_malformed_header_rejected_naming_the_file(tmp_path, header, message):
    path = tmp_path / "m.ckpt"
    path.write_bytes(header)
    with pytest.raises(ValidationError, match=f"checkpoint {re.escape(str(path))}: {message}"):
        load_params(path)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_round_trip_random_shapes(tmp_path_factory, seed, nparams):
    rng = np.random.default_rng(seed)
    params = {}
    for i in range(nparams):
        ndim = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        params[f"p{i}"] = rng.normal(size=shape)
    path = tmp_path_factory.mktemp("ck") / "m.ckpt"
    save_params(path, params, {"seed": seed})
    meta, loaded = load_params(path)
    assert meta == {"seed": seed}
    for k, v in params.items():
        assert loaded[k].tobytes() == v.tobytes()
        assert loaded[k].shape == v.shape
