import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coopad.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                               save_checkpoint)

CFG = (32, 8, 24, 4, 3, 10.0)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "w_a": rng.normal(size=(3, 5)),
        "b": rng.normal(size=7),  # 1-D stored as a row
        "gru.l0.wx": np.array([[np.pi, -0.0], [1e-300, 1e300]]),
    }
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, tensors)
    cfg, loaded = load_checkpoint(str(p))
    assert cfg == CFG
    assert set(loaded) == set(tensors)
    assert loaded["b"].shape == (1, 7)
    for name, arr in tensors.items():
        got = loaded[name].reshape(arr.shape)
        assert got.tobytes() == np.asarray(arr, dtype="<f8").tobytes()


@settings(max_examples=60, deadline=None)
@given(tensors=st.dictionaries(
    st.text(st.characters(codec="utf-8"), max_size=12),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                            max_side=5)),
    max_size=6))
def test_round_trip_random_names_and_shapes(tmp_path_factory, tensors):
    # any float64 bytes (NaN payloads, -0.0, inf) and any UTF-8 name survive
    p = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(str(p), CFG, tensors)
    cfg, loaded = load_checkpoint(str(p))
    assert cfg == CFG
    assert sorted(loaded) == sorted(tensors)
    for name, arr in tensors.items():
        want = arr.reshape(1, -1) if arr.ndim == 1 else arr
        assert loaded[name].shape == want.shape
        assert loaded[name].tobytes() == want.astype("<f8").tobytes()


def test_identical_bytes_for_identical_input(tmp_path):
    tensors = {"w": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(str(p1), CFG, tensors)
    save_checkpoint(str(p2), CFG, dict(reversed(tensors.items())))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, {"w": np.ones((1, 1))})
    data = p.read_bytes()
    assert data[:4] == MAGIC
    assert struct.unpack_from("<I", data, 4)[0] == 1  # version
    assert struct.unpack_from("<5I", data, 8) == (32, 8, 24, 4, 3)
    assert struct.unpack_from("<d", data, 28)[0] == 10.0
    assert struct.unpack_from("<I", data, 36)[0] == 1  # tensor count


def test_bad_magic(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def test_bad_version(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, {})
    data = bytearray(p.read_bytes())
    data[4:8] = struct.pack("<I", 99)
    p.write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


def test_truncation_and_trailing(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, {"w": np.ones((2, 2))})
    data = p.read_bytes()
    p.write_bytes(data + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(p))


# one tensor "gru.l0.wx" (2, 2): a 40-byte header (magic, version, config
# block, lambda, count), then its name length at 40, name at 44-52, shape at
# 53-60 and values at 61-92
@pytest.mark.parametrize("cut, field", [
    (2, "bad magic"), (6, "format version"), (20, "config block"),
    (30, "lambda"), (38, "tensor count"), (42, "tensor 0 name length"),
    (48, "tensor 0 name"), (57, "tensor gru.l0.wx shape"),
    (73, "tensor gru.l0.wx values"), (92, "tensor gru.l0.wx values"),
])
def test_truncation_is_checkpoint_error(tmp_path, cut, field):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, {"gru.l0.wx": np.ones((2, 2))})
    data = p.read_bytes()
    assert len(data) == 93
    p.write_bytes(data[:cut])
    with pytest.raises(CheckpointError, match=field) as err:
        load_checkpoint(str(p))
    if cut > 4:
        assert f"file ends at {cut}" in str(err.value)
        assert "offset" in str(err.value)


def test_non_utf8_name_is_checkpoint_error(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, {"gru.l0.wx": np.ones((2, 2))})
    data = bytearray(p.read_bytes())
    data[46] = 0xFF  # the third byte of the name, which starts at 44
    p.write_bytes(bytes(data))
    with pytest.raises(CheckpointError,
                       match="tensor 0 name at byte offset 44 is not UTF-8"):
        load_checkpoint(str(p))


def test_rank3_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(str(tmp_path / "m.ckpt"), CFG,
                        {"w": np.zeros((2, 2, 2))})
