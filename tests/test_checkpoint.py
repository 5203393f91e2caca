import struct
import zlib

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


def with_crc(body):
    """`body` with the CRC32 trailer save_checkpoint would give it."""
    return body + struct.pack("<I", zlib.crc32(body))


def test_header_layout(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, {"w": np.ones((1, 1))})
    data = p.read_bytes()
    assert data[:4] == MAGIC
    assert struct.unpack_from("<I", data, 4)[0] == 2  # version
    assert struct.unpack_from("<5I", data, 8) == (32, 8, 24, 4, 3)
    assert struct.unpack_from("<d", data, 28)[0] == 10.0
    assert struct.unpack_from("<I", data, 36)[0] == 1  # tensor count
    # one record (4 + 1 + 8 + 8 bytes) after the 40-byte header, then the CRC
    assert len(data) == 40 + 21 + 4
    assert struct.unpack_from("<I", data, 61)[0] == zlib.crc32(data[:61])


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
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 99"):
        load_checkpoint(str(p))


def test_version_1_is_rejected_by_name(tmp_path):
    # a version 1 file is the version 2 records with version 1 and no CRC
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, {"w": np.ones((2, 2))})
    data = bytearray(p.read_bytes()[:-4])
    data[4:8] = struct.pack("<I", 1)
    p.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="^unsupported checkpoint version 1$"):
        load_checkpoint(str(p))


def test_truncation_and_trailing(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(str(p), CFG, {"w": np.ones((2, 2))})
    data = p.read_bytes()
    p.write_bytes(data + b"\x00")
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(str(p))
    # trailing bytes that the CRC covers
    p.write_bytes(with_crc(data[:-4] + b"\x00"))
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(str(p))


# one tensor "gru.l0.wx" (2, 2): a 40-byte header (magic, version, config
# block, lambda, count), then its name length at 40, name at 44-52, shape at
# 53-60, values at 61-92 and the CRC at 93-96. Each field is named by the
# offset it ends at; a cut is labelled with the field it falls in.
FIELD_ENDS = [(4, "bad magic"), (8, "format version"), (28, "config block"),
              (36, "lambda"), (40, "tensor count"), (44, "tensor 0 name length"),
              (53, "tensor 0 name"), (61, "tensor gru.l0.wx shape"),
              (93, "tensor gru.l0.wx values"), (97, "crc32")]
CUTS = [(cut, next(field for end, field in FIELD_ENDS if cut < end))
        for cut in range(97)]


def small_checkpoint(path):
    save_checkpoint(str(path), CFG, {"gru.l0.wx": np.ones((2, 2))})
    data = path.read_bytes()
    assert len(data) == FIELD_ENDS[-1][0]
    return data


@pytest.mark.parametrize("cut, field", CUTS)
def test_truncation_is_checkpoint_error(tmp_path, cut, field):
    # every cut fails: inside the magic on the magic, anywhere else on the CRC
    p = tmp_path / "m.ckpt"
    data = small_checkpoint(p)
    p.write_bytes(data[:cut])
    want = "bad magic" if cut < 4 else "checksum mismatch: the file is truncated or altered"
    with pytest.raises(CheckpointError, match=want):
        load_checkpoint(str(p))


def test_every_flipped_byte_is_checkpoint_error(tmp_path):
    # CRC32 catches every error burst of up to 32 bits, so each flip fails
    p = tmp_path / "m.ckpt"
    data = small_checkpoint(p)
    for i in range(len(data)):
        flipped = bytearray(data)
        flipped[i] ^= 0xFF
        p.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))


@pytest.mark.parametrize("offset, value, message", [
    (36, struct.pack("<I", 2), "unpack_from requires a buffer"),
    (53, struct.pack("<I", 3), "buffer is smaller than requested size"),
], ids=["count_past_the_end", "rows_past_the_end"])
def test_crafted_record_is_checkpoint_error(tmp_path, offset, value, message):
    # a record edited and its CRC recomputed parses to an error, not a traceback
    p = tmp_path / "m.ckpt"
    body = bytearray(small_checkpoint(p)[:-4])
    body[offset:offset + len(value)] = value
    p.write_bytes(with_crc(bytes(body)))
    with pytest.raises(CheckpointError, match=f"malformed checkpoint record: {message}"):
        load_checkpoint(str(p))


def test_non_utf8_name_is_checkpoint_error(tmp_path):
    p = tmp_path / "m.ckpt"
    body = bytearray(small_checkpoint(p)[:-4])
    body[46] = 0xFF  # the third byte of the name, which starts at 44
    p.write_bytes(with_crc(bytes(body)))
    with pytest.raises(CheckpointError, match="malformed checkpoint record: 'utf-8' "
                       "codec can't decode byte 0xff in position 2"):
        load_checkpoint(str(p))


def test_rank3_rejected(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(str(tmp_path / "m.ckpt"), CFG,
                        {"w": np.zeros((2, 2, 2))})
