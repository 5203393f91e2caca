"""Binary parameter checkpoints.

Layout (little-endian): magic b"COOP", format version u32, config block
(T, P, H, K, layers as u32, lambda as f64), tensor count u32, then one
record per tensor: name length u32, name bytes (utf-8), rows u32, cols u32,
rows*cols f64 values in row-major order. Round-trips are bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"COOP"
VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path, config_block, tensors):
    """config_block = (T, P, H, K, layers, lam); tensors = {name: ndarray}."""
    t, p, hdim, k, layers, lam = config_block
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<5I", t, p, hdim, k, layers))
        f.write(struct.pack("<d", float(lam)))
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            if arr.ndim == 1:
                rows, cols = 1, arr.shape[0]
            elif arr.ndim == 2:
                rows, cols = arr.shape
            else:
                raise CheckpointError(f"tensor {name} has unsupported rank {arr.ndim}")
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<II", rows, cols))
            f.write(arr.tobytes())


def _field_end(data, off, size, what):
    """Offset just past the `size`-byte field `what` that starts at `off`;
    CheckpointError when the file ends before the field does."""
    end = off + size
    if end > len(data):
        raise CheckpointError(
            f"truncated checkpoint: {what} at byte offset {off} needs "
            f"{size} bytes, the file ends at {len(data)}")
    return end


def _unpack(fmt, data, off, what):
    """Returns (values, offset after the field)."""
    end = _field_end(data, off, struct.calcsize(fmt), what)
    return struct.unpack_from(fmt, data, off), end


def load_checkpoint(path):
    """Returns (config_block, {name: 2-D ndarray}).

    Raises CheckpointError for a bad magic or version, a file that ends
    inside a field (naming the field's byte offset), a tensor name that is
    not UTF-8, or trailing bytes.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise CheckpointError("bad magic, not a checkpoint file")
    (version,), off = _unpack("<I", data, 4, "format version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (t, p, hdim, k, layers), off = _unpack("<5I", data, off, "config block")
    (lam,), off = _unpack("<d", data, off, "lambda")
    (count,), off = _unpack("<I", data, off, "tensor count")
    tensors = {}
    for i in range(count):
        (nlen,), off = _unpack("<I", data, off, f"tensor {i} name length")
        end = _field_end(data, off, nlen, f"tensor {i} name")
        try:
            name = data[off:end].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"tensor {i} name at byte offset {off} is not UTF-8") from None
        off = end
        (rows, cols), off = _unpack("<II", data, off, f"tensor {name} shape")
        n = rows * cols
        end = _field_end(data, off, 8 * n, f"tensor {name} values")
        arr = np.frombuffer(data, dtype="<f8", count=n, offset=off).reshape(rows, cols)
        off = end
        tensors[name] = arr.copy()
    if off != len(data):
        raise CheckpointError("trailing bytes after last tensor record")
    return (t, p, hdim, k, layers, lam), tensors
