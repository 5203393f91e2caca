"""Binary parameter checkpoints.

Layout (little-endian), format version 2: magic b"COOP", format version
u32, config block (T, P, H, K, layers as u32, lambda as f64), tensor count
u32, then one record per tensor: name length u32, name bytes (utf-8),
rows u32, cols u32, rows*cols f64 values in row-major order. A u32
``zlib.crc32`` of every byte before it ends the file. Round-trips are
bit-exact. Version 1 files (no CRC) are not read; retrain to get one.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"COOP"
VERSION = 2


class CheckpointError(Exception):
    pass


def save_checkpoint(path, config_block, tensors):
    """config_block = (T, P, H, K, layers, lam); tensors = {name: ndarray}."""
    t, p, hdim, k, layers, lam = config_block
    parts = [MAGIC, struct.pack("<I5IdI", VERSION, t, p, hdim, k, layers,
                                float(lam), len(tensors))]
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        if arr.ndim not in (1, 2):
            raise CheckpointError(f"tensor {name} has unsupported rank {arr.ndim}")
        rows, cols = arr.shape if arr.ndim == 2 else (1, arr.shape[0])
        raw = name.encode("utf-8")
        parts += [struct.pack("<I", len(raw)), raw, struct.pack("<II", rows, cols),
                  arr.tobytes()]
    body = b"".join(parts)
    with open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path):
    """Returns (config_block, {name: 2-D ndarray}).

    Raises CheckpointError for a bad magic, a version other than VERSION, a
    CRC32 mismatch (a truncated or altered file), or a CRC-valid file whose
    records do not parse or leave trailing bytes.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise CheckpointError("bad magic, not a checkpoint file")
    if len(data) >= 8 and (version := struct.unpack_from("<I", data, 4)[0]) != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    body = data[:-4]
    if zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
        raise CheckpointError("checksum mismatch: the file is truncated or altered")
    try:
        *block, count = struct.unpack_from("<5IdI", body, 8)
        off, tensors = 40, {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", body, off)
            name = body[off + 4:off + 4 + nlen].decode("utf-8")
            rows, cols = struct.unpack_from("<II", body, off + 4 + nlen)
            off += 12 + nlen
            arr = np.frombuffer(body, dtype="<f8", count=rows * cols, offset=off)
            tensors[name] = arr.reshape(rows, cols).copy()
            off += 8 * rows * cols
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint record: {e}") from None
    if off != len(body):
        raise CheckpointError("trailing bytes after last tensor record")
    return tuple(block), tensors
