"""Deterministic synthetic fixtures: periodic base signal with injected
anomalies reusing the training-time distortion implementations."""

from __future__ import annotations

import os

import numpy as np

from .augment import apply_kind
from .data import RawSeries


def gen_periodic(length, period, noise_std, anomalies, seed):
    """Sine base + Gaussian noise; each anomaly is (kind, start, end) applied
    via the augment-module distortions. Labels mark the union of intervals."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    values = np.sin(2.0 * np.pi * t / period) + rng.normal(0.0, noise_std, size=length)
    labels = np.zeros(length, dtype=np.int8)
    for kind, start, end in anomalies:
        values[start:end + 1] = apply_kind(values[start:end + 1], kind, rng)
        labels[start:end + 1] = 1
    return values, labels


WRITE_BLOCK = 8192  # values write_ucr_file formats at a time


DEFAULT_ANOMALIES = (
    ("uniform_replacement", 11200, 11239),
    ("mirror_flip", 13000, 13044),
    ("length_scale", 14800, 14849),
    ("jittering", 16500, 16539),
    ("uniform_replacement", 18200, 18234),
)


def default_fixture(seed=7):
    """Acceptance fixture: 20k points, clean first half for training, five
    mixed-kind anomalies in the test half."""
    length, period = 20_000, 50
    values, labels = gen_periodic(length, period, noise_std=0.05,
                                  anomalies=DEFAULT_ANOMALIES, seed=seed)
    return RawSeries(values=values, name=f"synth_seed{seed}",
                     split=length // 2, labels=labels), period


def write_ucr_file(out_dir, series, stem="synthetic"):
    """Emit the series under the UCR filename convention so the standard
    loader consumes it. The filename holds one anomaly range, from the first
    labeled point to the last (any gaps between labeled ranges included), or
    [split, split] when no point is labeled. Values are written "%.12g" a
    line, WRITE_BLOCK lines by one % over a tuple of Python floats."""
    ones = np.nonzero(series.labels)[0] if series.labels is not None else []
    if len(ones) == 0:
        start = end = series.split  # degenerate: no anomaly
    else:
        start, end = int(ones[0]), int(ones[-1])
    fname = f"{stem}_{series.split}_{start}_{end}.txt"
    path = os.path.join(out_dir, fname)
    values = series.values
    with open(path, "w") as f:
        for a in range(0, len(values), WRITE_BLOCK):
            block = values[a:a + WRITE_BLOCK].tolist()
            f.write("%.12g\n" * len(block) % tuple(block))
    return path
