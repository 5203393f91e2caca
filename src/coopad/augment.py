"""Synthetic anomaly injection for training windows.

One of four distortions (uniform replacement, mirror flip, length scale,
jittering) is applied in place to a random interval of at most one
dominant period of a window; the rest of the window keeps its bytes.
Each distortion maps a segment to a new array of the same length.
"""

from __future__ import annotations

import numpy as np

KINDS = ("uniform_replacement", "mirror_flip", "length_scale", "jittering")

JITTER_VARIANCE = 0.1  # N(0, 0.1 I) noise, sigma = sqrt(0.1)


def uniform_replacement(segment, rng):
    """Replace with a constant drawn uniformly in [min(segment), max(segment)]."""
    lo, hi = float(np.min(segment)), float(np.max(segment))
    return np.full_like(segment, rng.uniform(lo, hi))


def mirror_flip(segment, axis):
    """axis='y': reverse order; axis='x': reflect values around the segment mean."""
    if axis == "y":
        return segment[::-1].copy()
    if axis == "x":
        return 2.0 * float(segment.mean()) - segment
    raise ValueError(f"unknown flip axis {axis!r}")


def length_scale(segment, factor):
    """Resample the segment by `factor` via linear interpolation, then crop
    (factor > 1) or tile (factor < 1) back to the original length."""
    n = len(segment)
    if n == 1:
        return segment.copy()
    m = max(2, int(round(n * factor)))
    src = np.linspace(0.0, n - 1.0, m)
    scaled = np.interp(src, np.arange(n), segment)
    if m >= n:
        return scaled[:n]
    reps = int(np.ceil(n / m))
    return np.tile(scaled, reps)[:n]


def jittering(segment, rng):
    """Add i.i.d. Gaussian noise with variance 0.1."""
    if len(segment) == 0:
        return segment.copy()
    return segment + rng.normal(0.0, np.sqrt(JITTER_VARIANCE), size=len(segment))


def apply_kind(segment, kind, rng):
    """The distorted copy of `segment`; draws any random choice from `rng`."""
    if kind == "uniform_replacement":
        return uniform_replacement(segment, rng)
    if kind == "mirror_flip":
        axis = "x" if rng.random() < 0.5 else "y"
        return mirror_flip(segment, axis)
    if kind == "length_scale":
        factor = 0.5 if rng.random() < 0.5 else 2.0
        return length_scale(segment, factor)
    if kind == "jittering":
        return jittering(segment, rng)
    raise ValueError(f"unknown distortion kind {kind!r}")


def distort(row, period, rng, p_distort, kinds):
    """Distort one window `row` (a writable float64 array) in place.

    With probability 1 - p_distort, or when `kinds` is empty (no draw is
    made then), the row stays clean and the result is None. Otherwise one
    of `kinds` is applied to an interval whose length is uniform in
    [1, period], clamped to the row, and the result is (kind, start, end)
    with `end` inclusive.
    """
    if not kinds or rng.random() >= p_distort:
        return None
    t = len(row)
    kind = kinds[rng.integers(len(kinds))]
    length = int(rng.integers(1, max(2, min(period, t)) + 1))
    length = min(length, t)
    start = int(rng.integers(0, t - length + 1))
    end = start + length - 1
    row[start:end + 1] = apply_kind(row[start:end + 1], kind, rng)
    return kind, start, end
