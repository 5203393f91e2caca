"""Synthetic anomaly injection for training windows.

One of four distortions (uniform replacement, mirror flip, length scale,
jittering) is applied to a random interval of at most one dominant period;
the untouched remainder of the window is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("uniform_replacement", "mirror_flip", "length_scale", "jittering")

JITTER_VARIANCE = 0.1  # N(0, 0.1 I) noise, sigma = sqrt(0.1)


@dataclass
class DistortionEvent:
    kind: str
    start: int
    end: int  # inclusive
    params: dict


@dataclass
class AugmentedWindow:
    distorted: np.ndarray
    point_mask: np.ndarray  # 1 on [start, end] for kind != none
    patch_labels: np.ndarray  # 1 iff the patch overlaps the mask
    event: DistortionEvent | None


def uniform_replacement(segment, rng):
    """Replace with a constant drawn uniformly in [min(segment), max(segment)]."""
    lo, hi = float(np.min(segment)), float(np.max(segment))
    value = rng.uniform(lo, hi)
    return np.full_like(segment, value), {"value": value}


def mirror_flip(segment, axis):
    """axis='y': reverse order; axis='x': reflect values around the segment mean."""
    if axis == "y":
        return segment[::-1].copy(), {"axis": "y"}
    if axis == "x":
        mean = float(segment.mean())
        return 2.0 * mean - segment, {"axis": "x", "mean": mean}
    raise ValueError(f"unknown flip axis {axis!r}")


def length_scale(segment, factor):
    """Resample the segment by `factor` via linear interpolation, then crop
    (factor > 1) or tile (factor < 1) back to the original length."""
    n = len(segment)
    if n == 1:
        return segment.copy(), {"factor": factor}
    m = max(2, int(round(n * factor)))
    src = np.linspace(0.0, n - 1.0, m)
    scaled = np.interp(src, np.arange(n), segment)
    if m >= n:
        out = scaled[:n]
    else:
        reps = int(np.ceil(n / m))
        out = np.tile(scaled, reps)[:n]
    return out, {"factor": factor}


def jittering(segment, rng):
    """Add i.i.d. Gaussian noise with variance 0.1."""
    if len(segment) == 0:
        return segment.copy(), {}
    noise = rng.normal(0.0, np.sqrt(JITTER_VARIANCE), size=len(segment))
    return segment + noise, {}


def apply_kind(segment, kind, rng):
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


def patch_labels_from_mask(point_mask, patch_len):
    """A patch is anomalous iff any of its points is masked."""
    n = len(point_mask) // patch_len
    return (point_mask[: n * patch_len].reshape(n, patch_len).max(axis=1)).astype(np.int8)


def distort(window, period, patch_len, rng, p_distort=0.9, exclude=()):
    """Inject one randomly chosen distortion into a window.

    With probability 1 - p_distort the window is left clean (kind none).
    Interval length is uniform in [1, period], clamped to the window.
    """
    window = np.asarray(window, dtype=np.float64)
    t = len(window)
    point_mask = np.zeros(t, dtype=np.int8)
    kinds = [k for k in KINDS if k not in exclude]
    if not kinds or rng.random() >= p_distort:
        return AugmentedWindow(
            distorted=window.copy(), point_mask=point_mask,
            patch_labels=patch_labels_from_mask(point_mask, patch_len), event=None)
    kind = kinds[rng.integers(len(kinds))]
    length = int(rng.integers(1, max(2, min(period, t)) + 1))
    length = min(length, t)
    start = int(rng.integers(0, t - length + 1))
    end = start + length - 1
    distorted = window.copy()
    segment, params = apply_kind(window[start:end + 1], kind, rng)
    distorted[start:end + 1] = segment
    point_mask[start:end + 1] = 1
    event = DistortionEvent(kind=kind, start=start, end=end, params=params)
    return AugmentedWindow(
        distorted=distorted, point_mask=point_mask,
        patch_labels=patch_labels_from_mask(point_mask, patch_len), event=event)
