"""Inference: per-window joint scores, stitching, moving-average smoothing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import make_windows


@dataclass
class ScoreSeries:
    scores: np.ndarray
    smoothed: np.ndarray
    coverage: np.ndarray


def pointwise_scores(x_windows, result, scoring="joint"):
    """Per-point scores (B, T): the patch probability broadcast over its
    points plus the absolute reconstruction error; ablations drop a term."""
    B, T = x_windows.shape
    n = result.probs.combined.shape[0]
    p = T // n
    err = np.abs(x_windows - result.x_r)
    if scoring == "joint":
        return np.repeat(result.probs.combined.T, p, axis=1) + err
    if scoring == "recon_only":
        return err
    if scoring == "class_only":
        return np.repeat(result.probs.fused.T, p, axis=1)
    raise ValueError(f"unknown scoring mode {scoring!r}")


def stitch(window_scores, origins, length):
    """Average overlapping window scores into one series of `length`."""
    total = np.zeros(length)
    coverage = np.zeros(length, dtype=np.int64)
    T = window_scores.shape[1]
    for ws, o in zip(window_scores, origins):
        total[o:o + T] += ws
        coverage[o:o + T] += 1
    if (coverage == 0).any():
        raise ValueError("stitching left uncovered points")
    return total / coverage, coverage


def smooth(scores, w):
    """Centered moving average of odd width w, shrunk at the boundaries."""
    scores = np.asarray(scores, dtype=np.float64)
    if w <= 1:
        return scores.copy()
    if w % 2 == 0:
        w += 1
    half = w // 2
    csum = np.concatenate([[0.0], np.cumsum(scores)])
    n = len(scores)
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def detect(test_values, model, scoring=None, batch=256):
    """Score a test region with a trained model.

    Windows slide at stride T/4 (right-aligned final window) so every point
    is scored at several window phases; overlapping scores are averaged,
    which suppresses the variance a single window placement leaves behind.
    On the synthetic fixture T/8 scores no better and T/2 clearly worse, so
    the stride is fixed. A centered moving average of the config's
    smooth_window width (P when that is 0; one dominant period plus one for
    a config made by CoopConfig.for_period) follows. `batch` windows go
    through the model at a time; the scores do not depend on it.
    """
    c = model.config
    if scoring is None:
        scoring = c.scoring
    wb = make_windows(test_values, c.T, stride=max(1, c.T // 4))
    pieces = []
    for start in range(0, len(wb.windows), batch):
        xb = wb.windows[start:start + batch]
        result = model.forward(xb)
        pieces.append(pointwise_scores(xb, result, scoring))
    all_scores = np.concatenate(pieces, axis=0)
    stitched, coverage = stitch(all_scores, wb.origins, len(test_values))
    smooth_width = c.smooth_window if c.smooth_window > 0 else c.P
    return ScoreSeries(scores=stitched, smoothed=smooth(stitched, smooth_width),
                       coverage=coverage)


def write_scores_csv(path, series):
    with open(path, "w") as f:
        f.write("index,score,smoothed\n")
        for i, (s, sm) in enumerate(zip(series.scores, series.smoothed)):
            f.write("%d,%.10g,%.10g\n" % (i, s, sm))


def read_scores_csv(path):
    scores, smoothed = [], []
    with open(path) as f:
        header = f.readline()
        if not header.startswith("index,"):
            raise ValueError(f"{path}: unexpected scores header")
        for line in f:
            parts = line.strip().split(",")
            if len(parts) != 3:
                continue
            scores.append(float(parts[1]))
            smoothed.append(float(parts[2]))
    return np.asarray(scores), np.asarray(smoothed)
