"""Inference: per-window joint scores, stitching, moving-average smoothing."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .data import (_CHUNK_BYTES, DataError, make_windows, open_text,
                   window_origins)

BATCH = 256  # windows per forward pass in detect
CSV_BLOCK = 8192  # rows write_scores_csv formats at a time


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


def stitch(window_scores, origins, total, coverage):
    """Add one batch's window scores (B, T) into detect's running per-point
    totals and coverage counts, in window order: the additions stitching
    every window at once makes, without holding every window's scores."""
    T = window_scores.shape[1]
    for ws, o in zip(window_scores, origins):
        total[o:o + T] += ws
        coverage[o:o + T] += 1


def smooth(scores, w):
    """Centered moving average of odd width w, shrunk at the boundaries.

    Every point is a difference of two prefix sums over its window. The
    prefix sums and the output are the only series-sized arrays (16 bytes a
    point); only the at most 2 * (w // 2) boundary points, whose windows are
    shrunk, are gathered by index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if w <= 1:
        return scores.copy()
    if w % 2 == 0:
        w += 1
    n = len(scores)
    half = min(w // 2, n)  # a wider window spans the whole series from every point
    csum = np.empty(n + 1)
    csum[0] = 0.0
    np.cumsum(scores, out=csum[1:])
    out = np.empty(n)
    if n > 2 * half:  # the points whose whole window lies inside the series
        interior = out[half:n - half]
        np.subtract(csum[w:], csum[:n + 1 - w], out=interior)
        interior /= w
    edge = np.r_[0:min(half, n), max(n - half, half):n]
    lo = np.maximum(edge - half, 0)
    hi = np.minimum(edge + half + 1, n)
    out[edge] = (csum[hi] - csum[lo]) / (hi - lo)
    return out


def detect(test_values, model, scoring=None):
    """Score a test region with a trained model.

    Windows slide at stride T/4 (right-aligned final window) so every point
    is scored at several window phases; overlapping scores are averaged,
    which suppresses the variance a single window placement leaves behind.
    On the synthetic fixture T/8 scores no better and T/2 clearly worse, so
    the stride is fixed. A centered moving average of the config's
    smooth_window width (P when that is 0) follows; `smooth` rounds an even
    width up to odd, so a config made by CoopConfig.for_period smooths over
    period + 1 points for an even period and period + 2 for an odd one.
    Windows are cut, scored and stitched BATCH (a constant) at a time, so
    memory is the result plus one batch's forward pass at any length; the
    scores are byte-reproducible, and in the default configuration the
    same bytes for any BATCH. A value that overflows, such as a test
    value beyond float32's range (~3.4e38) in the float32 recurrences,
    raises FloatingPointError instead of scoring NaN.
    """
    c = model.config
    if scoring is None:
        scoring = c.scoring
    n = len(test_values)
    origins = window_origins(n, c.T, stride=max(1, c.T // 4))
    total = np.zeros(n)
    coverage = np.zeros(n, dtype=np.uint8)  # at most T/stride + 2 windows a point
    with np.errstate(over="raise", invalid="raise"):
        for start in range(0, len(origins), BATCH):
            wb = make_windows(test_values, c.T, origins[start:start + BATCH])
            window_scores = pointwise_scores(wb.windows, model.forward(wb.windows),
                                             scoring)
            stitch(window_scores, wb.origins, total, coverage)
    total /= coverage  # window_origins covers every point
    smooth_width = c.smooth_window if c.smooth_window > 0 else c.P
    return ScoreSeries(scores=total, smoothed=smooth(total, smooth_width),
                       coverage=coverage)


def write_scores_csv(path, series):
    """Write `index,score,smoothed` rows, "%d,%.10g,%.10g" each. Rows are
    formatted CSV_BLOCK at a time, by one % over a flat list of Python
    numbers, which bounds the memory the formatting takes."""
    n = len(series.scores)
    with open(path, "w") as f:
        f.write("index,score,smoothed\n")
        for a in range(0, n, CSV_BLOCK):
            b = min(a + CSV_BLOCK, n)
            flat = [None] * (3 * (b - a))
            flat[0::3] = range(a, b)
            flat[1::3] = series.scores[a:b].tolist()
            flat[2::3] = series.smoothed[a:b].tolist()
            f.write("%d,%.10g,%.10g\n" * (b - a) % tuple(flat))


def _score_rows(chunk, lineno, path):
    """(scores, smoothed) float64 of `chunk`, the scores CSV text of whole
    lines that follow line `lineno`, parsed in one pass; every field, the
    index too, must be a number. When that fails, a per-line pass finds the
    first bad line and raises DataError naming it."""
    text = chunk if chunk.endswith("\n") else chunk + "\n"
    n = text.count("\n")
    raw = np.frombuffer(text.encode(), dtype=np.uint8)
    try:
        if raw[(raw == ord(",")) | (raw == ord("\n"))].tobytes() != b",,\n" * n:
            raise ValueError("a line without two commas")
        fields = text.replace("\n", ",").split(",")
        rows = np.fromiter(map(float, fields), np.float64, 3 * n).reshape(n, 3)
        return rows[:, 1], rows[:, 2]
    except ValueError:
        for i, line in enumerate(io.StringIO(chunk), start=lineno + 1):
            parts = line.split(",")
            try:
                if len(parts) != 3:
                    raise ValueError(f"{len(parts)} fields, expected 3")
                for part in parts:
                    float(part)
            except ValueError as e:
                raise DataError(f"{path}: line {i}: {e}") from None
        raise


def read_scores_csv(path):
    """Read back (scores, smoothed) as write_scores_csv wrote them, in chunks
    of whole lines of about _CHUNK_BYTES. A file that is not UTF-8, a wrong
    header, a row without three fields or a value that is not a number
    raises DataError naming the file (and the 1-based line)."""
    scores, smoothed, lineno = [np.empty(0)], [np.empty(0)], 1
    with open_text(path, path) as f:
        if not f.readline().startswith("index,"):
            raise DataError(f"{path}: line 1: unexpected scores header")
        while chunk := f.read(_CHUNK_BYTES) + f.readline():
            chunk_scores, chunk_smoothed = _score_rows(chunk, lineno, path)
            scores.append(chunk_scores)
            smoothed.append(chunk_smoothed)
            lineno += chunk.count("\n")
    return np.concatenate(scores), np.concatenate(smoothed)
