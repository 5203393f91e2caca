"""Evaluation suite: threshold-max F1, AUC-PR, buffered Range-AUC-PR, VUS-PR,
and single-anomaly top-k accuracy.

All metrics use `score >= threshold` semantics: a call ranks the scores
once (a stable descending sort; tied scores flip together), and each metric
sweeps one weighting of the points down that ranking. The range-based
variants weight points near anomaly boundaries with a linear ramp falling
from 1 at the boundary to 0 at distance buffer+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VUS_STEPS = 11        # buffer sizes the VUS-PR trapezoid averages over
TOPK_KS = (1, 3, 5)   # k of the top-k accuracies a report carries
TOPK_RADIUS = 100     # a peak this close to the anomaly range is a hit
PEAK_EXCLUSION = 100  # top-k peaks are more than this far apart


class MetricError(Exception):
    pass


@dataclass
class MetricsReport:
    f1: float
    auc_pr: float
    r_auc_pr: float
    vus_pr: float
    topk: dict  # k -> 0/1, only for single-anomaly datasets

    def to_dict(self, dataset=""):
        d = {"dataset": dataset, "f1": self.f1, "auc_pr": self.auc_pr,
             "r_auc_pr": self.r_auc_pr, "vus_pr": self.vus_pr}
        for k, hit in sorted(self.topk.items()):
            d[f"top{k}"] = hit
        return d


def anomaly_ranges(labels):
    """Maximal runs of 1s as (start, end) inclusive index pairs."""
    labels = np.asarray(labels).astype(bool)
    if labels.ndim != 1:
        raise MetricError("labels must be 1-D")
    diff = np.diff(labels.astype(np.int8))
    starts = list(np.where(diff == 1)[0] + 1)
    ends = list(np.where(diff == -1)[0])
    if labels[0]:
        starts.insert(0, 0)
    if labels[-1]:
        ends.append(len(labels) - 1)
    return list(zip(starts, ends))


def average_anomaly_length(labels):
    ranges = anomaly_ranges(labels)
    if not ranges:
        return 0.0
    return float(np.mean([e - s + 1 for s, e in ranges]))


def _ranked(scores, labels):
    """Validate once and rank once: (float64 labels, the descending stable
    order of the scores, the sorted index that ends each tie group)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise MetricError("scores/labels length mismatch")
    if labels.sum() == 0:
        raise MetricError("no positive labels")
    order = np.argsort(scores, kind="stable")[::-1]
    last = np.append(np.nonzero(np.diff(scores[order]))[0], len(scores) - 1)
    return labels, order, last


def _sweep(ranked, weights):
    """(precision, recall) of `weights` at each threshold of a ranking."""
    _, order, last = ranked
    tp = np.cumsum(weights[order])[last]
    return tp / (last + 1), tp / weights.sum()


def _f1(ranked):
    """Maximum pointwise F1 over all distinct-score thresholds."""
    precision, recall = _sweep(ranked, ranked[0])
    denom = precision + recall
    f1 = np.where(denom > 0, 2.0 * precision * recall / np.maximum(denom, 1e-300), 0.0)
    return float(f1.max())


def _area(ranked, buffer):
    precision, recall = _sweep(ranked, buffered_weights(ranked[0], buffer))
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev) * precision).sum())


def _vus(ranked, max_buffer):
    """(VUS-PR, plain AUC-PR): the sweep's first buffer is exactly 0."""
    if max_buffer <= 0:
        area = _area(ranked, 0.0)
        return area, area
    buffers = np.linspace(0.0, max_buffer, VUS_STEPS)
    values = np.array([_area(ranked, b) for b in buffers])
    area = (np.diff(buffers) * (values[1:] + values[:-1]) / 2.0).sum()
    return float(area / max_buffer), float(values[0])


def auc_pr(scores, labels):
    """Area under the precision-recall curve via step-wise (average-precision)
    summation sum_i (R_i - R_{i-1}) * P_i."""
    return range_auc_pr(scores, labels, buffer=0.0)


def buffered_weights(labels, buffer):
    """Point weights: 1 inside anomaly ranges, linear ramp 1 -> 0 over
    `buffer` points on each side, max over overlapping ranges."""
    w = np.asarray(labels).astype(np.float64)
    if buffer <= 0:
        return w
    n = len(w)
    # ramp[d - 1] is the weight at distance d; it is 0 from ceil(buffer) + 1
    # on, and fmin keeps the whole series for a NaN or infinite buffer
    reach = int(np.fmin(np.ceil(buffer), n))
    ramp = np.maximum(0.0, 1.0 - np.arange(1, reach + 1) / (buffer + 1.0))
    for s, e in anomaly_ranges(w):
        lo, hi = max(0, s - reach), min(n, e + 1 + reach)
        w[lo:s] = np.maximum(w[lo:s], ramp[:s - lo][::-1])
        w[e + 1:hi] = np.maximum(w[e + 1:hi], ramp[:hi - e - 1])
    return w


def range_auc_pr(scores, labels, buffer=None):
    """AUC-PR with ramp-weighted labels; buffer defaults to the average
    anomaly length. buffer=0 reduces exactly to plain AUC-PR."""
    ranked = _ranked(scores, labels)
    if buffer is None:
        buffer = average_anomaly_length(ranked[0])
    return _area(ranked, buffer)


def vus_pr(scores, labels, max_buffer=None):
    """Trapezoidal average of range_auc_pr over buffer in
    linspace(0, max_buffer, VUS_STEPS); max_buffer defaults to twice the
    average anomaly length, and max_buffer <= 0 gives plain AUC-PR."""
    if max_buffer is None:
        max_buffer = 2.0 * average_anomaly_length(labels)
    return _vus(_ranked(scores, labels), max_buffer)[0]


def select_peaks(scores, k):
    """Greedy top k peaks by value, each over PEAK_EXCLUSION from earlier ones."""
    scores = np.asarray(scores, dtype=np.float64)
    masked = scores.copy()
    peaks = []
    for _ in range(k):
        i = int(np.argmax(masked))
        if not np.isfinite(masked[i]):
            break
        peaks.append(i)
        lo = max(0, i - PEAK_EXCLUSION)
        masked[lo:i + PEAK_EXCLUSION + 1] = -np.inf
        if not np.isfinite(masked).any():
            break
    return peaks


def topk_accuracy(scores, anomaly_range, k):
    """1 if any of the top-k select_peaks peaks falls within TOPK_RADIUS
    points of the (single) labeled anomaly range, else 0."""
    start, end = anomaly_range
    for i in select_peaks(scores, k):
        if start - TOPK_RADIUS <= i <= end + TOPK_RADIUS:
            return 1
    return 0


def evaluate(scores, labels):
    """Full report for one dataset from one ranking of the scores; top-k
    (TOPK_KS) only when there is one anomaly."""
    ranked = _ranked(scores, labels)
    mean_length = average_anomaly_length(labels)
    ranges = anomaly_ranges(labels)
    topk = ({k: topk_accuracy(scores, ranges[0], k) for k in TOPK_KS}
            if len(ranges) == 1 else {})
    vus, auc = _vus(ranked, 2.0 * mean_length)
    return MetricsReport(f1=_f1(ranked), auc_pr=auc,
                         r_auc_pr=_area(ranked, mean_length), vus_pr=vus, topk=topk)


def aggregate_reports(reports):
    """Mean per metric over a list of report dicts (Table-style summary)."""
    keys = ["f1", "auc_pr", "r_auc_pr", "vus_pr"] + [f"top{k}" for k in TOPK_KS]
    out = {"datasets": len(reports)}
    for key in keys:
        vals = [r[key] for r in reports if key in r and r[key] is not None]
        if vals:
            out[key] = float(np.mean(vals))
    return out
