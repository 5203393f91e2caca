"""Evaluation suite: threshold-max F1, AUC-PR, buffered Range-AUC-PR, VUS-PR,
and single-anomaly top-k accuracy.

All metrics use `score >= threshold` semantics, sweeping the distinct score
values in descending order; tied scores flip together. The range-based
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


def _threshold_sweep(scores, weights):
    """Cumulative weighted TP and prediction counts at each distinct score
    threshold (descending). Returns (tp, npred) arrays per threshold."""
    order = np.argsort(scores, kind="stable")[::-1]
    s_sorted = scores[order]
    w_sorted = weights[order]
    cum_tp = np.cumsum(w_sorted)
    counts = np.arange(1, len(scores) + 1)
    # last index of each tie group = threshold boundary
    boundary = np.nonzero(np.diff(s_sorted))[0]
    last = np.concatenate([boundary, [len(scores) - 1]])
    return cum_tp[last], counts[last]


def standard_f1(scores, labels):
    """Maximum pointwise F1 over all distinct-score thresholds."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise MetricError("scores/labels length mismatch")
    pos = labels.sum()
    if pos == 0:
        raise MetricError("no positive labels; F1 undefined")
    tp, npred = _threshold_sweep(scores, labels)
    precision = tp / npred
    recall = tp / pos
    denom = precision + recall
    f1 = np.where(denom > 0, 2.0 * precision * recall / np.maximum(denom, 1e-300), 0.0)
    return float(f1.max())


def auc_pr(scores, labels):
    """Area under the precision-recall curve via step-wise (average-precision)
    summation sum_i (R_i - R_{i-1}) * P_i."""
    return range_auc_pr(scores, labels, buffer=0.0)


def buffered_weights(labels, buffer):
    """Point weights: 1 inside anomaly ranges, linear ramp 1 -> 0 over
    `buffer` points on each side, max over overlapping ranges."""
    labels = np.asarray(labels).astype(np.float64)
    w = labels.copy()
    if buffer <= 0:
        return w
    n = len(labels)
    idx = np.arange(n, dtype=np.float64)
    for s, e in anomaly_ranges(labels):
        left = np.maximum(0.0, 1.0 - (s - idx[:s]) / (buffer + 1.0))
        w[:s] = np.maximum(w[:s], left)
        right = np.maximum(0.0, 1.0 - (idx[e + 1:] - e) / (buffer + 1.0))
        w[e + 1:] = np.maximum(w[e + 1:], right)
    return w


def range_auc_pr(scores, labels, buffer=None):
    """AUC-PR with ramp-weighted labels; buffer defaults to the average
    anomaly length. buffer=0 reduces exactly to plain AUC-PR."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise MetricError("scores/labels length mismatch")
    if labels.sum() == 0:
        raise MetricError("no positive labels")
    if buffer is None:
        buffer = average_anomaly_length(labels)
    w = buffered_weights(labels, buffer)
    tp, npred = _threshold_sweep(scores, w)
    total = w.sum()
    precision = tp / npred
    recall = tp / total
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev) * precision).sum())


def vus_pr(scores, labels, max_buffer=None):
    """Trapezoidal average of range_auc_pr over buffer in
    linspace(0, max_buffer, VUS_STEPS); max_buffer defaults to twice the
    average anomaly length, and max_buffer <= 0 gives plain AUC-PR."""
    if max_buffer is None:
        max_buffer = 2.0 * average_anomaly_length(labels)
    if max_buffer <= 0:
        return range_auc_pr(scores, labels, buffer=0.0)
    buffers = np.linspace(0.0, max_buffer, VUS_STEPS)
    values = np.array([range_auc_pr(scores, labels, buffer=b) for b in buffers])
    area = (np.diff(buffers) * (values[1:] + values[:-1]) / 2.0).sum()
    return float(area / max_buffer)


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
    """Full report for one dataset; top-k (TOPK_KS) only when there is one anomaly."""
    ranges = anomaly_ranges(labels)
    topk = {}
    if len(ranges) == 1:
        for k in TOPK_KS:
            topk[k] = topk_accuracy(scores, ranges[0], k)
    return MetricsReport(
        f1=standard_f1(scores, labels),
        auc_pr=auc_pr(scores, labels),
        r_auc_pr=range_auc_pr(scores, labels),
        vus_pr=vus_pr(scores, labels),
        topk=topk,
    )


def aggregate_reports(reports):
    """Mean per metric over a list of report dicts (Table-style summary)."""
    keys = ["f1", "auc_pr", "r_auc_pr", "vus_pr"] + [f"top{k}" for k in TOPK_KS]
    out = {"datasets": len(reports)}
    for key in keys:
        vals = [r[key] for r in reports if key in r and r[key] is not None]
        if vals:
            out[key] = float(np.mean(vals))
    return out
