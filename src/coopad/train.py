"""Cooperative end-to-end training: distort, forward, BCE + lambda*MSE,
backprop, Adam.

Each batch is cut clean, copied once, and each row of the copy gets at most
one synthetic anomaly in place (outlier exposure); the patches an anomaly
touches are labelled 1, the rest 0. The classifier learns those labels and
the reconstruction learns the clean batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .augment import KINDS, distort
from .data import DataError, make_windows, window_origins
from .numerics import AdamState, adam_step

PROB_CLAMP = 1e-7
GRAD_CLIP = 5.0  # largest global L2 norm of one batch's gradients


class NumericError(Exception):
    pass


@dataclass
class TrainConfig:
    lr: float = 0.002
    epochs: int = 300
    batch: int = 128
    seed: int = 0
    distortion_prob: float = 0.9
    exclude_kinds: tuple = ()

    def __post_init__(self):
        if self.lr <= 0 or self.epochs < 0 or self.batch < 1:
            raise ValueError("lr > 0, epochs >= 0, batch >= 1 required")


@dataclass
class LossBreakdown:
    bce: float
    mse: float
    total: float


@dataclass
class TrainingLog:
    epochs: list = field(default_factory=list)  # rows of (epoch, bce, mse, total, seconds)

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("epoch,bce,mse,total,seconds\n")
            for row in self.epochs:
                f.write("%d,%.10g,%.10g,%.10g,%.4f\n" % row)


def bce_loss(probs, labels):
    """Mean negated binary cross-entropy, probabilities clamped at 1e-7.
    Returns (loss, the clamped probabilities) for the gradient to reuse."""
    a = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    return float(-(y * np.log(a) + (1.0 - y) * np.log(1.0 - a)).mean()), a


def mse_loss(x_r, x_clean):
    """Mean squared error. Returns (loss, the residual x_r - x_clean) for
    the gradient to reuse."""
    resid = np.asarray(x_r) - np.asarray(x_clean)
    return float(np.mean(resid ** 2)), resid


def loss_and_grads(model, x_distorted, x_clean, patch_labels, rng=None):
    """One batch: forward, loss terms, full backward.

    Returns (LossBreakdown, grads).
    """
    result = model.forward(x_distorted, rng=rng, keep_cache=True)
    y = np.asarray(patch_labels, dtype=np.float64).T  # (B, N) in -> (N, B)
    bce, ac = bce_loss(result.probs.combined, y)     # (N, B)
    mse, resid = mse_loss(result.x_r, x_clean)
    lam = model.config.lam
    total = bce + lam * mse
    d_ac = (ac - y) / (ac * (1.0 - ac)) / ac.size
    d_xr = lam * 2.0 * resid / resid.size
    grads = model.backward(result.cache, d_ac, d_xr)
    return LossBreakdown(bce=bce, mse=mse, total=total), grads


def clip_grads(grads, max_norm):
    """Scale all gradients in place by one factor so that their global L2
    norm is at most max_norm (training passes GRAD_CLIP)."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def train_epoch(train_values, period, model, tcfg, adam, rng):
    """One pass over the train region: fresh window phase, shuffled batches,
    one `distort` call per window of the batch's copy, one Adam step per
    batch. A patch is labelled 1 iff the window's distorted interval
    overlaps it. Returns the epoch-mean LossBreakdown."""
    c = model.config
    T, P = c.T, c.P
    kinds = [k for k in KINDS if k not in tcfg.exclude_kinds]
    if len(train_values) < T:
        raise DataError(f"train region ({len(train_values)}) shorter than window T={T}")
    phase = int(rng.integers(0, T)) if len(train_values) > T else 0
    if phase > len(train_values) - T:
        phase = 0
    origins = window_origins(len(train_values), T, stride=T, phase=phase)
    order = rng.permutation(len(origins))
    sums = np.zeros(3)
    nb = 0
    for b in range(0, len(order), tcfg.batch):
        idx = order[b:b + tcfg.batch]
        clean = make_windows(train_values, T, origins[idx]).windows
        distorted = clean.copy()
        labels = np.zeros((len(idx), c.N), dtype=np.int8)
        for j, row in enumerate(distorted):
            event = distort(row, period, rng, tcfg.distortion_prob, kinds)
            if event is not None:
                _, start, end = event
                labels[j, start // P:end // P + 1] = 1
        loss, grads = loss_and_grads(model, distorted, clean, labels, rng=rng)
        if not np.isfinite(loss.total):
            raise NumericError(
                f"non-finite loss (bce={loss.bce}, mse={loss.mse}) "
                f"on batch origins {origins[idx].tolist()}")
        clip_grads(grads, GRAD_CLIP)
        adam_step(model.tensors, grads, adam, tcfg.lr)
        sums += (loss.bce, loss.mse, loss.total)
        nb += 1
    mean = sums / max(nb, 1)
    return LossBreakdown(bce=mean[0], mse=mean[1], total=mean[2])


def fit(train_values, period, model, tcfg):
    """Train for the fixed epoch budget; returns a TrainingLog."""
    rng = np.random.default_rng(tcfg.seed)
    adam = AdamState(model.tensors)
    log = TrainingLog()
    for epoch in range(tcfg.epochs):
        t0 = time.perf_counter()
        loss = train_epoch(train_values, period, model, tcfg, adam, rng)
        log.epochs.append((epoch, loss.bce, loss.mse, loss.total,
                           time.perf_counter() - t0))
    return log
