"""Short-time Fourier features (hop 1, centered, reflect padded).

The STFT is materialized as an explicit (2K*T, T) linear operator: row
(k, t) holds the windowed DFT weights of bin k for the frame centered at t.
This keeps the transform trivially verifiable against a naive per-frame DFT
and makes the backward pass a plain transpose product. Cutting the
spectrogram into per-patch features is part of the model's encode path
(`CoopModel._encode`), not of this module.
"""

from __future__ import annotations

import numpy as np


def analysis_window(frame_len, kind="boxcar"):
    """Analysis window. Default is rectangular so a constant input excites
    only the DC bin exactly; 'hann' trades that for lower leakage."""
    if kind == "boxcar":
        return np.ones(frame_len)
    if kind == "hann":
        m = np.arange(frame_len)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * m / frame_len)
    raise ValueError(f"unknown window kind {kind!r}")


def frame_len_for_period(period, lo=8, hi=64):
    """Frame length tied to the dominant period: nearest even, clamped."""
    fl = int(round(period / 2.0)) * 2
    return max(lo, min(hi, fl))


def reflect_index(idx, n):
    """Map an out-of-range index into [0, n) by (non-edge-repeating) reflection."""
    while idx < 0 or idx >= n:
        if idx < 0:
            idx = -idx
        if idx >= n:
            idx = 2 * n - 2 - idx
    return idx


def stft_matrix(T, frame_len, K, window_kind="boxcar"):
    """Dense operator M with (M @ x).reshape(2K, T) == stft(x).

    Real parts occupy rows 0..K-1 (row k spans T columns of output), the
    matching imaginary parts rows K..2K-1.
    """
    if frame_len % 2 != 0:
        raise ValueError("frame_len must be even")
    if K > frame_len // 2 + 1:
        raise ValueError(f"K={K} exceeds frame_len//2+1={frame_len // 2 + 1}")
    if T < frame_len:
        raise ValueError(f"window length {T} shorter than frame_len {frame_len}")
    w = analysis_window(frame_len, window_kind)
    m = np.arange(frame_len)
    angles = 2.0 * np.pi * np.outer(np.arange(K), m) / frame_len
    cosw = np.cos(angles) * w  # (K, frame_len)
    sinw = -np.sin(angles) * w
    M = np.zeros((2 * K * T, T))
    half = frame_len // 2
    for t in range(T):
        for j in range(frame_len):
            src = reflect_index(t - half + j, T)
            for k in range(K):
                M[k * T + t, src] += cosw[k, j]
                M[(K + k) * T + t, src] += sinw[k, j]
    return M


def stft_apply(matrix, x, K):
    """Apply a prebuilt operator to x of shape (T,) or (B, T)."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[-1]
    if x.ndim == 1:
        return (matrix @ x).reshape(2 * K, T)
    return (x @ matrix.T).reshape(x.shape[0], 2 * K, T)


def stft(window_values, K, frame_len, window_kind="boxcar"):
    """Spectrogram of a single window, shape (2K, T)."""
    window_values = np.asarray(window_values, dtype=np.float64)
    M = stft_matrix(len(window_values), frame_len, K, window_kind)
    return stft_apply(M, window_values, K)
