"""Short-time Fourier features: hop 1, centered, reflect padded, boxcar.

The STFT is materialized as an explicit (2K*T, T) linear operator: row
(k, t) holds the DFT weights of bin k for the frame centered at t. This
keeps the transform trivially verifiable against a naive per-frame DFT and
makes the backward pass a plain transpose product. The operator is built
with one scatter-add per frame offset, no Python loop over rows. Cutting
the spectrogram into per-patch features is part of the model's encode path
(`CoopModel._encode`), not of this module.
"""

from __future__ import annotations

import numpy as np


def frame_len_for_period(period):
    """Frame length tied to the dominant period: nearest even, in [8, 64]."""
    fl = int(round(period / 2.0)) * 2
    return max(8, min(64, fl))


def stft_matrix(T, frame_len, K):
    """Dense (2K*T, T) operator M: (M @ x).reshape(2K, T) is the spectrogram
    of a window x of length T.

    Real parts occupy rows 0..K-1 (row k spans T columns of output), the
    matching imaginary parts rows K..2K-1. Sample j of the frame centered at
    t is x[t - frame_len/2 + j], reflected at the edges without repeating
    the edge sample. Each entry sums its weights in increasing j.
    """
    if frame_len % 2 != 0:
        raise ValueError("frame_len must be even")
    if K > frame_len // 2 + 1:
        raise ValueError(f"K={K} exceeds frame_len//2+1={frame_len // 2 + 1}")
    if T < frame_len:
        raise ValueError(f"window length {T} shorter than frame_len {frame_len}")
    m = np.arange(frame_len)
    angles = 2.0 * np.pi * np.outer(np.arange(K), m) / frame_len
    cosw = np.cos(angles)  # (K, frame_len); the window is boxcar
    sinw = -np.sin(angles)
    # src[t + j] is the reflected source sample of frame t's offset j
    src = np.pad(np.arange(T), frame_len // 2, mode="reflect")
    rows = np.arange(T)
    M = np.zeros((2 * K * T, T))
    M3 = M.reshape(2 * K, T, T)  # (real|imag bin, frame, source sample) view
    # within one offset j every (row, column) pair is distinct, so each
    # fancy-indexed += adds one term per entry
    for j in range(frame_len):
        cols = src[j:j + T]
        M3[:K, rows, cols] += cosw[:, j, None]
        M3[K:, rows, cols] += sinw[:, j, None]
    return M


def stft_apply(matrix, x, K):
    """Apply a prebuilt operator to windows x (B, T); returns (B, 2K, T)."""
    x = np.asarray(x, dtype=np.float64)
    return (x @ matrix.T).reshape(x.shape[0], 2 * K, x.shape[1])
