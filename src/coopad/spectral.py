"""Short-time Fourier features: hop 1, centered, reflect padded, boxcar.

The forward path is framed: `stft_apply` reflect pads each window, cuts it
into one overlapping window per patch and applies the block-Toeplitz kernel
of `stft_patch_kernel`, giving the per-patch features the model's frequency
encoder reads. A window costs O(T * (P + frame_len) * 2K) multiply-adds
this way, against O(2K * T^2) through a dense operator. `stft_matrix` builds
the spectrogram as an explicit (2K*T, T) operator, row (k, t) holding the
DFT weights of bin k for the frame centered at t; the model's backward
pass uses its transpose product as the adjoint, and builds it on its first
backward, so inference never holds it.

The functions take their shapes as `CoopConfig` validated them (frame_len
even and at most T, K at most frame_len/2 + 1, T a multiple of P) and do
not check them again.
"""

from __future__ import annotations

import numpy as np


def frame_len_for_period(period):
    """Frame length tied to the dominant period: nearest even, in [8, 64]."""
    fl = int(round(period / 2.0)) * 2
    return max(8, min(64, fl))


def _dft_weights(frame_len, K):
    """(2K, frame_len) boxcar DFT weights of one frame: cosines of bins
    0..K-1, then the matching negated sines (the imaginary parts)."""
    angles = 2.0 * np.pi * np.outer(np.arange(K), np.arange(frame_len)) / frame_len
    return np.concatenate([np.cos(angles), -np.sin(angles)])


def stft_matrix(T, frame_len, K):
    """Dense (2K*T, T) operator M: (M @ x).reshape(2K, T) is the spectrogram
    of a window x of length T.

    Real parts occupy rows 0..K-1 (row k spans T columns of output), the
    matching imaginary parts rows K..2K-1. Sample j of the frame centered at
    t is x[t - frame_len/2 + j], reflected at the edges without repeating
    the edge sample. Each entry sums its weights in increasing j.
    """
    weights = _dft_weights(frame_len, K)
    cosw, sinw = weights[:K], weights[K:]
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


def stft_patch_kernel(P, frame_len, K):
    """Block-Toeplitz (P + frame_len - 1, P*2K) kernel of the per-patch STFT
    features: column p*2K + k holds the boxcar DFT weights of bin k (real
    parts for k < K, imaginary parts for K <= k < 2K) shifted down by p
    rows, so a patch window's product with it is the spectrogram of the
    patch's P frames, frame-major.
    """
    weights = _dft_weights(frame_len, K)
    kernel = np.zeros((P + frame_len - 1, P, 2 * K))
    shift = np.arange(P)[:, None]
    # frame p's offset j sits at row p + j
    kernel[shift + np.arange(frame_len), shift] = weights.T
    return kernel.reshape(P + frame_len - 1, P * 2 * K)


def stft_apply(kernel, x, P):
    """Per-patch STFT features (N, B, P*2K) of windows x (B, T) from a
    stft_patch_kernel(P, frame_len, K).

    Feature p*2K + k of patch n is bin k of the frame centered at n*P + p,
    the spectrogram stft_matrix gives, cut into patches. x is reflect padded
    by frame_len/2 on each side and cut into N patch windows of
    P + frame_len - 1 samples at stride P; one (N*B, P + frame_len - 1)
    matmul applies the kernel.
    """
    x = np.asarray(x, dtype=np.float64)
    B, T = x.shape
    width = kernel.shape[0]
    frame_len = width - P + 1
    n = T // P
    xpad = np.pad(x, ((0, 0), (frame_len // 2, frame_len // 2)), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(xpad, width, axis=1)[:, :n * P:P]
    # one copy, patch-major, so the product is already (N, B, P*2K) contiguous
    frames = np.ascontiguousarray(frames.transpose(1, 0, 2)).reshape(n * B, width)
    return (frames @ kernel).reshape(n, B, -1)
