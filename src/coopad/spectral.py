"""Short-time Fourier features: hop 1, centered, reflect padded, boxcar.

The frequency branch is framed: `_patch_windows` reflect pads each window
and views it as one overlapping window of P + frame_len - 1 samples per
patch (a strided view, never copied). The per-patch STFT features are
those windows times the block-Toeplitz kernel of `stft_patch_kernel`, and
the model's frequency encoder reads them through its projection, so
`stft_apply` folds the two into one (P + frame_len - 1, D) matrix and
takes one product with the windows; `stft_proj_grad`, the projection's
gradient, goes back through the same windows. Neither forms the (N, B,
P*2K) features. A window costs O(T/P * (P + frame_len) * D) multiply-adds
either way, against O(2K * T^2) through a dense operator.
`stft_matrix` builds the spectrogram as an explicit (2K*T, T) operator,
row (k, t) holding the DFT weights of bin k for the frame centered at t;
the model's backward pass uses its transpose product as the adjoint, and
builds it on its first backward, so inference never holds it.

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


def _patch_windows(x, P, width):
    """The N patch windows (N, B, width) of windows x (B, T), one window of
    `width` = P + frame_len - 1 samples at every multiple of P of x reflect
    padded by frame_len / 2 on each side, as a strided view."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[1]
    half = (width - P + 1) // 2  # frame_len / 2
    xpad = np.pad(x, ((0, 0), (half, half)), mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(xpad, width, axis=1)[:, :T:P]
    return windows.transpose(1, 0, 2)


def stft_apply(kernel, x, P, proj):
    """The frequency encoder's input (N, B, D) of windows x (B, T): the
    per-patch STFT features projected by proj (D, P*2K), taken as one
    product of the patch windows with kernel @ proj.T, so the features
    are never formed. `kernel` is a stft_patch_kernel(P, frame_len, K);
    feature p*2K + k of patch n is bin k of the frame centered at n*P + p,
    the spectrogram stft_matrix gives, cut into patches. Besides its
    output the call allocates only the padded windows."""
    windows = _patch_windows(x, P, kernel.shape[0])
    return np.matmul(windows, kernel @ proj.T)


def stft_proj_grad(kernel, x, P, d_out):
    """Gradient (D, P*2K) w.r.t. proj of <d_out, stft_apply(kernel, x, P,
    proj)> for d_out (N, B, D): (sum_n d_out[n].T @ windows[n]) @ kernel,
    through the same patch windows, so the features are never formed."""
    windows = _patch_windows(x, P, kernel.shape[0])
    return np.matmul(d_out.transpose(0, 2, 1), windows).sum(axis=0) @ kernel
