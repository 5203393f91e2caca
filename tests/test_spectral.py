import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopad.model import CoopConfig, CoopModel
from coopad.spectral import (frame_len_for_period, stft_apply, stft_matrix,
                             stft_patch_kernel, stft_proj_grad)


def features(kernel, x, P):
    """Per-patch STFT features (N, B, P*2K) through the framed path the
    model runs: stft_apply with an identity projection, whose product with
    the kernel is the kernel itself."""
    return stft_apply(kernel, x, P, np.eye(kernel.shape[1]))


def stft(x, K, frame_len):
    """Spectrogram (2K, T) of one window through the framed path the model
    runs, with one frame per patch (P = 1)."""
    x = np.asarray(x, dtype=np.float64)
    return features(stft_patch_kernel(1, frame_len, K), x[None, :], 1)[:, 0, :].T


def dense_patch_features(x, P, frame_len, K):
    """Per-patch features (N, B, P*2K) of windows x (B, T): the dense
    operator's spectrogram cut into patches, feature p*2K + k of patch n
    being bin k of frame n*P + p."""
    B, T = x.shape
    spec = (x @ stft_matrix(T, frame_len, K).T).reshape(B, 2 * K, T // P, P)
    return spec.transpose(2, 0, 3, 1).reshape(T // P, B, P * 2 * K)


def copied_frames_product(x, P, matrix):
    """Reference for the framed product's bytes: the patch windows of x
    copied patch-major, then one (N*B, P + frame_len - 1) matmul with
    matrix (P + frame_len - 1, D). A one-row x takes one product per patch,
    as the framed product does: BLAS takes a one-row product through gemv,
    which rounds differently from a gemm."""
    B, T = x.shape
    width = matrix.shape[0]
    frame_len = width - P + 1
    n = T // P
    xpad = np.pad(x, ((0, 0), (frame_len // 2, frame_len // 2)), mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(xpad, width, axis=1)[:, :n * P:P]
    frames = np.ascontiguousarray(frames.transpose(1, 0, 2))
    if B == 1:
        return frames @ matrix
    return (frames.reshape(n * B, width) @ matrix).reshape(n, B, -1)


def naive_frame_dft(x, center, frame_len, K, window, T):
    """Independent oracle: gather each frame by explicit reflection, then
    compute each bin by a direct complex exponential sum."""
    half = frame_len // 2
    frame = np.empty(frame_len)
    for j in range(frame_len):
        idx = center - half + j
        while idx < 0 or idx >= T:
            if idx < 0:
                idx = -idx
            if idx >= T:
                idx = 2 * T - 2 - idx
        frame[j] = x[idx]
    frame = frame * window
    out = np.empty(2 * K)
    for k in range(K):
        acc = 0.0 + 0.0j
        for m in range(frame_len):
            acc += frame[m] * np.exp(-2j * np.pi * k * m / frame_len)
        out[k], out[K + k] = acc.real, acc.imag
    return out


def oracle_stft_matrix(T, frame_len, K):
    """The operator built entry by entry: a Python loop over frames t,
    offsets j and bins k, reflecting each source index on its own."""
    w = np.ones(frame_len)  # boxcar
    m = np.arange(frame_len)
    angles = 2.0 * np.pi * np.outer(np.arange(K), m) / frame_len
    cosw = np.cos(angles) * w
    sinw = -np.sin(angles) * w
    M = np.zeros((2 * K * T, T))
    half = frame_len // 2
    for t in range(T):
        for j in range(frame_len):
            src = t - half + j
            while src < 0 or src >= T:
                if src < 0:
                    src = -src
                if src >= T:
                    src = 2 * T - 2 - src
            for k in range(K):
                M[k * T + t, src] += cosw[k, j]
                M[(K + k) * T + t, src] += sinw[k, j]
    return M


class TestFrameLen:
    def test_values(self):
        assert frame_len_for_period(50) == 50
        assert frame_len_for_period(5) == 8     # clamp low
        assert frame_len_for_period(200) == 64  # clamp high
        assert frame_len_for_period(13) == 12   # round-half-to-even

    def test_always_even_in_range(self):
        for p in range(1, 300):
            fl = frame_len_for_period(p)
            assert fl % 2 == 0 and 8 <= fl <= 64


class TestStftMatrix:
    # T == frame_len (every frame reflects at both edges), K == frame_len/2
    # + 1 (the Nyquist bin), odd T, and the frame_len-64 operator of a
    # period-200 window
    @pytest.mark.parametrize("T, frame_len, K", [
        (8, 8, 5), (16, 8, 2), (12, 8, 3), (48, 12, 5), (40, 10, 6),
        (33, 8, 4), (800, 64, 4)])
    def test_bytes_match_loop_oracle(self, T, frame_len, K):
        got = stft_matrix(T, frame_len, K)
        want = oracle_stft_matrix(T, frame_len, K)
        assert got.shape == want.shape == (2 * K * T, T)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bytes_match_loop_oracle_property(self, data):
        frame_len = 2 * data.draw(st.integers(1, 12), label="frame_len/2")
        T = data.draw(st.integers(frame_len, 3 * frame_len), label="T")
        K = data.draw(st.integers(1, frame_len // 2 + 1), label="K")
        assert stft_matrix(T, frame_len, K).tobytes() == \
            oracle_stft_matrix(T, frame_len, K).tobytes()


class TestStft:
    def test_constant_dc_only(self):
        # rectangular window: constant c -> DC bin exactly c*frame_len,
        # every other bin exactly zero
        for c in (1.0, -2.5):
            spec = stft(np.full(32, c), K=4, frame_len=8)
            assert np.allclose(spec[0], c * 8, atol=1e-12)
            assert np.max(np.abs(spec[1:])) < 1e-12

    def test_zero_signal(self):
        spec = stft(np.zeros(32), K=4, frame_len=8)
        assert np.array_equal(spec, np.zeros((8, 32)))

    def test_single_bin_sinusoid(self):
        # cos(2*pi*m/frame_len) puts all energy in bin 1: magnitude fl/2
        # (split between real/imag by the frame phase), other bins zero
        T, fl, K = 128, 16, 5
        x = np.cos(2 * np.pi * np.arange(T) / fl)
        spec = stft(x, K=K, frame_len=fl)
        mid = slice(fl, T - fl)  # away from the reflected edges
        mag1 = np.hypot(spec[1, mid], spec[K + 1, mid])
        assert np.allclose(mag1, fl / 2.0, atol=1e-9)
        others = [0, 2, 3, 4, K, K + 2, K + 3, K + 4]
        assert np.max(np.abs(spec[others, mid])) < 1e-9

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(0)
        T, fl, K = 48, 12, 5
        x = rng.normal(size=T)
        w = np.ones(fl)  # boxcar
        spec = stft(x, K=K, frame_len=fl)
        for t in range(T):
            ref = naive_frame_dft(x, t, fl, K, w, T)
            col = np.concatenate([spec[:K, t], spec[K:, t]])
            assert np.allclose(col, ref, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=40), rng.normal(size=40)
        sx = stft(x, 3, 8)
        sy = stft(y, 3, 8)
        sxy = stft(2.0 * x - 0.5 * y, 3, 8)
        assert np.allclose(sxy, 2.0 * sx - 0.5 * sy, atol=1e-12)

    def test_locality(self):
        # perturbing one sample only changes frames within half a frame
        rng = np.random.default_rng(2)
        T, fl = 64, 8
        x = rng.normal(size=T)
        y = x.copy()
        y[30] += 1.0
        d = np.abs(stft(y, 4, fl) - stft(x, 4, fl)).max(axis=0)
        assert np.all(d[: 30 - fl // 2] == 0.0)
        assert np.all(d[30 + fl // 2 + 1:] == 0.0)
        assert d[30] > 0.0

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        xb = rng.normal(size=(3, 32))
        kernel = stft_patch_kernel(4, 8, 4)
        batched = features(kernel, xb, 4)
        for b in range(3):
            # BLAS may block a one-row product differently
            assert np.allclose(batched[:, b], features(kernel, xb[b:b + 1], 4)[:, 0],
                               atol=1e-12)

    def test_validation(self):
        # the STFT functions do not check their shapes: CoopConfig refuses
        # every shape they cannot take, each error naming its field
        with pytest.raises(ValueError, match="frame_len"):
            CoopConfig(T=32, P=4, frame_len=7, K=3)  # odd frame
        with pytest.raises(ValueError, match="K=6"):
            CoopConfig(T=32, P=4, frame_len=8, K=6)  # K too large
        with pytest.raises(ValueError, match="frame_len"):
            CoopConfig(T=4, P=4, frame_len=8, K=3)  # window shorter than frame
        with pytest.raises(ValueError, match="T=30"):
            CoopConfig(T=30, P=4, frame_len=8, K=3)  # T not a multiple of P
        # the largest shapes it admits (frame_len == T, K == frame_len/2 + 1)
        # run through all three
        c = CoopConfig(T=8, P=4, frame_len=8, K=5)
        assert stft_matrix(c.T, c.frame_len, c.K).shape == (2 * c.K * c.T, c.T)
        kernel = stft_patch_kernel(c.P, c.frame_len, c.K)
        feats = features(kernel, np.zeros((1, c.T)), c.P)
        assert feats.shape == (c.N, 1, c.P * 2 * c.K)


class TestFramedFeatures:
    """The framed features against the dense operator's spectrogram cut into
    patches, and the framed product and its projection gradient against
    products over copied frames."""

    # T == frame_len, frame_len < P, P == 1, K == frame_len/2 + 1, P == T,
    # a single-sample reflection (frame_len 2) and frame_len 64, the largest
    # frame_len_for_period gives
    @pytest.mark.parametrize("T, P, frame_len, K", [
        (8, 4, 8, 5), (16, 8, 8, 2), (32, 16, 8, 4), (48, 1, 12, 7),
        (40, 8, 10, 6), (6, 6, 6, 4), (20, 1, 2, 2), (96, 12, 24, 13),
        (800, 8, 64, 4)])
    def test_matches_dense_operator(self, T, P, frame_len, K):
        x = np.random.default_rng(T + P).normal(size=(3, T))
        got = features(stft_patch_kernel(P, frame_len, K), x, P)
        want = dense_patch_features(x, P, frame_len, K)
        assert got.shape == want.shape == (T // P, 3, P * 2 * K)
        assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_dense_operator_property(self, data):
        frame_len = 2 * data.draw(st.integers(1, 12), label="frame_len/2")
        P = data.draw(st.integers(1, 16), label="P")
        n_min = -(-frame_len // P)  # the fewest patches that reach frame_len
        T = P * data.draw(st.integers(n_min, n_min + 6), label="T/P")
        K = data.draw(st.integers(1, frame_len // 2 + 1), label="K")
        B = data.draw(st.integers(1, 3), label="B")
        x = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed")) \
                     .normal(size=(B, T))
        got = features(stft_patch_kernel(P, frame_len, K), x, P)
        assert np.max(np.abs(got - dense_patch_features(x, P, frame_len, K))) <= 1e-12

    # the windows of periods 38, 50 and 500 at the default patch, at batch
    # sizes that put one, a few and many rows into each per-patch product
    @pytest.mark.parametrize("T, frame_len", [(152, 38), (200, 50), (2000, 64)])
    @pytest.mark.parametrize("B", [1, 2, 3, 141, 256])
    def test_bytes_match_copied_frames(self, T, frame_len, B):
        kernel = stft_patch_kernel(8, frame_len, 4)
        x = np.random.default_rng(T + B).normal(size=(B, T))
        got = features(kernel, x, 8)
        want = copied_frames_product(x, 8, kernel)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    # the windows of periods 50 and 500: the projection is one product of
    # the windows with kernel @ proj.T, the same bytes as over copied
    # frames, and within rounding of projecting the features
    @pytest.mark.parametrize("T, frame_len", [(200, 50), (2000, 64)])
    @pytest.mark.parametrize("B", [1, 2, 3, 256])
    def test_projection_bytes_match_two_step_product(self, T, frame_len, B):
        kernel = stft_patch_kernel(8, frame_len, 4)
        rng = np.random.default_rng(T + B)
        x = rng.normal(size=(B, T))
        proj = rng.uniform(-0.125, 0.125, size=(24, 8 * 2 * 4))  # as w_freq_patch
        got = stft_apply(kernel, x, 8, proj)
        assert got.shape == (T // 8, B, 24)
        assert np.array_equal(got, copied_frames_product(x, 8, kernel @ proj.T))
        two_step = features(kernel, x, 8) @ proj.T
        assert np.max(np.abs(got - two_step)) <= 3e-14 * np.max(np.abs(two_step))

    # the windows of periods 37, 50 and 500: each row of the framed product
    # is the same bytes in a batch of any size from two rows up (a one-row
    # product goes through gemv; CoopModel.forward never runs one at
    # inference)
    @pytest.mark.parametrize("T, frame_len", [(152, 38), (200, 50), (2000, 64)])
    def test_rows_do_not_depend_on_the_batch(self, T, frame_len):
        kernel = stft_patch_kernel(8, frame_len, 4)
        rng = np.random.default_rng(T)
        x = rng.normal(size=(256, T))
        proj = rng.uniform(-0.125, 0.125, size=(24, 8 * 2 * 4))
        full = stft_apply(kernel, x, 8, proj)
        for B in (2, 3, 17, 33, 50, 141, 255):
            assert np.array_equal(stft_apply(kernel, x[:B], 8, proj), full[:, :B]), B

    def test_allocates_only_padded_windows_and_output(self):
        P, frame_len, K, B, T = 8, 64, 4, 64, 2000
        kernel = stft_patch_kernel(P, frame_len, K)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(B, T))
        proj = rng.uniform(-0.125, 0.125, size=(24, P * 2 * K))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = stft_apply(kernel, x, P, proj)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        padded = B * (T + frame_len) * 8
        assert out.nbytes == (T // P) * B * 24 * 8
        assert peak <= out.nbytes + padded + 64 * 1024

    # the windows of periods 50 and 500 (frame_len / 2 > P), and frame_len
    # / 2 == P at both lengths, at batch sizes of one, two and many rows
    @pytest.mark.parametrize("T, frame_len", [(200, 50), (200, 16), (2000, 64),
                                              (2000, 16)])
    @pytest.mark.parametrize("B", [1, 2, 256])
    def test_projection_gradient_is_the_adjoint(self, T, frame_len, B):
        P, K, D = 8, 4, 24
        kernel = stft_patch_kernel(P, frame_len, K)
        rng = np.random.default_rng(T + frame_len + B)
        x = rng.normal(size=(B, T))
        proj = rng.uniform(-0.125, 0.125, size=(D, P * 2 * K))
        d_out = rng.normal(size=(T // P, B, D))
        grad = stft_proj_grad(kernel, x, P, d_out)
        assert grad.shape == proj.shape
        # <d_out, A proj> = <A* d_out, proj>, to the rounding of sums whose
        # terms are bounded by the products of magnitudes
        out = stft_apply(kernel, x, P, proj)
        scale = np.vdot(np.abs(d_out), np.abs(out))
        assert abs(np.vdot(d_out, out) - np.vdot(grad, proj)) <= 1e-14 * scale
        # the gradient of a product with the features, over copied frames
        feats = copied_frames_product(x, P, kernel)
        want = np.einsum("nbh,nbf->hf", d_out, feats)
        assert np.max(np.abs(grad - want)) <= 3e-14 * np.max(np.abs(want))

    def test_kernel_layout(self):
        # column p*2K + k is bin k's weights shifted down by p rows
        P, fl, K = 3, 4, 3
        kernel = stft_patch_kernel(P, fl, K)
        assert kernel.shape == (P + fl - 1, P * 2 * K)
        single = stft_patch_kernel(1, fl, K)  # (fl, 2K): one frame's weights
        for p in range(P):
            block = kernel[:, p * 2 * K:(p + 1) * 2 * K]
            assert np.array_equal(block[p:p + fl], single)
            assert not block[:p].any() and not block[p + fl:].any()


class TestPatching:
    """Patch layout of the features the model's encode path feeds its
    encoders (CoopModel._encode)."""

    @staticmethod
    def encode(x, **cfg):
        model = CoopModel(CoopConfig(**cfg))
        _, _, enc = model._encode(np.atleast_2d(x))
        return enc

    def test_time_patches(self):
        enc = self.encode(np.arange(8.0), T=8, P=4, H=2, K=2, layers=1, frame_len=4)
        out = enc["patches"]  # (N, B, P)
        assert out.shape == (2, 1, 4)
        assert out[0, 0].tolist() == [0, 1, 2, 3]
        assert out[1, 0].tolist() == [4, 5, 6, 7]

    def test_spectrogram_patches_oracle(self):
        # the features the frequency encoder's input is projected from:
        # the framed features with the model's patch kernel against the
        # naive per-frame DFT, cut into patches
        rng = np.random.default_rng(4)
        K, P, fl, T = 3, 4, 8, 12
        xb = rng.normal(size=(2, T))  # 2K=6
        model = CoopModel(CoopConfig(T=T, P=P, H=2, K=K, layers=1, frame_len=fl))
        fpat = features(model.stft_kernel, xb, P)
        assert fpat.shape == (3, 2, 24)
        for b in range(2):
            for j in range(3):  # patch index
                expected = np.concatenate([naive_frame_dft(xb[b], P * j + p, fl, K,
                                                           np.ones(fl), T)
                                           for p in range(P)])
                assert np.allclose(fpat[j, b], expected, atol=1e-9)
