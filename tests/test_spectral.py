import numpy as np
import pytest

from coopad.model import CoopConfig, CoopModel
from coopad.spectral import (analysis_window, frame_len_for_period,
                             reflect_index, stft, stft_apply, stft_matrix)


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


class TestAnalysisWindow:
    def test_boxcar(self):
        assert analysis_window(8).tolist() == [1.0] * 8

    def test_hann_endpoints_and_symmetry(self):
        w = analysis_window(8, "hann")
        assert w[0] == 0.0
        assert np.isclose(w[4], 1.0, atol=1e-12)
        assert np.allclose(w[1:], w[1:][::-1], atol=1e-12)

    def test_unknown(self):
        with pytest.raises(ValueError):
            analysis_window(8, "blackman")


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


class TestReflectIndex:
    def test_in_range(self):
        assert reflect_index(3, 10) == 3

    def test_left(self):
        assert reflect_index(-1, 10) == 1
        assert reflect_index(-3, 10) == 3

    def test_right(self):
        assert reflect_index(10, 10) == 8
        assert reflect_index(12, 10) == 6

    def test_matches_numpy_pad(self):
        n = 7
        padded = np.pad(np.arange(n), (n - 1, n - 1), mode="reflect")
        for idx in range(-(n - 1), 2 * n - 1):
            assert padded[idx + n - 1] == reflect_index(idx, n)


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
        for kind in ("boxcar", "hann"):
            T, fl, K = 48, 12, 5
            x = rng.normal(size=T)
            w = analysis_window(fl, kind)
            spec = stft(x, K=K, frame_len=fl, window_kind=kind)
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
        M = stft_matrix(32, 8, 4)
        batched = stft_apply(M, xb, 4)
        for b in range(3):
            # fp summation order differs between x@M.T and M@x
            assert np.allclose(batched[b], stft_apply(M, xb[b], 4), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            stft_matrix(32, 7, 3)  # odd frame
        with pytest.raises(ValueError):
            stft_matrix(32, 8, 6)  # K too large
        with pytest.raises(ValueError):
            stft_matrix(4, 8, 3)  # window shorter than frame


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
        rng = np.random.default_rng(4)
        K, P, fl = 3, 4, 8
        xb = rng.normal(size=(2, 12))  # 2K=6, T=12
        fpat = self.encode(xb, T=12, P=P, H=2, K=K, layers=1, frame_len=fl)["fpat"]
        assert fpat.shape == (3, 2, 24)
        for b in range(2):
            spec = stft(xb[b], K=K, frame_len=fl)
            for j in range(3):  # patch index
                expected = spec[:, P * j:P * (j + 1)].T.reshape(-1)
                assert np.allclose(fpat[j, b], expected, atol=1e-12)
