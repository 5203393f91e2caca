from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopad import train
from coopad.augment import (JITTER_VARIANCE, KINDS, apply_kind, distort,
                            jittering, length_scale, mirror_flip,
                            uniform_replacement)
from coopad.numerics import AdamState


def patch_labels_from_mask(point_mask, patch_len):
    """A patch is anomalous iff any of its points is masked: the labelling
    training does by slicing, written over a per-point mask."""
    n = len(point_mask) // patch_len
    return (point_mask[: n * patch_len].reshape(n, patch_len).max(axis=1)).astype(np.int8)


class TestUniformReplacement:
    def test_constant_value_in_range(self):
        seg = np.array([0.0, 5.0, -1.0, 2.0])
        for seed in range(20):
            out = uniform_replacement(seg, np.random.default_rng(seed))
            assert np.all(out == out[0])
            assert -1.0 <= out[0] <= 5.0

    def test_constant_input(self):
        seg = np.full(6, 3.5)
        out = uniform_replacement(seg, np.random.default_rng(0))
        assert np.array_equal(out, seg)


class TestMirrorFlip:
    def test_y_reverses(self):
        seg = np.array([1.0, 2.0, 4.0])
        out = mirror_flip(seg, "y")
        assert out.tolist() == [4.0, 2.0, 1.0]

    def test_x_reflects_around_mean(self):
        # mean of [1, 2, 4] is 7/3; reflection is 2*mean - x
        seg = np.array([1.0, 2.0, 4.0])
        out = mirror_flip(seg, "x")
        assert np.allclose(out, [11.0 / 3, 8.0 / 3, 2.0 / 3], atol=1e-12)
        assert np.isclose(out.mean(), seg.mean(), atol=1e-12)

    def test_both_are_involutions(self):
        seg = np.random.default_rng(1).normal(size=17)
        for axis in ("x", "y"):
            once = mirror_flip(seg, axis)
            twice = mirror_flip(once, axis)
            assert np.allclose(twice, seg, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            mirror_flip(np.ones(3), "z")


class TestLengthScale:
    def test_double_ramp(self):
        # factor 2 resamples twice as finely, then crops: first half of ramp
        seg = np.arange(8.0)
        out = length_scale(seg, 2.0)
        assert len(out) == 8
        assert np.allclose(out, np.linspace(0.0, 7.0, 16)[:8], atol=1e-12)

    def test_half_tiles(self):
        seg = np.arange(8.0)
        out = length_scale(seg, 0.5)
        assert len(out) == 8
        coarse = np.interp(np.linspace(0, 7, 4), np.arange(8), seg)
        assert np.allclose(out, np.tile(coarse, 2), atol=1e-12)

    def test_constant_fixed_point(self):
        seg = np.full(10, 2.5)
        for factor in (0.5, 2.0):
            out = length_scale(seg, factor)
            assert np.array_equal(out, seg)

    def test_range_preserved(self):
        # linear interpolation cannot overshoot the data range
        seg = np.random.default_rng(2).normal(size=30)
        for factor in (0.5, 2.0):
            out = length_scale(seg, factor)
            assert out.min() >= seg.min() - 1e-12
            assert out.max() <= seg.max() + 1e-12

    def test_length_one(self):
        out = length_scale(np.array([4.0]), 2.0)
        assert out.tolist() == [4.0]


class TestJittering:
    def test_shape_and_difference(self):
        seg = np.zeros(1000)
        out = jittering(seg, np.random.default_rng(3))
        assert out.shape == seg.shape
        assert not np.array_equal(out, seg)

    def test_noise_statistics(self):
        # Monte Carlo: sample variance of the added noise matches 0.1
        seg = np.zeros(200_000)
        out = jittering(seg, np.random.default_rng(4))
        assert abs(out.mean()) < 0.01
        assert abs(out.var() - JITTER_VARIANCE) < 0.005

    def test_empty(self):
        out = jittering(np.array([]), np.random.default_rng(0))
        assert len(out) == 0


class TestPatchLabels:
    def test_examples(self):
        mask = np.array([0, 0, 0, 0, 1, 1, 0, 0], dtype=np.int8)
        assert patch_labels_from_mask(mask, 4).tolist() == [0, 1]
        assert patch_labels_from_mask(mask, 2).tolist() == [0, 0, 1, 0]
        assert patch_labels_from_mask(np.zeros(8, np.int8), 4).tolist() == [0, 0]

    def test_single_point_marks_one_patch(self):
        mask = np.zeros(64, dtype=np.int8)
        mask[37] = 1
        labels = patch_labels_from_mask(mask, 8)
        assert labels.sum() == 1 and labels[37 // 8] == 1


class TestTrainingLabels:
    @settings(max_examples=80, deadline=None)
    @given(P=st.integers(1, 8), N=st.integers(1, 8), windows=st.integers(1, 6),
           batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_label_slice_matches_mask_oracle(self, P, N, windows, batch, seed, data):
        # train_epoch labels each window from the interval distort reports;
        # here distort reports drawn intervals (or a clean window) and the
        # labels must be those of the interval's point mask
        T = N * P
        interval = st.integers(0, T - 1).flatmap(
            lambda start: st.tuples(st.just(start), st.integers(start, T - 1)))
        events, labels = [], []

        def drawn_distort(row, period, rng, p_distort, kinds):
            event = data.draw(st.none() | interval.map(lambda se: ("jittering", *se)))
            events.append(event)
            return event

        def record_labels(model, x_distorted, x_clean, patch_labels, rng=None):
            labels.extend(patch_labels.copy())
            return train.LossBreakdown(0.0, 0.0, 0.0), {}, None

        model = SimpleNamespace(config=SimpleNamespace(T=T, P=P, N=N), tensors={})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(train, "distort", drawn_distort)
            mp.setattr(train, "loss_and_grads", record_labels)
            train.train_epoch(np.zeros(T * windows), 4, model, train.TrainConfig(batch=batch),
                              AdamState({}), np.random.default_rng(seed))
        assert len(labels) == len(events) >= windows
        for event, got in zip(events, labels):
            mask = np.zeros(T, dtype=np.int8)
            if event is not None:
                mask[event[1]:event[2] + 1] = 1
            assert got.dtype == np.int8
            assert got.tolist() == patch_labels_from_mask(mask, P).tolist()


def distort_copy(window, period, rng, p_distort=1.0, kinds=KINDS):
    """(distorted copy of window, distort's result)."""
    row = np.array(window, dtype=np.float64)
    return row, distort(row, period, rng, p_distort, kinds)


class TestDistort:
    def test_locality(self):
        # the row is changed in place, and only inside the event interval
        rng = np.random.default_rng(5)
        window = np.random.default_rng(6).normal(size=128)
        for _ in range(50):
            row = window.copy()
            address = row.ctypes.data
            event = distort(row, 16, rng, 1.0, KINDS)
            assert event is not None
            kind, start, end = event
            assert kind in KINDS and row.ctypes.data == address
            outside = np.ones(128, dtype=bool)
            outside[start:end + 1] = False
            assert row[outside].tobytes() == window[outside].tobytes()

    def test_interval_length_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, (_, start, end) = distort_copy(np.zeros(128), 16, rng)
            assert 0 <= start <= end < 128
            assert 1 <= end - start + 1 <= 16

    def test_clean_probability(self):
        rng = np.random.default_rng(8)
        window = np.ones(32)
        clean = sum(
            distort_copy(window, 8, rng, p_distort=0.9)[1] is None
            for _ in range(2000))
        assert 120 <= clean <= 280  # ~N(200, 13.4)

    def test_clean_window_untouched(self):
        rng = np.random.default_rng(9)
        window = np.random.default_rng(10).normal(size=32)
        row, event = distort_copy(window, 8, rng, p_distort=0.0)
        assert event is None
        assert row.tobytes() == window.tobytes()

    def test_exclude_kinds(self):
        rng = np.random.default_rng(11)
        window = np.random.default_rng(12).normal(size=64)
        kinds = [k for k in KINDS if k != "mirror_flip"]
        seen = {distort_copy(window, 16, rng, kinds=kinds)[1][0] for _ in range(300)}
        assert seen == {"uniform_replacement", "length_scale", "jittering"}

    def test_exclude_all_means_clean(self):
        # no kind left: clean, and no random number drawn
        rng = np.random.default_rng(13)
        row, event = distort_copy(np.ones(16), 4, rng, kinds=[])
        assert event is None and row.tolist() == [1.0] * 16
        assert rng.random() == np.random.default_rng(13).random()

    def test_determinism(self):
        window = np.random.default_rng(14).normal(size=64)
        a, ev_a = distort_copy(window, 16, np.random.default_rng(42))
        b, ev_b = distort_copy(window, 16, np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()
        assert ev_a == ev_b


class TestApplyKind:
    def test_all_kinds_run(self):
        seg = np.random.default_rng(15).normal(size=20)
        for kind in KINDS:
            out = apply_kind(seg, kind, np.random.default_rng(16))
            assert out.shape == seg.shape
            assert np.all(np.isfinite(out))

    def test_mirror_flip_draws_both_axes(self):
        # each mirror flip reverses the segment or reflects it around its mean
        seg = np.random.default_rng(19).normal(size=16)
        flips = {"y": seg[::-1], "x": 2.0 * seg.mean() - seg}
        rng = np.random.default_rng(20)
        axes = set()
        for _ in range(50):
            out = apply_kind(seg, "mirror_flip", rng)
            matched = {axis for axis, want in flips.items() if np.array_equal(out, want)}
            assert len(matched) == 1
            axes |= matched
        assert axes == {"x", "y"}

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_kind(np.ones(4), "spike", np.random.default_rng(0))
