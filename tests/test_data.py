import numpy as np
import pytest

from coopad.data import (DataError, NormalizationStats, estimate_period,
                         load_csv, load_ucr, make_windows, read_manifest,
                         train_stats, window_origins, zscore)


class TestLoadUcr:
    def test_basic(self, tmp_path):
        p = tmp_path / "demo_5_7_8.txt"
        p.write_text("\n".join(str(float(i)) for i in range(12)) + "\n")
        s = load_ucr(str(p))
        assert len(s.values) == 12
        assert s.split == 5
        assert len(s.train) == 5 and len(s.test) == 7
        assert s.labels[7] == 1 and s.labels[8] == 1
        assert s.labels.sum() == 2
        assert s.test_labels.tolist() == [0, 0, 1, 1, 0, 0, 0]

    def test_single_point_anomaly(self, tmp_path):
        p = tmp_path / "x_3_4_4.txt"
        p.write_text("\n".join("0.0" for _ in range(8)))
        s = load_ucr(str(p))
        assert s.labels.sum() == 1 and s.labels[4] == 1

    def test_bad_filename(self, tmp_path):
        p = tmp_path / "noinfo.txt"
        p.write_text("1.0\n")
        with pytest.raises(DataError):
            load_ucr(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "x_2_3_3.txt"
        p.write_text("1.0\nhello\n2.0\n3.0\n4.0\n")
        with pytest.raises(DataError):
            load_ucr(str(p))

    def test_non_finite_value_named_by_index(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            p = tmp_path / "x_2_3_3.txt"
            p.write_text(f"1.0\n2.0\n3.0\n{bad}\n5.0\nnan\n")
            with pytest.raises(DataError, match="non-finite value .* at index 3"):
                load_ucr(str(p))

    def test_range_outside_test(self, tmp_path):
        p = tmp_path / "x_5_2_3.txt"  # anomaly before split
        p.write_text("\n".join("0.0" for _ in range(10)))
        with pytest.raises(DataError):
            load_ucr(str(p))


class TestLoadCsv:
    def test_with_labels(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("timestamp,value,label\n0,1.5,0\n1,2.5,1\n2,3.5,0\n3,4.5,0\n")
        s = load_csv(str(p), split=2)
        assert s.values.tolist() == [1.5, 2.5, 3.5, 4.5]
        assert s.labels.tolist() == [0, 1, 0, 0]
        assert s.split == 2

    def test_default_split_is_half(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value\n" + "\n".join("1.0" for _ in range(10)))
        assert load_csv(str(p)).split == 5

    def test_non_finite_value_named_by_index(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value,label\n1.0,0\n2.0,0\nNaN,1\n4.0,0\n")
        with pytest.raises(DataError, match="non-finite value nan at index 2"):
            load_csv(str(p))

    def test_missing_value_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_csv(str(p))


class TestNormalization:
    def test_known_stats(self):
        stats = NormalizationStats(mean=2.0, std=2.0)
        z = zscore(np.array([0.0, 2.0, 6.0]), stats)
        assert z.tolist() == [-1.0, 0.0, 2.0]

    def test_round_trip(self):
        x = np.random.default_rng(0).normal(3.0, 5.0, size=200)

        class S:
            train = x
        stats = train_stats(S())
        z = zscore(x, stats)
        assert np.allclose(z * stats.std + stats.mean, x, atol=1e-12)
        assert abs(z.mean()) < 1e-12 and abs(z.std() - 1.0) < 1e-12

    def test_degenerate_std(self):
        stats = NormalizationStats(mean=4.0, std=0.0)
        z = zscore(np.array([4.0, 4.0]), stats)
        assert z.tolist() == [0.0, 0.0]


class TestPeriodEstimation:
    def test_pure_sine(self):
        t = np.arange(4000)
        for period in (20, 50, 128):
            x = np.sin(2 * np.pi * t / period)
            assert estimate_period(x).period == period

    def test_noisy_sine(self):
        t = np.arange(6000)
        x = np.sin(2 * np.pi * t / 75) + \
            np.random.default_rng(1).normal(0, 0.3, size=6000)
        assert abs(estimate_period(x).period - 75) <= 2

    def test_scale_and_shift_invariance(self):
        t = np.arange(3000)
        x = np.sin(2 * np.pi * t / 40)
        assert estimate_period(100.0 * x + 7.0).period == \
            estimate_period(x).period == 40

    def test_white_noise_fallback(self):
        x = np.random.default_rng(2).normal(size=5000)
        assert estimate_period(x).period == 64

    def test_constant_fallback(self):
        assert estimate_period(np.full(500, 3.0)).period == 64

    def test_too_short(self):
        with pytest.raises(DataError):
            estimate_period(np.ones(4))


class TestWindowing:
    def test_exact_tiling(self):
        o = window_origins(100, 20, 20)
        assert o.tolist() == [0, 20, 40, 60, 80]

    def test_right_aligned_tail(self):
        o = window_origins(105, 20, 20)
        assert o.tolist() == [0, 20, 40, 60, 80, 85]

    def test_phase_offset(self):
        o = window_origins(100, 20, 20, phase=3)
        assert o.tolist() == [3, 23, 43, 63, 80]

    def test_single_window(self):
        assert window_origins(20, 20, 20).tolist() == [0]

    def test_window_too_long(self):
        with pytest.raises(DataError):
            window_origins(10, 20, 20)

    def test_full_coverage_inference_phase(self):
        # phase 0 (the inference setting) must cover every point
        for region, T, stride in [(101, 16, 16), (64, 16, 7), (1000, 64, 64)]:
            covered = np.zeros(region, dtype=bool)
            for o in window_origins(region, T, stride):
                covered[o:o + T] = True
            assert covered.all()

    def test_phase_covers_everything_after_phase(self):
        covered = np.zeros(64, dtype=bool)
        for o in window_origins(64, 16, 7, phase=3):
            covered[o:o + 16] = True
        assert covered[3:].all()

    def test_make_windows_content(self):
        values = np.arange(50.0)
        batch = make_windows(values, 16, 16)
        assert batch.windows.shape == (len(batch.origins), 16)
        for w, o in zip(batch.windows, batch.origins):
            assert np.array_equal(w, values[o:o + 16])


class TestManifest:
    def test_comments_and_relative_paths(self, tmp_path):
        (tmp_path / "a_1_2_2.txt").write_text("0\n1\n2\n3\n")
        m = tmp_path / "list.txt"
        m.write_text("# corpus\na_1_2_2.txt  # inline note\n\n/abs/b.txt\n")
        entries = read_manifest(str(m))
        assert entries == [str(tmp_path / "a_1_2_2.txt"), "/abs/b.txt"]
