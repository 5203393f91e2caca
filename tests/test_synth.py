import numpy as np

from coopad.data import estimate_period, load_ucr
from coopad.synth import (DEFAULT_ANOMALIES, WRITE_BLOCK, default_fixture,
                          gen_periodic, write_ucr_file)


class TestGenPeriodic:
    def test_determinism(self):
        a, la = gen_periodic(1000, 50, 0.05, [("jittering", 600, 650)], seed=3)
        b, lb = gen_periodic(1000, 50, 0.05, [("jittering", 600, 650)], seed=3)
        assert np.array_equal(a, b)
        assert np.array_equal(la, lb)

    def test_labels_match_intervals(self):
        _, labels = gen_periodic(500, 25, 0.0,
                                 [("uniform_replacement", 100, 119),
                                  ("mirror_flip", 300, 310)], seed=0)
        assert labels.sum() == 20 + 11
        assert labels[100] == 1 and labels[119] == 1 and labels[120] == 0
        assert labels[300] == 1 and labels[310] == 1

    def test_clean_outside_anomalies(self):
        clean, _ = gen_periodic(500, 25, 0.05, [], seed=1)
        dirty, labels = gen_periodic(500, 25, 0.05,
                                     [("uniform_replacement", 200, 220)],
                                     seed=1)
        outside = labels == 0
        assert np.array_equal(clean[outside], dirty[outside])

    def test_period_recoverable(self):
        values, _ = gen_periodic(5000, 50, 0.05, [], seed=2)
        assert estimate_period(values).period == 50


class TestDefaultFixture:
    def test_layout(self):
        series, period = default_fixture(seed=7)
        assert period == 50
        assert len(series.values) == 20_000
        assert series.split == 10_000
        assert series.labels[: 10_000].sum() == 0  # clean train half
        expected = sum(e - s + 1 for _, s, e in DEFAULT_ANOMALIES)
        assert series.labels.sum() == expected
        assert estimate_period(series.train).period == 50

    def test_seed_sensitivity(self):
        a, _ = default_fixture(seed=7)
        b, _ = default_fixture(seed=8)
        assert not np.array_equal(a.values, b.values)


class TestWriteUcr:
    def test_round_trip_through_loader(self, tmp_path):
        values, labels = gen_periodic(400, 20, 0.05,
                                      [("jittering", 300, 320)], seed=4)
        from coopad.data import RawSeries
        series = RawSeries(values=values, name="x", split=200, labels=labels)
        path = write_ucr_file(str(tmp_path), series, stem="demo")
        assert path.endswith("demo_200_300_320.txt")
        loaded = load_ucr(path)
        assert np.allclose(loaded.values, values, rtol=1e-9)
        assert loaded.split == 200
        assert np.array_equal(loaded.labels, labels)

    def test_bytes_match_per_line_format(self, tmp_path):
        # formatted a block at a time, the file holds the bytes of one
        # "%.12g\n" per value, across block edges and on awkward values
        from coopad.data import RawSeries
        rng = np.random.default_rng(5)
        values = rng.normal(scale=1e3, size=2 * WRITE_BLOCK + 7)
        values[:12] = [-0.0, 0.0, 1e-300, -1e-300, 1e300, 0.1, 3.0, -7.0, 123456789012345.0,
                       5e-324, 1.7976931348623157e308, 2.0 ** 60]
        values[WRITE_BLOCK - 1:WRITE_BLOCK + 1] = [0.1, -0.0]
        series = RawSeries(values=values, name="x", split=100, labels=None)
        path = write_ucr_file(str(tmp_path), series, stem="awk")
        want = "".join("%.12g\n" % v for v in values)  # the old per-line loop
        with open(path, "rb") as f:
            assert f.read() == want.encode()
