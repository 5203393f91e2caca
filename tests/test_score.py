import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopad.data import _CHUNK_BYTES, DataError, make_windows, window_origins
from coopad.model import CoopConfig, CoopModel
from coopad.score import (BATCH, detect, pointwise_scores, read_scores_csv,
                          smooth, stitch, write_scores_csv)


def small_model(seed=0, **overrides):
    cfg = CoopConfig(T=16, P=4, H=3, K=2, layers=1, frame_len=8, **overrides)
    return CoopModel(cfg, seed=seed)


class TestPointwiseScores:
    def test_joint_is_prob_plus_error(self):
        m = small_model()
        xb = np.random.default_rng(0).normal(size=(3, 16))
        res = m.forward(xb)
        s = pointwise_scores(xb, res, "joint")
        assert s.shape == (3, 16)
        expected = np.repeat(res.probs.combined.T, 4, axis=1) + \
            np.abs(xb - res.x_r)
        assert np.array_equal(s, expected)
        assert np.all(s >= 0)

    def test_ablation_modes(self):
        m = small_model()
        xb = np.random.default_rng(1).normal(size=(2, 16))
        res = m.forward(xb)
        recon = pointwise_scores(xb, res, "recon_only")
        cls = pointwise_scores(xb, res, "class_only")
        assert np.array_equal(recon, np.abs(xb - res.x_r))
        assert np.array_equal(cls, np.repeat(res.probs.fused.T, 4, axis=1))
        # class_only is constant within each patch
        assert np.allclose(cls.reshape(2, 4, 4).std(axis=2), 0.0, atol=0)

    def test_unknown_mode(self):
        m = small_model()
        xb = np.zeros((1, 16))
        with pytest.raises(ValueError):
            pointwise_scores(xb, m.forward(xb), "hybrid")


def stitched(window_scores, origins, length, batch=None):
    """Per-point mean and coverage of window scores, stitched `batch`
    windows at a time into running totals (all at once by default)."""
    total = np.zeros(length)
    coverage = np.zeros(length, dtype=np.int64)
    batch = batch or max(len(origins), 1)
    for s in range(0, len(origins), batch):
        stitch(window_scores[s:s + batch], origins[s:s + batch], total, coverage)
    return total / coverage, coverage


class TestStitch:
    def test_disjoint_windows(self):
        ws = np.array([[1.0, 2.0], [3.0, 4.0]])
        out, cov = stitched(ws, [0, 2], 4)
        assert out.tolist() == [1, 2, 3, 4]
        assert cov.tolist() == [1, 1, 1, 1]

    def test_overlap_averages(self):
        ws = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 3.0]])
        out, cov = stitched(ws, [0, 2], 5)
        assert out.tolist() == [1, 1, 2, 3, 3]
        assert cov.tolist() == [1, 1, 2, 1, 1]

    def test_adds_only_inside_windows(self):
        total = np.full(4, 0.5)
        coverage = np.zeros(4, dtype=np.int64)
        stitch(np.ones((1, 2)), [1], total, coverage)
        assert total.tolist() == [0.5, 1.5, 1.5, 0.5]
        assert coverage.tolist() == [0, 1, 1, 0]

    @settings(max_examples=80, deadline=None)
    @given(T=st.integers(1, 40), extra=st.integers(0, 120),
           stride_draw=st.integers(0, 10**6), batch=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_per_point_mean_oracle(self, T, extra, stride_draw, batch, seed):
        length = T + extra
        origins = window_origins(length, T, 1 + stride_draw % T)
        ws = np.random.default_rng(seed).normal(size=(len(origins), T))
        got, cov = stitched(ws, origins, length, batch)
        for i in range(length):
            total, n = 0.0, 0
            for w, o in zip(ws, origins):  # window order, as stitch adds
                if o <= i < o + T:
                    total += w[i - o]
                    n += 1
            assert cov[i] == n
            assert got[i] == total / n


class TestSmooth:
    def test_width_one_is_identity(self):
        x = np.array([1.0, 5.0, 2.0])
        assert smooth(x, 1).tolist() == [1, 5, 2]

    def test_width_three(self):
        x = np.array([0.0, 3.0, 0.0, 0.0])
        # boundary windows shrink: [0,3]/2, [0,3,0]/3, [3,0,0]/3, [0,0]/2
        assert np.allclose(smooth(x, 3), [1.5, 1.0, 1.0, 0.0], atol=1e-12)

    def test_even_width_bumped_to_odd(self):
        x = np.random.default_rng(2).normal(size=20)
        assert np.allclose(smooth(x, 4), smooth(x, 5), atol=1e-12)

    def test_constant_fixed_point(self):
        x = np.full(10, 2.5)
        assert np.allclose(smooth(x, 5), x, atol=1e-12)

    def test_oracle(self):
        x = np.random.default_rng(3).normal(size=30)
        got = smooth(x, 7)
        for i in range(30):
            lo, hi = max(0, i - 3), min(30, i + 4)
            assert np.isclose(got[i], x[lo:hi].mean(), atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 300), w=st.integers(-2, 320),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
    def test_centred_moving_average_oracle(self, n, w, scale, seed):
        x = np.random.default_rng(seed).normal(0, scale, size=n)
        half = max(w, 1) // 2  # width w, or w + 1 when w is even
        want = np.array([x[max(0, i - half):i + half + 1].mean() for i in range(n)])
        np.testing.assert_allclose(smooth(x, w), want, rtol=0, atol=1e-12 * scale * n)

    def test_memory_is_prefix_sums_and_output(self):
        # the prefix sums and the result are smooth's only series-sized
        # arrays (16 bytes a point); the bound leaves room for one more half
        x = np.random.default_rng(12).normal(size=400_000)
        tracemalloc.start()
        try:
            smooth(x, 51)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(x) <= 24


class TestDetect:
    def test_shapes_and_coverage(self):
        m = small_model()
        x = np.random.default_rng(4).normal(size=100)
        series = detect(x, m)
        assert series.scores.shape == (100,)
        assert series.smoothed.shape == (100,)
        assert np.all(series.coverage >= 1)
        assert np.all(np.isfinite(series.scores))
        assert np.all(series.scores >= 0)

    @pytest.mark.parametrize("T, P, frame_len", [(16, 4, 8), (6, 2, 4)])
    def test_coverage_counts_match_int64_oracle(self, T, P, frame_len):
        # stored as uint8; T = 6 slides at stride 1, so up to 6 windows a point
        m = CoopModel(CoopConfig(T=T, P=P, H=3, K=2, layers=1, frame_len=frame_len))
        x = np.random.default_rng(12).normal(size=203)
        origins = window_origins(len(x), T, max(1, T // 4))
        want = np.zeros(len(x), dtype=np.int64)
        for o in origins:
            want[o:o + T] += 1
        got = detect(x, m).coverage
        assert got.dtype == np.uint8
        assert np.array_equal(got.astype(np.int64), want)

    def test_deterministic(self):
        m = small_model(seed=5)
        x = np.random.default_rng(6).normal(size=200)
        a, b = detect(x, m), detect(x, m)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.smoothed, b.smoothed)

    def test_batching_invariance(self):
        # more windows than one batch: detect's batches stitch to what
        # scoring each window on its own gives, to rounding
        m = small_model(seed=7)
        x = np.random.default_rng(8).normal(size=8 * BATCH + 40)
        origins = window_origins(len(x), 16, 4)
        assert len(origins) > 2 * BATCH
        wb = make_windows(x, 16, origins)
        singles = np.concatenate([pointwise_scores(w[None], m.forward(w[None]))
                                  for w in wb.windows])
        want, cov = stitched(singles, origins, len(x))
        got = detect(x, m)
        assert np.array_equal(got.coverage, cov)
        assert np.allclose(got.scores, want, rtol=0, atol=1e-12)

    def test_memory_grows_with_the_result_only(self):
        # detect holds its totals and coverage (16 bytes a point) plus one
        # batch's forward pass, which outweighs smooth's prefix sums and
        # output (~16 bytes a point in all); every series-sized stack of
        # windows or window scores adds 32 bytes a point at stride T/4
        model = CoopModel(CoopConfig.for_period(50, H=4, layers=1), seed=0)
        x = np.random.default_rng(13).normal(size=400_000)
        peaks = []
        for n in (100_000, 400_000):
            tracemalloc.start()
            try:
                detect(x[:n], model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 300_000 <= 96

    def test_scoring_override(self):
        m = small_model(seed=9)
        x = np.random.default_rng(10).normal(size=64)
        joint = detect(x, m, scoring="joint")
        recon = detect(x, m, scoring="recon_only")
        assert not np.array_equal(joint.scores, recon.scores)

    def test_smoothed_is_moving_average(self):
        m = small_model()
        x = np.random.default_rng(11).normal(size=80)
        series = detect(x, m)
        assert np.allclose(series.smoothed, smooth(series.scores, m.config.P),
                           atol=1e-12)


def oracle_read_scores_csv(path):
    """The line-by-line loop read_scores_csv ran before it parsed chunks,
    which checks that the index field is a number too."""
    scores, smoothed = [], []
    with open(path, encoding="utf-8") as f:
        f.readline()
        for lineno, line in enumerate(f, start=2):
            parts = line.split(",")
            try:
                if len(parts) != 3:
                    raise ValueError(f"{len(parts)} fields, expected 3")
                float(parts[0])
                scores.append(float(parts[1]))
                smoothed.append(float(parts[2]))
            except ValueError as e:
                raise DataError(f"{path}: line {lineno}: {e}") from None
    return np.asarray(scores), np.asarray(smoothed)


def big_scores_text(rows):
    """A scores CSV of `rows` rows that spans several chunks, with CRLF line
    ends in its first half, values spelled several ways and no final newline."""
    rng = np.random.default_rng(4)
    values = rng.normal(0, 10, size=rows) * 10.0 ** rng.integers(-20, 20, size=rows)
    spell = [repr, lambda v: f" {v:.3e}", lambda v: f"{v:.10g}\t", str]
    lines = [f"{i},{spell[i % 4](v)},{spell[(i + 1) % 4](-v)}"
             for i, v in enumerate(values.tolist())]
    lines[7] = "7.0,inf,-0.0"  # any number is an index
    text = "\n".join(lines)
    return "index,score,smoothed\r\n" + text[: len(text) // 2].replace("\n", "\r\n") \
        + text[len(text) // 2:]


class TestScoresCsv:
    def test_chunks_parse_like_the_line_loop(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(big_scores_text(60_000).encode())
        assert p.stat().st_size > 3 * _CHUNK_BYTES
        want = oracle_read_scores_csv(str(p))
        got = read_scores_csv(str(p))
        assert len(got[0]) == 60_000
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    # two then four fields hold as many fields as two good rows
    @pytest.mark.parametrize("row", ["1,2", "1,2,3,4", "1,2\n3,4,5,6", "", "1,0.5,1e",
                                     "1,abc,0.5", "abc,1.0,2.0"],
                             ids=["two_fields", "four_fields", "two_then_four_fields",
                                  "blank", "bad_smoothed", "bad_score", "bad_index"])
    def test_bad_row_in_third_chunk_names_its_line(self, tmp_path, row):
        p = tmp_path / "s.csv"
        text = big_scores_text(60_000)
        # a line ~2.4 chunks in: past chunk 2, which ends within a line of
        # 2 * _CHUNK_BYTES characters (CRLF reads as one)
        at = text.index("\n", 5 * _CHUNK_BYTES // 2) + 1
        p.write_text(text[:at] + row + "\n" + text[at:], newline="")
        with pytest.raises(DataError) as want:
            oracle_read_scores_csv(str(p))
        with pytest.raises(DataError) as got:
            read_scores_csv(str(p))
        assert str(got.value) == str(want.value)
        assert "line " in str(got.value)

    def test_round_trip(self, tmp_path):
        m = small_model()
        x = np.random.default_rng(12).normal(size=50)
        series = detect(x, m)
        p = tmp_path / "s.csv"
        write_scores_csv(str(p), series)
        scores, smoothed = read_scores_csv(str(p))
        assert np.allclose(scores, series.scores, rtol=1e-9)
        assert np.allclose(smoothed, series.smoothed, rtol=1e-9)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("nope\n1,2,3\n")
        with pytest.raises(DataError, match="line 1: unexpected scores header"):
            read_scores_csv(str(p))
