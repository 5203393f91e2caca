import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopad.data import (_CHUNK_BYTES, DataError, NormalizationStats,
                         estimate_period, load_csv, load_ucr, make_windows,
                         read_manifest, train_stats, window_origins, zscore)


def oracle_load_ucr_values(path):
    """The line-by-line loop load_ucr ran before it parsed chunks."""
    base = path.rsplit("/", 1)[-1]
    values = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            for tok in line.replace(",", " ").split():
                try:
                    values.append(float(tok))
                except ValueError:
                    raise DataError(f"{base}: unparseable value at line {lineno}: {tok!r}")
    return np.asarray(values, dtype=np.float64)


def oracle_estimate_period(x, max_lag=None):
    """(period, acf) from the full O(n^2) correlation estimate_period ran
    before it computed only the lags it reads."""
    n = len(x)
    if max_lag is None:
        max_lag = min(1000, n // 3)
    max_lag = max(3, min(max_lag, n - 2))
    xc = x - x.mean()
    denom = float(xc @ xc)
    full = np.correlate(xc, xc, mode="full")[n - 1:]
    acf = full[: max_lag + 2] / denom
    best_lag, best_val = None, 0.1
    for lag in range(2, max_lag + 1):
        if acf[lag] > acf[lag - 1] and acf[lag] >= acf[lag + 1]:
            if acf[lag] > best_val:
                best_lag, best_val = lag, acf[lag]
    return (64 if best_lag is None else best_lag), acf[: max_lag + 1]


def assert_acf_matches(got, want, n):
    """got == want byte for byte, except lag 0 when n <= 11: numpy's correlate
    sums kernels of up to 11 points in its own loop rather than BLAS, so its
    lag 0 can differ from xc @ xc in the last bits, while estimate_period's
    lag 0 is denom / denom, exactly 1. The period search never reads lag 0."""
    if n <= 11:
        assert got[0] == 1.0 and abs(want[0] - 1.0) <= 1e-15
        got, want = got[1:], want[1:]
    assert got.tobytes() == want.tobytes()


def big_ucr_text(lines):
    """Text of `lines` values, one per line, that mixes blank lines, CRLF line
    ends, comma- and whitespace-separated rows and no final newline."""
    rng = np.random.default_rng(3)
    vals = rng.normal(0, 100, size=lines).tolist()
    rows = []
    for i, v in enumerate(vals):
        if i % 997 == 0:
            rows.append("")
        if i % 501 == 0:
            rows.append(f"{v!r}, {-v!r},{v / 3!r}\t{v * 7:.3e}")
        else:
            rows.append(repr(v))
    text = "\n".join(rows)
    head, tail = text[: len(text) // 2], text[len(text) // 2:]
    return head.replace("\n", "\r\n") + tail


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

    def test_chunks_parse_like_the_line_loop(self, tmp_path):
        p = tmp_path / "big_100_200_300.txt"
        p.write_bytes(big_ucr_text(60_000).encode())
        assert p.stat().st_size > 3 * _CHUNK_BYTES
        assert not p.read_bytes().endswith(b"\n")
        assert b"\r\n" in p.read_bytes() and b"\n\n" in p.read_bytes()
        want = oracle_load_ucr_values(str(p))
        assert len(want) > 60_000
        assert load_ucr(str(p)).values.tobytes() == want.tobytes()

    def test_bad_token_in_third_chunk_names_its_line(self, tmp_path):
        p = tmp_path / "big_100_200_300.txt"
        text = big_ucr_text(60_000)
        # a line ~2.4 chunks in (CRLF reads as one character): past chunk 2,
        # which ends within a line of 2 * _CHUNK_BYTES characters
        at = text.index("\n", 5 * _CHUNK_BYTES // 2) + 1
        p.write_text(text[:at] + "1.0 12x4," + text[at:], newline="")
        with pytest.raises(DataError) as want:
            oracle_load_ucr_values(str(p))
        assert "'12x4'" in str(want.value)
        with pytest.raises(DataError) as got:
            load_ucr(str(p))
        assert str(got.value) == str(want.value)

    def test_whitespace_only_is_empty(self, tmp_path):
        p = tmp_path / "x_2_3_3.txt"
        p.write_text("\n  \r\n\t\n \n")
        with pytest.raises(DataError, match="empty file"):
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

    def test_float_spelled_labels(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value,label\n1.0,0.0\n2.0,1.0\n3.0, 1\n4.0,0\n")
        assert load_csv(str(p)).labels.tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("label", ["inf", "-inf", "nan", "2", "0.5", "-1", "1e300"])
    def test_label_not_0_or_1(self, tmp_path, label):
        p = tmp_path / "s.csv"
        p.write_text(f"value,label\n1.0,0\n2.0,1\n3.0,{label}\n4.0,0\n")
        with pytest.raises(DataError) as e:
            load_csv(str(p))
        assert str(e.value) == f"{p}: line 4: label {label!r} is not 0 or 1"

    def test_label_not_a_number(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("value,label\n1.0,0\n2.0,yes\n")
        with pytest.raises(DataError, match="bad row at line 3"):
            load_csv(str(p))


@pytest.mark.parametrize("name, load, body", [
    ("x_2_3_3.txt", load_ucr, b"1.0\n2.0\n3.\xff\n4.0\n"),
    ("s.csv", load_csv, b"value\n1.0\n2.0\n3.\xff\n4.0\n"),
    ("list.txt", read_manifest, b"a_1_2_2.txt\n\xff_1_2_2.txt\n"),
], ids=["ucr", "csv", "manifest"])
def test_not_utf8_is_data_error(tmp_path, name, load, body):
    p = tmp_path / name
    p.write_bytes(body)
    with pytest.raises(DataError, match="not UTF-8 text"):
        load(str(p))


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

    @pytest.mark.parametrize("n", [8, 9, 50, 3001, 10_000])
    # max_lag 6 stops one lag short of the period-7 peak, so lag 7 decides
    # whether lag 6 is a local maximum
    @pytest.mark.parametrize("max_lag", [None, 6, "n", 1],
                             ids=["default", "explicit", "clamp_n-2", "clamp_3"])
    @pytest.mark.parametrize("kind", ["noise", "periodic"])
    def test_acf_bytes_match_full_correlation(self, n, max_lag, kind):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        if kind == "periodic":
            x += 3.0 * np.sin(2 * np.pi * np.arange(n) / 7)
        lag = n if max_lag == "n" else max_lag
        want_period, want_acf = oracle_estimate_period(x, lag)
        got = estimate_period(x, lag)
        assert_acf_matches(got.acf, want_acf, n)
        assert got.period == want_period

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 4000), max_lag=st.none() | st.integers(0, 5000),
           seed=st.integers(0, 2**32 - 1), period=st.integers(2, 400))
    def test_acf_property(self, n, max_lag, seed, period):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + np.sin(2 * np.pi * np.arange(n) / period)
        want_period, want_acf = oracle_estimate_period(x, max_lag)
        got = estimate_period(x, max_lag)
        assert_acf_matches(got.acf, want_acf, n)
        assert got.period == want_period


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

    @settings(max_examples=150, deadline=None)
    @given(T=st.integers(1, 60), extra=st.integers(0, 200),
           stride_draw=st.integers(0, 10**6), phase=st.integers(0, 100))
    def test_coverage_property(self, T, extra, stride_draw, phase):
        # for any stride up to T, every point from the first origin on is
        # covered, so phase 0 (the inference setting) covers the whole region
        region, stride = T + extra, 1 + stride_draw % T
        origins = window_origins(region, T, stride, phase)
        assert origins[0] == min(phase, region - T)
        assert origins[-1] == region - T
        assert (np.diff(origins) > 0).all() and (np.diff(origins) <= stride).all()
        covered = np.zeros(region, dtype=bool)
        for o in origins:
            covered[o:o + T] = True
        assert covered[origins[0]:].all()
        assert window_origins(region, T, stride)[0] == 0

    def test_phase_covers_everything_after_phase(self):
        covered = np.zeros(64, dtype=bool)
        for o in window_origins(64, 16, 7, phase=3):
            covered[o:o + 16] = True
        assert covered[3:].all()

    def test_make_windows_content(self):
        values = np.arange(50.0)
        origins = window_origins(len(values), 16, 16)[[2, 0, 3]]
        batch = make_windows(values, 16, origins)
        assert batch.origins.tolist() == origins.tolist()
        assert batch.windows.shape == (3, 16)
        assert batch.windows.flags.c_contiguous and batch.windows.flags.owndata
        for w, o in zip(batch.windows, batch.origins):
            assert np.array_equal(w, values[o:o + 16])


class TestManifest:
    def test_comments_and_relative_paths(self, tmp_path):
        (tmp_path / "a_1_2_2.txt").write_text("0\n1\n2\n3\n")
        m = tmp_path / "list.txt"
        m.write_text("# corpus\na_1_2_2.txt  # inline note\n\n/abs/b.txt\n")
        entries = read_manifest(str(m))
        assert entries == [str(tmp_path / "a_1_2_2.txt"), "/abs/b.txt"]
