"""Series ingestion, normalization, ACF period estimation, and windowing."""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class DataError(Exception):
    pass


@dataclass
class RawSeries:
    values: np.ndarray
    name: str
    split: int
    labels: np.ndarray | None = None  # full length, 0/1, test region meaningful

    @property
    def train(self):
        return self.values[: self.split]

    @property
    def test(self):
        return self.values[self.split:]

    @property
    def test_labels(self):
        if self.labels is None:
            return None
        return self.labels[self.split:]


@dataclass
class NormalizationStats:
    mean: float
    std: float


@dataclass
class PeriodEstimate:
    period: int
    acf: np.ndarray = field(repr=False, default=None)


_UCR_NAME = re.compile(r"_(\d+)_(\d+)_(\d+)\.(txt|csv|tsv|dat)$", re.IGNORECASE)
# size hint for one readlines() call in load_ucr: bounds the text and token
# objects alive at once, which whole-file reading would hold for every line
_CHUNK_BYTES = 1 << 18


@contextmanager
def open_text(path, name):
    """`path` opened for reading as UTF-8 text; bytes that do not decode
    raise DataError naming the file as `name`. Every text reader uses it."""
    try:
        with open(path, encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError:
        raise DataError(f"{name}: not UTF-8 text") from None


def _finite(values, source):
    """values, or a DataError naming the first NaN/inf and its 0-based index."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{source}: non-finite value {values[i]} at index {i}")
    return values


def _parse_lines(lines, lineno, source):
    """float64 values of the tokens in `lines`, whole lines that follow line
    `lineno` of `source`; a DataError names the first unparseable token and
    its 1-based line."""
    tokens = "".join(lines).replace(",", " ").split()
    try:
        return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        for i, line in enumerate(lines, start=lineno + 1):
            for tok in line.replace(",", " ").split():
                try:
                    float(tok)
                except ValueError:
                    raise DataError(f"{source}: unparseable value at line {i}: {tok!r}") from None
        raise


def load_ucr(path):
    """Load a UCR/KDD21-style file: one value per line, metadata in the
    filename suffix ``..._<split>_<anomStart>_<anomEnd>.txt`` (0-based,
    inclusive anomaly range).

    Values may also be comma- or whitespace-separated on one line. The file
    is read as UTF-8 in chunks of whole lines, about _CHUNK_BYTES each, so
    only one chunk's text and tokens are held at a time."""
    base = os.path.basename(path)
    m = _UCR_NAME.search(base)
    if m is None:
        raise DataError(f"filename does not follow _<split>_<start>_<end> convention: {base}")
    split, astart, aend = int(m.group(1)), int(m.group(2)), int(m.group(3))
    chunks, lineno = [], 0
    with open_text(path, base) as f:
        while lines := f.readlines(_CHUNK_BYTES):
            chunks.append(_parse_lines(lines, lineno, base))
            lineno += len(lines)
    values = np.concatenate(chunks) if chunks else np.empty(0)
    if not values.size:
        raise DataError(f"{base}: empty file")
    values = _finite(values, base)
    n = len(values)
    if not 0 < split < n:
        raise DataError(f"{base}: split {split} out of range for length {n}")
    if not (split <= astart <= aend < n):
        raise DataError(f"{base}: anomaly range [{astart},{aend}] invalid for length {n}")
    labels = np.zeros(n, dtype=np.int8)
    labels[astart:aend + 1] = 1
    return RawSeries(values=values, name=base, split=split, labels=labels)


def load_csv(path, split=None):
    """Load a UTF-8 CSV whose header names a ``value`` column and, optionally,
    a ``label`` column of 0s and 1s; the train/test split defaults to half the
    rows. A label that is not 0 or 1 (``1.0`` is 1) raises DataError naming
    the file and the 1-based line."""
    with open_text(path, path) as f:
        header = f.readline().strip()
        if not header:
            raise DataError(f"{path}: empty file")
        cols = [c.strip() for c in header.split(",")]
        if "value" not in cols:
            raise DataError(f"{path}: missing column 'value'")
        vi = cols.index("value")
        li = cols.index("label") if "label" in cols else None
        values, labels = [], []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                values.append(float(parts[vi]))
                if li is not None:
                    label = float(parts[li])
                    if label not in (0.0, 1.0):
                        raise DataError(f"{path}: line {lineno}: label "
                                        f"{parts[li].strip()!r} is not 0 or 1")
                    labels.append(int(label))
            except (ValueError, IndexError):
                raise DataError(f"{path}: bad row at line {lineno}: {line!r}")
    if not values:
        raise DataError(f"{path}: no data rows")
    values = _finite(np.asarray(values, dtype=np.float64), path)
    n = len(values)
    if split is None:
        split = n // 2
    if not 0 < split < n:
        raise DataError(f"{path}: split {split} out of range for length {n}")
    lab = np.asarray(labels, dtype=np.int8) if li is not None else None
    return RawSeries(values=values, name=os.path.basename(path), split=split, labels=lab)


def train_stats(series):
    """Mean/std over the train region only."""
    train = series.train
    return NormalizationStats(mean=float(train.mean()), std=float(train.std()))


def zscore(values, stats):
    """(x - mean)/std; degenerate std (< 1e-8) maps everything to zero."""
    values = np.asarray(values, dtype=np.float64)
    if stats.std < 1e-8:
        return np.zeros_like(values)
    return (values - stats.mean) / stats.std


def estimate_period(train_values, max_lag=None):
    """Dominant period from the autocorrelation function of the train region.

    The ACF is computed on the mean-removed series, normalized by lag 0.
    The period is the lag in [2, max_lag] that is a local maximum with the
    highest ACF value; if no local maximum exceeds 0.1, falls back to 64.

    Only lags 0 ... max_lag + 1 are computed, one dot product each, so the
    cost is O(n * max_lag) rather than the O(n^2) of a full correlation.
    Each lag is the BLAS dot ``np.correlate(xc, xc, "full")`` computes for
    it, with the same bits. The one exception is lag 0 at n <= 11, which
    numpy sums in its own loop; it can differ from 1.0 in the last bits
    there, while here it is exactly 1.0.
    """
    x = np.asarray(train_values, dtype=np.float64)
    n = len(x)
    if n < 8:
        raise DataError(f"train region too short for period estimation ({n} points)")
    if max_lag is None:
        max_lag = min(1000, n // 3)
    max_lag = max(3, min(max_lag, n - 2))
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom < 1e-12:
        return PeriodEstimate(period=64, acf=np.zeros(max_lag + 1))
    acf = np.array([xc[k:] @ xc[:n - k] for k in range(max_lag + 2)]) / denom
    best_lag, best_val = None, 0.1
    for lag in range(2, max_lag + 1):
        if acf[lag] > acf[lag - 1] and acf[lag] >= acf[lag + 1]:
            if acf[lag] > best_val:
                best_lag, best_val = lag, acf[lag]
    if best_lag is None:
        return PeriodEstimate(period=64, acf=acf[: max_lag + 1])
    return PeriodEstimate(period=best_lag, acf=acf[: max_lag + 1])


@dataclass
class WindowBatch:
    windows: np.ndarray  # (B, T)
    origins: np.ndarray  # (B,) start index within the region


def window_origins(region_len, T, stride, phase=0):
    """Origins 0(+phase), stride steps apart, plus a right-aligned final
    window, so a stride of at most T covers every point from the first
    origin on."""
    if T > region_len:
        raise DataError(f"window length {T} exceeds region length {region_len}")
    origins = list(range(phase, region_len - T + 1, stride))
    last = region_len - T
    if not origins or origins[-1] != last:
        origins.append(last)
    return np.asarray(origins, dtype=np.int64)


def make_windows(values, T, origins):
    """The (B, T) windows of `values` that start at `origins`, one copy.
    Training and detect cut each batch here, so neither holds more."""
    values = np.asarray(values, dtype=np.float64)
    origins = np.asarray(origins, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(values, T)[origins]
    return WindowBatch(windows=windows, origins=origins)


def read_manifest(path):
    """Dataset manifest: one path per line, '#' starts a comment."""
    entries = []
    base = os.path.dirname(os.path.abspath(path))
    with open_text(path, path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            entries.append(line if os.path.isabs(line) else os.path.join(base, line))
    return entries
