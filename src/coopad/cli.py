"""Command-line front end: train, detect, eval, inject, bench.

Exit codes: 0 success, 2 usage error (also a train, inject or bench
number out of range, a NaN or infinite --lr or a NaN --distortion-prob,
which `TrainConfig` rejects, a --freq-bins or --lam the model settings
below reject, or --split given for a UCR file, whose name holds its split),
3 data error (also a file that cannot be read or written, non-finite input
values, a CSV label other than 0 or 1, a constant train region, whose std
is below 1e-8 (train writes no run directory), a test region or bench
series shorter than the window, a config.json that is not valid JSON,
lacks a field, holds a bad value or a model key that is not a setting, a
model.ckpt that fails its CRC32 check, is format version 1 (retrain) or
does not match config.json, or a scores CSV for eval that is not UTF-8,
has a wrong header, a row that is not three numbers, a NaN or inf score or
not one row per test point, or eval data without labels), 4 numeric
failure (also non-finite detect scores, in which case no scores CSV is
written, and a detect whose arithmetic overflows, as float32 does past
~3.4e38). The command group maps errors to these codes in one place
(`_Coopad.invoke`).

The model settings are valid when T, P, H, K, layers and frame_len are
integers >= 1, smooth_window is an integer >= 0, T is a multiple of P,
frame_len is even and at most T, K is at most frame_len/2 + 1 and lam is a
finite number >= 0; `CoopConfig` alone checks them. In config.json,
norm_mean must also be a finite number, norm_std a finite number >= 1e-8, and
hard_threshold null or a finite number, and not null under hard masking.

Every run directory is self-describing: config.json plus the seed are
enough to reproduce outputs bit-for-bit.
"""

from __future__ import annotations

import ctypes
import dataclasses
import errno
import glob
import json
import os
import resource
import sys
import time
import tracemalloc

import click
import numpy as np

from . import augment, metrics, score, synth
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (STD_FLOOR, DataError, NormalizationStats, estimate_period,
                   load_csv, load_ucr, read_manifest, train_stats, zscore)
from .model import (FUSIONS, GRANULARITIES, MASKINGS, SCORINGS, CoopConfig,
                    CoopModel)
from .train import NumericError, TrainConfig, fit

EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_series(path, split=None):
    if path.endswith(".csv"):
        return load_csv(path, split=split)
    if split is not None:
        raise click.BadParameter(f"applies to CSV files only; {path} names its split",
                                 param_hint="'--split'")
    return load_ucr(path)


class _Coopad(click.Group):
    """Maps the library's errors to the exit codes above, with an ``error:``
    line on stderr. A broken pipe is left to click, which exits 1 quietly."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DataError, CheckpointError, metrics.MetricError, OSError,
                NumericError) as e:
            if isinstance(e, OSError) and e.errno == errno.EPIPE:
                raise
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_NUMERIC if isinstance(e, NumericError) else EXIT_DATA)


@click.group(cls=_Coopad)
def main():
    """Cooperative time-series anomaly detection."""


@main.command("train")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=TrainConfig.seed, type=click.IntRange(min=0), show_default=True)
@click.option("--epochs", default=TrainConfig.epochs, type=click.IntRange(min=0),
              show_default=True)
@click.option("--lr", default=TrainConfig.lr, type=click.FloatRange(min=0, min_open=True),
              show_default=True)
@click.option("--batch", default=TrainConfig.batch, type=click.IntRange(min=1),
              show_default=True)
@click.option("--lam", default=CoopConfig.lam, type=click.FloatRange(min=0), show_default=True)
@click.option("--hidden", default=CoopConfig.H, type=click.IntRange(min=1), show_default=True)
@click.option("--layers", default=CoopConfig.layers, type=click.IntRange(min=1),
              show_default=True)
@click.option("--patch", default=CoopConfig.P, type=click.IntRange(min=1), show_default=True)
@click.option("--freq-bins", default=CoopConfig.K, type=click.IntRange(min=1),
              show_default=True)
@click.option("--masking", default=CoopConfig.masking, type=click.Choice(MASKINGS),
              show_default=True)
@click.option("--granularity", default=CoopConfig.granularity,
              type=click.Choice(GRANULARITIES), show_default=True)
@click.option("--fusion", default=CoopConfig.fusion, type=click.Choice(FUSIONS),
              show_default=True)
@click.option("--exclude-kind", "exclude_kinds", multiple=True,
              type=click.Choice(augment.KINDS))
@click.option("--distortion-prob", default=TrainConfig.distortion_prob,
              type=click.FloatRange(0, 1), show_default=True)
@click.option("--split", default=None, type=int, help="CSV train/test split index")
def cmd_train(data_path, out_dir, seed, epochs, lr, batch, lam, hidden, layers,
              patch, freq_bins, masking, granularity, fusion,
              exclude_kinds, distortion_prob, split):
    """Fit a model; writes model.ckpt, config.json, train.csv."""
    try:
        tcfg = TrainConfig(lr=lr, epochs=epochs, batch=batch, seed=seed,
                           distortion_prob=distortion_prob,
                           exclude_kinds=tuple(exclude_kinds))
    except ValueError as e:  # the flags' ranges leave a NaN or inf lr, a NaN probability
        raise click.BadParameter(str(e), param_hint=["--lr", "--distortion-prob"]) from None
    series = _load_series(data_path, split)
    stats = train_stats(series)
    norm = zscore(series.values, stats)
    period = estimate_period(norm[: series.split]).period
    try:
        config = CoopConfig.for_period(
            period, P=patch, H=hidden, K=freq_bins, layers=layers, lam=lam,
            masking=masking, granularity=granularity, fusion=fusion)
    except ValueError as e:  # the flags' ranges leave K <= frame_len/2 + 1 and a finite lam
        raise click.BadParameter(f"{e} (period {period})",
                                 param_hint=["--freq-bins", "--lam"]) from None
    model = CoopModel(config, seed=seed)
    active = [k for k in augment.KINDS if k not in exclude_kinds]
    click.echo(f"dataset={series.name} period={period} T={config.T} "
               f"N={config.N} params={model.num_params()} "
               f"active_kinds={len(active)} ({','.join(active)})")
    log = fit(norm[: series.split], period, model, tcfg)
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "model.ckpt"),
                    model.config.block(), model.tensors)
    run_cfg = {
        "model": config.to_dict(),
        "train": dataclasses.asdict(tcfg),
        "data": {"path": os.path.abspath(data_path), "split": series.split,
                 "period": period, "norm_mean": stats.mean,
                 "norm_std": stats.std},
        "hard_threshold": model.hard_threshold,
    }
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(run_cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    log.write_csv(os.path.join(out_dir, "train.csv"))
    if log.epochs:
        click.echo("final loss: total=%.6g bce=%.6g mse=%.6g"
                   % (log.epochs[-1][3], log.epochs[-1][1], log.epochs[-1][2]))


def _finite(value, name):
    """A config.json number as a float; ValueError naming the field unless
    it is a finite JSON number."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def load_run(run_dir):
    """Rebuild a trained model from a run directory (config.json + model.ckpt).

    Returns (model, train-region NormalizationStats, the train/test split
    train recorded, or None). Raises CheckpointError when config.json is not
    valid JSON, lacks a field or holds a bad value, or the checkpoint's
    config block, tensor names or shapes do not match it. Both files are
    checked before the model is allocated."""
    cfg_path = os.path.join(run_dir, "config.json")
    ckpt_path = os.path.join(run_dir, "model.ckpt")
    if not os.path.exists(cfg_path) or not os.path.exists(ckpt_path):
        raise DataError(f"{run_dir}: missing config.json or model.ckpt")
    try:
        with open(cfg_path, encoding="utf-8") as f:
            run_cfg = json.load(f)
        config = CoopConfig.from_dict(run_cfg["model"])
        stats = NormalizationStats(_finite(run_cfg["data"]["norm_mean"], "norm_mean"),
                                   _finite(run_cfg["data"]["norm_std"], "norm_std"))
        if stats.std < STD_FLOOR:  # train never writes one; zscore divides by it
            raise ValueError(f"norm_std must be >= {STD_FLOOR:g}, not {stats.std!r}")
        split = run_cfg["data"].get("split")
        if split is not None and type(split) is not int:
            raise ValueError(f"split must be an integer, not {split!r}")
        threshold = run_cfg.get("hard_threshold")
        if threshold is not None:
            threshold = _finite(threshold, "hard_threshold")
        elif config.masking == "hard":
            raise ValueError("hard_threshold is null: the run was never calibrated "
                             "for hard masking")
    except KeyError as e:
        raise CheckpointError(f"{cfg_path}: missing field {e}") from e
    except (ValueError, TypeError) as e:
        raise CheckpointError(f"{cfg_path}: {e}") from e
    try:
        block, tensors = load_checkpoint(ckpt_path)
    except CheckpointError as e:
        raise CheckpointError(f"{ckpt_path}: {e}") from e
    if block != config.block():
        raise CheckpointError(
            f"{ckpt_path}: config block (T, P, H, K, layers, lam) = {block} "
            f"does not match config.json {config.block()}")
    model = CoopModel(config)  # every tensor is overwritten below
    try:
        model.load_tensors(tensors)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{ckpt_path}: {e}") from e
    model.hard_threshold = threshold
    return model, stats, split


@main.command("detect")
@click.option("--run", "run_dir", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--scoring", default=None, type=click.Choice(SCORINGS))
@click.option("--split", default=None, type=int,
              help="CSV train/test split index; defaults to the one train recorded")
def cmd_detect(run_dir, data_path, out_path, scoring, split):
    """Score the test region of a dataset; writes a scores CSV."""
    model, stats, train_split = load_run(run_dir)
    if split is None and data_path.endswith(".csv"):
        split = train_split
    series = _load_series(data_path, split)
    test = zscore(series.values, stats)[series.split:]
    try:
        result = score.detect(test, model, scoring=scoring)
    except FloatingPointError as e:
        raise NumericError(f"detect: {e}: the test values, normalised by config.json's "
                           f"norm_mean and norm_std, are beyond the model's float "
                           f"range; no scores written") from None
    bad = np.flatnonzero(~np.isfinite(result.scores) | ~np.isfinite(result.smoothed))
    if bad.size:
        raise NumericError(f"{bad.size} non-finite scores (first at test index "
                           f"{bad[0]}); no scores written")
    score.write_scores_csv(out_path, result)
    click.echo(f"wrote {len(result.scores)} scores to {out_path}")


def _eval_report(data_path, scores_path, split):
    """Report dict of one dataset. A DataError names data_path when it has
    no labels, and scores_path for a NaN or inf score (with its 1-based
    line) or a row count other than the test region's length."""
    series = _load_series(data_path, split)
    labels = series.test_labels
    if labels is None:
        raise DataError(f"{data_path}: no labels to evaluate against")
    scores, smoothed = score.read_scores_csv(scores_path)
    bad = np.flatnonzero(~np.isfinite(scores) | ~np.isfinite(smoothed))
    if bad.size:
        raise DataError(f"{scores_path}: line {bad[0] + 2}: non-finite score")
    if len(smoothed) != len(labels):
        raise DataError(f"{scores_path}: {len(smoothed)} scores for "
                        f"{len(labels)} test points in {data_path}")
    return metrics.evaluate(smoothed, labels).to_dict(series.name)


@main.command("eval")
@click.option("--scores", "scores_path", type=click.Path(exists=True))
@click.option("--data", "data_path", type=click.Path(exists=True))
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--aggregate", "manifest_path", default=None, type=click.Path(exists=True),
              help="Manifest of dataset paths; per-dataset score CSVs are "
                   "looked up as <scores-dir>/<dataset>.scores.csv")
@click.option("--scores-dir", default=".", type=click.Path())
@click.option("--split", default=None, type=int)
def cmd_eval(scores_path, data_path, out_path, manifest_path, scores_dir, split):
    """Evaluate scores against labels; emits a report JSON."""
    if manifest_path:
        reports = []
        for path in read_manifest(manifest_path):
            stem = os.path.basename(path).rsplit(".", 1)[0]
            spath = os.path.join(scores_dir, stem + ".scores.csv")
            reports.append(_eval_report(path, spath, split))
        payload = {"mean": metrics.aggregate_reports(reports), "per_dataset": reports}
    else:
        if not scores_path or not data_path:
            raise click.UsageError("--scores and --data required without --aggregate")
        payload = _eval_report(data_path, scores_path, split)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    click.echo(text)


@main.command("inject")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--test-kind", required=True, type=click.Choice(augment.KINDS))
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True)
@click.option("--split", default=None, type=int)
def cmd_inject(data_path, out_dir, test_kind, seed, split):
    """Replace each labeled test anomaly with a chosen distortion kind;
    writes the distorted series plus a label file (generalization studies)."""
    series = _load_series(data_path, split)
    if series.labels is None or series.labels.sum() == 0:
        raise DataError(f"{data_path}: no labeled anomalies to replace")
    rng = np.random.default_rng(seed)
    values = series.values.copy()
    for s, e in metrics.anomaly_ranges(series.labels):
        values[s:e + 1] = augment.apply_kind(values[s:e + 1], test_kind, rng)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.basename(data_path).rsplit(".", 1)[0] + f"_{test_kind}"
    out_series = type(series)(values=values, name=stem, split=series.split,
                              labels=series.labels)
    path = synth.write_ucr_file(out_dir, out_series, stem=stem)
    label_path = os.path.join(out_dir, stem + ".labels.txt")
    with open(label_path, "w") as f:
        for v in series.labels:
            f.write("%d\n" % v)
    click.echo(f"wrote {path} and {label_path}")


BENCH_REPEATS = 3  # detect runs whose median bench reports
BENCH_STEP_BATCHES = (16, 128)  # batch sizes of the timed training steps
BENCH_STEP_PERIOD = 50  # T = 200, the acceptance fixture's window
BENCH_WARMUP, BENCH_STEPS = 20, 50  # training steps run, then timed


def _train_step_rows(seed):
    """Median forward (model.forward with keep_cache) and backward
    (model.backward) milliseconds of a T = 200 training step at each
    BENCH_STEP_BATCHES size, over BENCH_STEPS steps after BENCH_WARMUP, and
    the tracemalloc peak of one more, untimed, step: the timed steps run
    untraced."""
    model = CoopModel(CoopConfig.for_period(BENCH_STEP_PERIOD), seed=seed)
    c = model.config
    rng = np.random.default_rng(seed)
    rows = []
    for batch in BENCH_STEP_BATCHES:
        x = rng.normal(size=(batch, c.T))
        d_ac = rng.normal(size=(c.N, batch)) / (c.N * batch)
        d_xr = rng.normal(size=(batch, c.T)) / (batch * c.T)
        times = []
        for _ in range(BENCH_WARMUP + BENCH_STEPS):
            t0 = time.perf_counter()
            result = model.forward(x, keep_cache=True)
            t1 = time.perf_counter()
            model.backward(result.cache, d_ac, d_xr)
            times.append((t1 - t0, time.perf_counter() - t1))
        forward_ms, backward_ms = np.median(times[BENCH_WARMUP:], axis=0) * 1e3
        del result
        tracemalloc.start()
        try:
            model.backward(model.forward(x, keep_cache=True).cache, d_ac, d_xr)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        rows.append({"T": c.T, "batch": batch, "forward_ms": forward_ms,
                     "backward_ms": backward_ms, "peak_mb": peak_mb,
                     "steps": BENCH_STEPS, "warmup": BENCH_WARMUP})
    return rows


@main.command("bench")
@click.option("--points", default=1_000_000, type=click.IntRange(min=1), show_default=True)
@click.option("--period", default=50, type=click.IntRange(min=1), show_default=True)
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True)
@click.option("--json", "json_path", default=None, type=click.Path(dir_okay=False),
              help="Also time T = 200 training steps and trace one step's peak "
                   "memory, and write the measurements and the machine they ran "
                   "on as JSON")
def cmd_bench(points, period, seed, json_path):
    """Measure detect throughput (the median of BENCH_REPEATS runs) and peak
    memory on a generated series at default config; with --json also the
    forward and backward time of a training step and its tracemalloc peak."""
    if json_path is not None and not os.path.isdir(os.path.dirname(json_path) or "."):
        raise DataError(f"{json_path}: no such directory")
    values, _ = synth.gen_periodic(points, period, noise_std=0.05,
                                   anomalies=(), seed=seed)
    config = CoopConfig.for_period(period)
    model = CoopModel(config, seed=seed)
    n_params = model.num_params()
    click.echo(f"points={points} T={config.T} params={n_params}")
    runs = []
    for i in range(BENCH_REPEATS):
        t0 = time.perf_counter()
        result = score.detect(values, model)
        elapsed = time.perf_counter() - t0
        runs.append({"elapsed_s": elapsed, "points_per_s": len(result.scores) / elapsed})
        click.echo(f"run {i + 1}: elapsed={elapsed:.3f}s "
                   f"throughput={runs[-1]['points_per_s']:,.0f} points/s")
    elapsed = float(np.median([r["elapsed_s"] for r in runs]))
    throughput = float(np.median([r["points_per_s"] for r in runs]))
    # peak resident memory of the process; Linux reports ru_maxrss in KiB
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    click.echo(f"median of {BENCH_REPEATS}: elapsed={elapsed:.3f}s "
               f"throughput={throughput:,.0f} points/s peak_rss_mb={peak_rss_mb:.1f}")
    if json_path is not None:
        steps = _train_step_rows(seed)
        for step in steps:
            click.echo(f"train step T={step['T']} batch={step['batch']}: "
                       f"forward {step['forward_ms']:.2f} ms, backward "
                       f"{step['backward_ms']:.2f} ms (median of {step['steps']}), "
                       f"peak {step['peak_mb']:.1f} MB")
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        row = {"points": points, "period": period, "T": config.T, "params": n_params,
               "elapsed_s": elapsed, "points_per_s": throughput,
               "peak_rss_mb": peak_rss_mb, "runs": runs, "train_steps": steps,
               "nproc": os.cpu_count(),
               "numpy": np.__version__, "blas": blas.get("name"),
               "blas_version": blas.get("version"), "blas_threads": _openblas_threads()}
        with open(json_path, "w") as f:
            json.dump(row, f, indent=2)
            f.write("\n")


def _openblas_threads():
    """Thread count of the OpenBLAS bundled with NumPy's wheel, or None
    when NumPy uses another BLAS that does not report it this way."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


if __name__ == "__main__":
    main()
