"""Command-line front end: train, detect, eval, inject, bench.

Exit codes: 0 success, 2 usage error (also a train hyperparameter out of
range, or more --freq-bins than the period's STFT frame has), 3 data error
(also non-finite input values, a test region shorter than the window, a
config.json that is not valid JSON or lacks a field, or a model.ckpt that
is truncated or does not match config.json), 4 numeric failure
(also non-finite detect scores, in which case no scores CSV is written).
Every run directory is self-describing: config.json plus the seed are
enough to reproduce outputs bit-for-bit.
"""

from __future__ import annotations

import json
import os
import sys
import time

import click
import numpy as np

from . import augment, metrics, score, synth
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import (DataError, NormalizationStats, estimate_period, load_csv,
                   load_ucr, read_manifest, train_stats, zscore)
from .model import CoopConfig, CoopModel
from .train import NumericError, TrainConfig, fit

EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_series(path, split=None):
    if path.endswith(".csv"):
        return load_csv(path, split=split)
    return load_ucr(path)


def _fail(code, msg):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Cooperative time-series anomaly detection."""


@main.command("train")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=0, type=click.IntRange(min=0), show_default=True)
@click.option("--epochs", default=300, type=click.IntRange(min=0), show_default=True)
@click.option("--lr", default=0.002, type=click.FloatRange(min=0, min_open=True), show_default=True)
@click.option("--batch", default=128, type=click.IntRange(min=1), show_default=True)
@click.option("--lam", default=10.0, type=click.FloatRange(min=0), show_default=True)
@click.option("--hidden", default=24, type=click.IntRange(min=1), show_default=True)
@click.option("--layers", default=3, type=click.IntRange(min=1), show_default=True)
@click.option("--patch", default=8, type=click.IntRange(min=1), show_default=True)
@click.option("--freq-bins", default=4, type=click.IntRange(min=1), show_default=True)
@click.option("--masking", default="soft", type=click.Choice(["soft", "hard", "random", "grating"]), show_default=True)
@click.option("--granularity", default="patch", type=click.Choice(["patch", "step", "window"]), show_default=True)
@click.option("--fusion", default="max", type=click.Choice(["max", "mean", "feat_add", "feat_gate"]), show_default=True)
@click.option("--scoring", default="joint", type=click.Choice(["joint", "recon_only", "class_only"]), show_default=True)
@click.option("--exclude-kind", "exclude_kinds", multiple=True,
              type=click.Choice(augment.KINDS))
@click.option("--distortion-prob", default=0.9, type=click.FloatRange(0, 1), show_default=True)
@click.option("--split", default=None, type=int, help="CSV train/test split index")
def cmd_train(data_path, out_dir, seed, epochs, lr, batch, lam, hidden, layers,
              patch, freq_bins, masking, granularity, fusion, scoring,
              exclude_kinds, distortion_prob, split):
    """Fit a model; writes model.ckpt, config.json, train.csv."""
    try:
        series = _load_series(data_path, split)
        stats = train_stats(series)
        norm = zscore(series.values, stats)
        period = estimate_period(norm[: series.split]).period
        config = CoopConfig.for_period(
            period, P=patch, H=hidden, K=freq_bins, layers=layers, lam=lam,
            masking=masking, granularity=granularity, fusion=fusion,
            scoring=scoring)
        try:
            model = CoopModel(config, seed=seed)
        except ValueError as e:  # the flags' ranges hold; K <= frame_len/2 + 1 is left
            raise click.BadParameter(f"{e} (period {period})", param_hint="'--freq-bins'") from None
        tcfg = TrainConfig(lr=lr, epochs=epochs, batch=batch, seed=seed,
                           distortion_prob=distortion_prob,
                           exclude_kinds=tuple(exclude_kinds))
        active = [k for k in augment.KINDS if k not in exclude_kinds]
        click.echo(f"dataset={series.name} period={period} T={config.T} "
                   f"N={config.N} params={model.num_params()} "
                   f"active_kinds={len(active)} ({','.join(active)})")
        log = fit(norm[: series.split], period, model, tcfg)
    except DataError as e:
        _fail(EXIT_DATA, e)
    except NumericError as e:
        _fail(EXIT_NUMERIC, e)
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(os.path.join(out_dir, "model.ckpt"),
                    model.config_block(), model.tensors)
    run_cfg = {
        "model": config.to_dict(),
        "train": {"lr": lr, "epochs": epochs, "batch": batch, "seed": seed,
                  "distortion_prob": distortion_prob,
                  "exclude_kinds": list(exclude_kinds)},
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


def load_run(run_dir):
    """Rebuild a trained model from a run directory (config.json + model.ckpt).

    Returns (model, train-region NormalizationStats). Raises CheckpointError
    when config.json is not valid JSON, lacks a field or holds a bad value,
    or the checkpoint's config block, tensor names or shapes do not match it."""
    cfg_path = os.path.join(run_dir, "config.json")
    ckpt_path = os.path.join(run_dir, "model.ckpt")
    if not os.path.exists(cfg_path) or not os.path.exists(ckpt_path):
        raise DataError(f"{run_dir}: missing config.json or model.ckpt")
    try:
        with open(cfg_path, encoding="utf-8") as f:
            run_cfg = json.load(f)
        config = CoopConfig.from_dict(run_cfg["model"])
        model = CoopModel(config, seed=run_cfg["train"]["seed"])
        stats = NormalizationStats(float(run_cfg["data"]["norm_mean"]),
                                   float(run_cfg["data"]["norm_std"]))
    except KeyError as e:
        raise CheckpointError(f"{cfg_path}: missing field {e}") from e
    except (ValueError, TypeError) as e:
        raise CheckpointError(f"{cfg_path}: {e}") from e
    try:
        block, tensors = load_checkpoint(ckpt_path)
    except CheckpointError as e:
        raise CheckpointError(f"{ckpt_path}: {e}") from e
    if block != model.config_block():
        raise CheckpointError(
            f"{ckpt_path}: config block (T, P, H, K, layers, lam) = {block} "
            f"does not match config.json {model.config_block()}")
    try:
        model.load_tensors(tensors)
    except (KeyError, ValueError) as e:
        raise CheckpointError(f"{ckpt_path}: {e}") from e
    model.hard_threshold = run_cfg.get("hard_threshold")
    return model, stats


@main.command("detect")
@click.option("--run", "run_dir", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--scoring", default=None,
              type=click.Choice(["joint", "recon_only", "class_only"]))
@click.option("--split", default=None, type=int)
def cmd_detect(run_dir, data_path, out_path, scoring, split):
    """Score the test region of a dataset; writes a scores CSV."""
    try:
        model, stats = load_run(run_dir)
        series = _load_series(data_path, split)
        test = zscore(series.values, stats)[series.split:]
        result = score.detect(test, model, scoring=scoring)
    except (DataError, CheckpointError) as e:
        _fail(EXIT_DATA, e)
    except FloatingPointError as e:
        _fail(EXIT_NUMERIC, e)
    bad = np.flatnonzero(~np.isfinite(result.scores) | ~np.isfinite(result.smoothed))
    if bad.size:
        _fail(EXIT_NUMERIC, f"{bad.size} non-finite scores (first at test index "
                            f"{bad[0]}); no scores written")
    score.write_scores_csv(out_path, result)
    click.echo(f"wrote {len(result.scores)} scores to {out_path}")


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
    try:
        if manifest_path:
            reports = []
            for path in read_manifest(manifest_path):
                series = _load_series(path, split)
                stem = os.path.basename(path).rsplit(".", 1)[0]
                spath = os.path.join(scores_dir, stem + ".scores.csv")
                _, smoothed = score.read_scores_csv(spath)
                rep = metrics.evaluate(smoothed, series.test_labels)
                reports.append(rep.to_dict(series.name))
            table = metrics.aggregate_reports(reports)
            payload = {"mean": table, "per_dataset": reports}
        else:
            if not scores_path or not data_path:
                raise click.UsageError("--scores and --data required without --aggregate")
            series = _load_series(data_path, split)
            _, smoothed = score.read_scores_csv(scores_path)
            if series.test_labels is None:
                raise DataError(f"{data_path}: no labels to evaluate against")
            rep = metrics.evaluate(smoothed, series.test_labels)
            payload = rep.to_dict(series.name)
    except (DataError, metrics.MetricError, OSError) as e:
        _fail(EXIT_DATA, e)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    click.echo(text)


@main.command("inject")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--test-kind", required=True, type=click.Choice(augment.KINDS))
@click.option("--seed", default=0, show_default=True)
@click.option("--split", default=None, type=int)
def cmd_inject(data_path, out_dir, test_kind, seed, split):
    """Replace each labeled test anomaly with a chosen distortion kind;
    writes the distorted series plus a label file (generalization studies)."""
    try:
        series = _load_series(data_path, split)
        if series.labels is None or series.labels.sum() == 0:
            raise DataError(f"{data_path}: no labeled anomalies to replace")
        rng = np.random.default_rng(seed)
        values = series.values.copy()
        for s, e in metrics.anomaly_ranges(series.labels):
            seg, _ = augment.apply_kind(values[s:e + 1], test_kind, rng)
            values[s:e + 1] = seg
    except DataError as e:
        _fail(EXIT_DATA, e)
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


@main.command("bench")
@click.option("--points", default=1_000_000, show_default=True)
@click.option("--period", default=50, show_default=True)
@click.option("--seed", default=0, show_default=True)
def cmd_bench(points, period, seed):
    """Measure detect throughput on a generated series at default config."""
    values, _ = synth.gen_periodic(points, period, noise_std=0.05,
                                   anomalies=(), seed=seed)
    config = CoopConfig.for_period(period)
    model = CoopModel(config, seed=seed)
    n_params = model.num_params()
    t0 = time.perf_counter()
    result = score.detect(values, model)
    elapsed = time.perf_counter() - t0
    throughput = len(result.scores) / elapsed
    click.echo(f"points={points} T={config.T} params={n_params}")
    click.echo(f"elapsed={elapsed:.3f}s throughput={throughput:,.0f} points/s")


if __name__ == "__main__":
    main()
