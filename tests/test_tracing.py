"""perfbench's span tracer, loaded unedited from perfbench/tracing.py, around
detect, one training epoch and the CLI.

The tracer wraps coopad functions by name and its counters read their
arguments and results, so a renamed function or a changed return type
breaks a traced benchmark run (`perfbench/run.py --trace 1`) even where
every other test passes. These tests run the same wrapping.
"""

import importlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from coopad import cli, score, train
from coopad.data import RawSeries, window_origins
from coopad.model import CoopConfig, CoopModel
from coopad.synth import gen_periodic, write_ucr_file

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"coopad.{name}")
               for name in ("cli", "model", "numerics", "score", "spectral", "train")}
    t = tracing.Tracer()
    tracing.install(t, modules)
    yield t
    t.uninstall()


def spans(tracer, name):
    return [s for s in tracer.spans if s.name == name]


def small_model(period=20):
    return CoopModel(CoopConfig.for_period(period, H=4, layers=1), seed=0)


def test_detect_counts_its_windows_and_coverage(tracer):
    model = small_model()
    x, _ = gen_periodic(6000, 20, 0.05, (), seed=1)
    series = score.detect(x, model)
    T = model.config.T
    windows = [s.counts["windows"] for s in spans(tracer, "score.make_windows")]
    assert sum(windows) == len(window_origins(len(x), T, stride=T // 4))
    (span,) = spans(tracer, "score.detect")
    assert span.counts == {"coverage_sum": float(series.coverage.sum()),
                           "points": len(x)}
    for name in ("score.pointwise_scores", "score.stitch", "score.smooth",
                 "spectral.stft_apply", "model.forward"):
        assert spans(tracer, name), name


def test_fit_epoch_counts_gru_rows(tracer):
    model = small_model()
    x, _ = gen_periodic(2000, 20, 0.05, (), seed=2)
    train.fit(x, 20, model, train.TrainConfig(epochs=1, batch=8, seed=0))
    assert len(spans(tracer, "train.fit")) == 1
    windows = len(spans(tracer, "augment.distort"))
    batches = len(spans(tracer, "train.loss_and_grads"))
    assert batches == len(spans(tracer, "numerics.adam_step")) == -(-windows // 8)
    rows = sum(s.counts["rows"] for s in spans(tracer, "numerics.gru_forward.time"))
    assert rows == model.config.N * windows * len(model.gru_time.layers)
    assert len(spans(tracer, "numerics.gru_backward.time")) == batches


def test_cli_train_and_detect(tracer, tmp_path):
    values, labels = gen_periodic(1600, 20, 0.05, [("uniform_replacement", 1200, 1239)],
                                  seed=0)
    path = write_ucr_file(str(tmp_path), RawSeries(values=values, name="t", split=800,
                                                   labels=labels), stem="t")
    run = tmp_path / "run"
    r = CliRunner().invoke(cli.main, ["train", "--data", path, "--out", str(run),
                                      "--epochs", "1", "--batch", "8", "--hidden", "4",
                                      "--layers", "1"])
    assert r.exit_code == 0, r.output
    out = tmp_path / "s.csv"
    r = CliRunner().invoke(cli.main, ["detect", "--run", str(run), "--data", path,
                                      "--out", str(out)])
    assert r.exit_code == 0, r.output
    (save,) = spans(tracer, "checkpoint.save")
    assert save.counts["bytes"] == os.path.getsize(run / "model.ckpt")
    for name in ("data.load_ucr", "data.estimate_period", "data.zscore", "train.fit",
                 "checkpoint.load", "score.detect", "score.write_scores_csv"):
        assert spans(tracer, name), name
    (detect,) = spans(tracer, "score.detect")
    assert detect.counts["points"] == 800
    assert np.isfinite(score.read_scores_csv(str(out))[0]).all()
