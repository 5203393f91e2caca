"""The benchmark's workloads: inputs made from the seed, one operation, and
the check of that operation's outputs.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one has returned and been checked. coopad is driven
only through its public functions and the `coopad` command group
(`coopad.cli.main`), always looked up through the module attribute at call
time so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from coopad import augment, cli, data, metrics, model, score, synth, train

# Acceptance criterion 4: VUS-PR of the acceptance fit on the default
# fixture is 0.877 (model seed 0), gated at >= 0.8 and within 0.05.
BASELINE_VUS = 0.877
VUS_BAND = 0.05
VUS_FLOOR = 0.8
TOP1_FLOOR = 4
SPOT_POINTS = 3
SPOT_TOLERANCE = 1e-9
NOISE_STD = 0.05


@dataclass
class OpResult:
    """One operation: the work it did, the metered seconds, its outputs."""
    work: int
    seconds: float
    output: dict = field(default_factory=dict)


def vus_pr(scores, labels, max_buffer=None, steps=11):
    """VUS-PR as `metrics.vus_pr` documents it: the trapezoidal average of
    `metrics.range_auc_pr` over `steps` buffers in [0, max_buffer], with
    max_buffer defaulting to twice the average anomaly length. Written out
    here because `metrics.vus_pr` looks up `np.trapz`, which NumPy 2.x
    removed."""
    if max_buffer is None:
        max_buffer = 2.0 * metrics.average_anomaly_length(labels)
    if steps == 1 or max_buffer <= 0:
        return metrics.range_auc_pr(scores, labels, buffer=0.0)
    buffers = np.linspace(0.0, max_buffer, steps)
    values = np.array([metrics.range_auc_pr(scores, labels, buffer=b)
                       for b in buffers])
    area = float(((values[1:] + values[:-1]) * np.diff(buffers)).sum()) / 2.0
    return area / max_buffer


def top1_hits(scores, labels):
    """Criterion-4 localisation: each anomaly is judged as its own
    single-anomaly segment, split at midpoints between consecutive ranges."""
    ranges = metrics.anomaly_ranges(labels)
    bounds = ([0] + [(ranges[i][1] + ranges[i + 1][0]) // 2
                     for i in range(len(ranges) - 1)] + [len(labels)])
    return sum(metrics.topk_accuracy(scores[lo:hi], (s - lo, e - lo), k=1)
               for (s, e), lo, hi in zip(ranges, bounds[:-1], bounds[1:]))


def check_scores(series, n_points):
    """Problems with a ScoreSeries: wrong length, non-finite values,
    uncovered points."""
    problems = []
    if len(series.scores) != n_points or len(series.smoothed) != n_points:
        problems.append(f"{len(series.scores)} scores for {n_points} points")
    for name in ("scores", "smoothed"):
        bad = np.flatnonzero(~np.isfinite(getattr(series, name)))
        if len(bad):
            problems.append(f"{len(bad)} non-finite {name}, first at {bad[0]}")
    if len(series.coverage) and series.coverage.min() < 1:
        problems.append("uncovered points")
    return problems


class DetectWorkload:
    """`score.detect` with an untrained model on a generated periodic series.

    The series is generated once per set-up; each operation scores the next
    `op_points` slice of it, so a run at today's pace covers the whole series
    and reports the median over several detect calls.
    """

    def __init__(self, name, points, period, op_points, setups):
        self.name = name
        self.points = points
        self.period = period
        self.op_points = op_points
        self.setups = setups

    def setup(self, seed):
        self.values = self.model = None  # free the last set-up's operator first
        self.values, _ = synth.gen_periodic(self.points, self.period, NOISE_STD,
                                            anomalies=(), seed=seed)
        self.model = model.CoopModel(model.CoopConfig.for_period(self.period),
                                     seed=seed)
        self.spot_rng = np.random.default_rng(seed)

    def warmup(self):
        # Same size as an operation: a smaller call leaves the first timed
        # operation paying for heap growth.
        score.detect(self.segment(0), self.model)

    def segment(self, i):
        start = (i % (self.points // self.op_points)) * self.op_points
        return self.values[start:start + self.op_points]

    def op(self, i):
        seg = self.segment(i)
        t0 = perf_counter()
        result = score.detect(seg, self.model)
        seconds = perf_counter() - t0
        return OpResult(work=len(seg), seconds=seconds,
                        output={"segment": seg, "series": result})

    def check(self, r):
        seg, series = r.output["segment"], r.output["series"]
        problems = check_scores(series, len(seg))
        if problems:
            return problems
        return self.spot_check(seg, series)

    def spot_check(self, seg, series):
        """Re-score the windows that cover a few seeded points by hand and
        compare with what detect stitched for those points."""
        c = self.model.config
        origins = data.window_origins(len(seg), c.T, stride=max(1, c.T // 4))
        problems = []
        for p in self.spot_rng.integers(0, len(seg), size=SPOT_POINTS):
            cover = origins[(origins <= p) & (p < origins + c.T)]
            xb = np.stack([seg[o:o + c.T] for o in cover])
            per_window = score.pointwise_scores(xb, self.model.forward(xb), c.scoring)
            expect = float(np.mean([per_window[j, p - o] for j, o in enumerate(cover)]))
            if not abs(expect - series.scores[p]) <= SPOT_TOLERANCE:
                problems.append(f"point {p}: detect {series.scores[p]!r}, "
                                f"re-scored {expect!r}")
        return problems

    def report(self, results):
        return {"detect_points_per_s": (_median_rate(results), "1/s")}


class TrainFixtureWorkload:
    """The acceptance fit: 100 epochs at batch 16 on the default fixture,
    then detect on its test half, gated by criterion 4.

    The fixture is always `default_fixture(seed=7)`, the data the criterion-4
    band was calibrated on; the seed sets the model initialisation and the
    training randomness (window phase, shuffling, distortions).
    """

    name = "train_fixture"
    setups = 5
    epochs = 100
    batch = 16

    def setup(self, seed):
        self.seed = seed
        self.series, _ = synth.default_fixture(seed=7)
        norm = data.zscore(self.series.values, data.train_stats(self.series))
        self.train_values = norm[:self.series.split]
        self.test_values = norm[self.series.split:]
        self.period = data.estimate_period(self.train_values).period
        self.model = model.CoopModel(model.CoopConfig.for_period(self.period),
                                     seed=seed)

    def config(self, epochs):
        return train.TrainConfig(epochs=epochs, seed=self.seed, batch=self.batch)

    def warmup(self):
        m = copy.deepcopy(self.model)
        train.fit(self.train_values, self.period, m, self.config(1))
        score.detect(self.test_values, m)

    def op(self, i):
        m = copy.deepcopy(self.model)
        t0 = perf_counter()
        train.fit(self.train_values, self.period, m, self.config(self.epochs))
        seconds = perf_counter() - t0
        T = m.config.T
        windows = self.epochs * len(data.window_origins(len(self.train_values), T, stride=T))
        series = score.detect(self.test_values, m)
        return OpResult(work=windows * T, seconds=seconds,
                        output={"series": series, "windows": windows})

    def check(self, r):
        series = r.output["series"]
        problems = check_scores(series, len(self.test_values))
        if problems:
            return problems
        labels = self.series.test_labels
        vus = r.output["vus_pr"] = vus_pr(series.smoothed, labels)
        hits = r.output["top1_hits"] = top1_hits(series.smoothed, labels)
        if not (vus >= VUS_FLOOR and abs(vus - BASELINE_VUS) <= VUS_BAND):
            problems.append(f"VUS-PR {vus:.4f} outside {BASELINE_VUS}+/-{VUS_BAND} "
                            f"or below {VUS_FLOOR}")
        if not hits >= TOP1_FLOOR:
            problems.append(f"top-1 hits {hits} < {TOP1_FLOOR}")
        return problems

    def report(self, results):
        rates = [r.output["windows"] / r.seconds for r in results]
        scored = [r.output for r in results if "vus_pr" in r.output]
        out = {"train_windows_per_s": (float(np.median(rates)), "1/s")}
        if scored:
            out["vus_pr"] = (float(np.median([o["vus_pr"] for o in scored])), "1")
            out["top1_hits"] = (min(o["top1_hits"] for o in scored), "count")
        return out


class CliWorkload:
    """`coopad train --epochs 1` then `coopad detect` on a UCR text file,
    run in-process through `coopad.cli.main`."""

    name = "cli_long"
    setups = 3
    points = 400_000
    split = 200_000
    period = 50
    warm_points = 4_000

    def __init__(self, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer

    def _write(self, rng, points, split, stem):
        kind = augment.KINDS[int(rng.integers(len(augment.KINDS)))]
        length = int(rng.integers(40, 61))
        start = split + int(rng.integers(self.period * 8, points - split - self.period * 8))
        values, labels = synth.gen_periodic(
            points, self.period, NOISE_STD, anomalies=((kind, start, start + length - 1),),
            seed=int(rng.integers(2**31)))
        series = data.RawSeries(values=values, name=stem, split=split, labels=labels)
        return synth.write_ucr_file(self.workdir, series, stem=stem)

    def setup(self, seed):
        self.seed = seed
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.data_path = self._write(rng, self.points, self.split, "cli_long")
        self.warm_path = self._write(rng, self.warm_points, self.warm_points // 2, "cli_warm")

    def _train_and_detect(self, data_path, tag):
        tracer = self.tracer
        run_dir = os.path.join(self.workdir, f"run_{tag}")
        scores_path = os.path.join(self.workdir, f"{tag}.scores.csv")
        with tracer.region("cli.train", tracer.phase):
            code_train, log_train = run_cli(["train", "--data", data_path, "--out", run_dir,
                                             "--epochs", "1", "--seed", str(self.seed)])
        with tracer.region("cli.detect", tracer.phase):
            code_detect, log_detect = run_cli(["detect", "--run", run_dir, "--data", data_path,
                                               "--out", scores_path])
        return {"codes": (code_train, code_detect), "log": log_train + log_detect,
                "run_dir": run_dir, "scores_path": scores_path}

    def warmup(self):
        self._train_and_detect(self.warm_path, "warm")

    def op(self, i):
        t0 = perf_counter()
        out = self._train_and_detect(self.data_path, "long")
        seconds = perf_counter() - t0
        return OpResult(work=self.points, seconds=seconds, output=out)

    def check(self, r):
        out = r.output
        if out["codes"] != (0, 0):
            return [f"exit codes {out['codes']}: {out['log'][-500:]!r}"]
        with open(os.path.join(out["run_dir"], "config.json")) as f:
            period = json.load(f)["data"]["period"]
        problems = [] if period == self.period else [
            f"config.json period {period}, generated {self.period}"]
        scores, smoothed = score.read_scores_csv(out["scores_path"])
        n_test = self.points - self.split
        if len(scores) != n_test:
            problems.append(f"{len(scores)} score rows for {n_test} test points")
        if not (np.isfinite(scores).all() and np.isfinite(smoothed).all()):
            problems.append("non-finite scores in the scores CSV")
        return problems

    def report(self, results):
        return {"cli_points_per_s": (_median_rate(results), "1/s")}


def run_cli(argv):
    """Run one `coopad` command in-process; returns (exit code, its output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main.main(args=argv, prog_name="coopad", standalone_mode=False)
            code = 0
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, buf.getvalue()


def _median_rate(results):
    return float(np.median([r.work / r.seconds for r in results]))


def make(name, workdir, tracer):
    """The named workload; cli_long writes its files under workdir and opens
    its own cli.train/cli.detect spans on tracer."""
    if name == "detect_long":
        return DetectWorkload(name, points=1_000_000, period=50, op_points=200_000, setups=5)
    if name == "detect_wide":
        return DetectWorkload(name, points=400_000, period=500, op_points=200_000, setups=3)
    if name == "train_fixture":
        return TrainFixtureWorkload()
    if name == "cli_long":
        return CliWorkload(workdir, tracer)
    raise KeyError(name)
