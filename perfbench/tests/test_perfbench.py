"""Tests of the benchmark itself: its VUS-PR helper, its output checks, its
failure counting and its spans.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coopad import metrics  # noqa: E402
from coopad.model import CoopConfig, CoopModel  # noqa: E402
from test_metrics import oracle_vus, random_instance  # noqa: E402


def small_detect():
    return workloads.DetectWorkload("detect_small", points=4_000, period=20,
                                    op_points=2_000, setups=1)


class SmallCli(workloads.CliWorkload):
    points = 4_000
    split = 2_000
    warm_points = 2_000


def test_vus_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        scores, labels = random_instance(rng)
        mb = float(rng.uniform(0, 10))
        assert abs(workloads.vus_pr(scores, labels, max_buffer=mb)
                   - oracle_vus(scores, labels, mb)) < 1e-9
        default = 2.0 * metrics.average_anomaly_length(labels)
        assert abs(workloads.vus_pr(scores, labels)
                   - oracle_vus(scores, labels, default)) < 1e-9


class NanDetect(workloads.DetectWorkload):
    """Detect whose output gets one NaN score after detect returns."""

    def op(self, i):
        r = super().op(i)
        r.output["series"].scores[7] = np.nan
        return r


def test_nan_in_detect_output_is_a_failure():
    w = NanDetect("detect_nan", points=4_000, period=20, op_points=2_000,
                  setups=1)
    setup_times, results, failures = run.measure(w, tracing.Tracer(), seed=3, seconds=0)
    assert len(setup_times) == 1
    assert results == [] and len(failures) == 1
    assert "non-finite scores" in failures[0][0]


def test_spot_check_catches_a_wrong_score():
    w = small_detect()
    w.setup(seed=4)
    r = w.op(0)
    assert w.check(r) == []
    r.output["series"].scores += 1e-6
    problems = w.check(r)
    assert len(problems) == workloads.SPOT_POINTS


def test_raising_operation_is_a_failure():
    class Raising(workloads.DetectWorkload):
        def op(self, i):
            raise FloatingPointError("boom")

    w = Raising("detect_raise", points=4_000, period=20, op_points=2_000,
                setups=1)
    _, results, failures = run.measure(w, tracing.Tracer(), seed=0, seconds=0)
    assert results == [] and "FloatingPointError" in failures[0][0]


def test_cli_workload_checks_its_scores_csv(tmp_path):
    w = SmallCli(str(tmp_path), tracing.Tracer())
    w.setup(seed=2)
    r = w.op(0)
    assert r.output["codes"] == (0, 0)
    assert w.check(r) == []
    lines = Path(r.output["scores_path"]).read_text().splitlines()
    lines[5] = "4,nan,nan"
    Path(r.output["scores_path"]).write_text("\n".join(lines) + "\n")
    assert w.check(r) == ["non-finite scores in the scores CSV"]


def test_spans_label_gru_calls_and_give_self_time():
    import coopad.cli, coopad.model, coopad.numerics, coopad.score  # noqa: E401
    import coopad.spectral, coopad.train  # noqa: E401
    modules = {"cli": coopad.cli, "model": coopad.model, "numerics": coopad.numerics,
               "score": coopad.score, "spectral": coopad.spectral, "train": coopad.train}
    original = coopad.numerics.GruStack.forward
    tracer = tracing.Tracer()
    tracing.install(tracer, modules)
    try:
        with tracer.region("bench.op", "op"):
            model = CoopModel(CoopConfig(T=16, P=4, H=3, K=2, layers=2, frame_len=8))
            xb = np.random.default_rng(0).normal(size=(2, 16))
            res = model.forward(xb, keep_cache=True)
            model.backward(res.cache, np.ones((4, 2)), np.zeros((2, 16)))
    finally:
        tracer.uninstall()
    assert coopad.numerics.GruStack.forward is original
    names = [s.name for s in tracer.spans]
    for label in tracing.GRU_FORWARD_ORDER:
        assert names.count(f"numerics.gru_forward.{label}") == 1
        assert names.count(f"numerics.gru_backward.{label}") == 1
    summary = tracing.summarize(tracer.spans, n_setups=1, n_ops=1)
    fwd = summary["model.forward"]
    children = sum(summary[f"numerics.gru_forward.{lbl}"]["total_s"]
                   for lbl in tracing.GRU_FORWARD_ORDER)
    children += summary["spectral.stft_apply"]["total_s"]
    children += summary["model.mask_coefficients"]["total_s"]
    assert math.isclose(fwd["self_s"], fwd["total_s"] - children, rel_tol=1e-9, abs_tol=1e-12)
    assert summary["numerics.gru_forward.time"]["rows"] == 4 * 2 * 2
    assert summary["spectral.stft_matrix"]["bytes_max"] == 2 * 2 * 16 * 16 * 8


def test_every_registered_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    r = workloads.OpResult(work=10, seconds=2.0)
    assert set(run.end_to_end([1.0], [r])) == {m["name"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["per_layer"]]
    assert set(run.per_layer({}, names)) == set(names)


def test_unknown_per_layer_metric_is_refused():
    with pytest.raises(KeyError):
        run.per_layer({}, ["numerics.gru_forward"])
