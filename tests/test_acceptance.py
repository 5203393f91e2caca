"""End-to-end acceptance gate: one test per release criterion.

The empirical thresholds (criterion 4) were locked from the first verified
run of this pipeline: VUS-PR 0.877 on the default synthetic fixture, gated
at +/- 0.05 as a regression band.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from coopad import metrics
from coopad.cli import main as cli_main
from coopad.data import RawSeries, estimate_period, train_stats, zscore
from coopad.model import CoopConfig, CoopModel, mask_coefficients
from coopad.numerics import grad_check
from coopad.score import detect, pointwise_scores
from coopad.synth import default_fixture, gen_periodic, write_ucr_file
from coopad.train import TrainConfig, fit, loss_and_grads

from test_metrics import (oracle_auc_pr, oracle_f1, oracle_topk, oracle_vus,
                          random_instance)
from test_spectral import naive_frame_dft, stft

BASELINE_VUS = 0.877  # first verified run; regression band +/- 0.05


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- shared fixtures --------------------------------------------------------


@pytest.fixture(scope="module")
def synth():
    """Default fixture, normalized, with the estimated dominant period."""
    series, _ = default_fixture(seed=7)
    stats = train_stats(series)
    norm = zscore(series.values, stats)
    period = estimate_period(norm[: series.split]).period
    return {"series": series, "norm": norm, "period": period,
            "train": norm[: series.split], "test": norm[series.split:],
            "labels": series.test_labels}


def train_100(synth, seed=0, masking="soft", exclude=()):
    cfg = CoopConfig.for_period(synth["period"], masking=masking)
    model = CoopModel(cfg, seed=seed)
    fit(synth["train"], synth["period"], model,
        TrainConfig(epochs=100, seed=seed, batch=16, exclude_kinds=exclude))
    return model


@pytest.fixture(scope="module")
def soft_model(synth):
    t0 = time.perf_counter()
    model = train_100(synth)
    model._train_seconds = time.perf_counter() - t0
    return model


# -- criterion 1: gradient certification -------------------------------------


def test_01_gradient_certification():
    t0 = time.perf_counter()
    cfg = CoopConfig(T=16, P=4, H=3, K=2, layers=1, frame_len=8)
    model = CoopModel(cfg, seed=0)
    rng = np.random.default_rng(0)
    x_clean = rng.normal(size=(2, 16))
    x_dist = x_clean + rng.normal(0, 0.3, size=(2, 16))
    labels = np.array([[0, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int8)

    def loss():
        lb, _ = loss_and_grads(model, x_dist, x_clean, labels)
        return lb.total

    _, grads = loss_and_grads(model, x_dist, x_clean, labels)
    rep = grad_check(loss, model.tensors, grads, h=1e-5)
    worst_name = max(rep, key=rep.get)
    worst = rep[worst_name]
    elapsed = time.perf_counter() - t0
    report("criterion 1 (gradient certification)",
           worst < 1e-3 and elapsed < 30.0,
           f"max rel err {worst:.3e} ({worst_name}), {elapsed:.1f}s")


# -- criterion 2: metric oracle equivalence -----------------------------------


def test_02_metric_oracles():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(500):
        scores, labels = random_instance(rng)
        worst = max(
            worst,
            abs(metrics.standard_f1(scores, labels) - oracle_f1(scores, labels)),
            abs(metrics.auc_pr(scores, labels) - oracle_auc_pr(scores, labels, 0.0)))
        buf = float(rng.uniform(0, 8))
        worst = max(worst, abs(metrics.range_auc_pr(scores, labels, buffer=buf)
                               - oracle_auc_pr(scores, labels, buf)))
        mb = float(rng.uniform(0, 10))
        worst = max(worst, abs(metrics.vus_pr(scores, labels, max_buffer=mb)
                               - oracle_vus(scores, labels, mb)))
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(300, 1500))
        s = rng.normal(size=n)
        a = int(rng.integers(0, n - 10))
        b = a + int(rng.integers(0, 10))
        for k in (1, 3, 5):
            if metrics.topk_accuracy(s, (a, b), k) != oracle_topk(s, (a, b), k):
                mismatches += 1
    report("criterion 2 (metric oracles)",
           worst < 1e-9 and mismatches == 0,
           f"max |diff| {worst:.2e} over 500 instances, "
           f"{mismatches} top-k mismatches over 100 fixtures")


# -- criterion 3: masking semantics -------------------------------------------


def test_03_masking_semantics():
    cfg = CoopConfig(T=16, P=4, H=3, K=2, layers=1, frame_len=8)
    model = CoopModel(cfg, seed=0)
    xb = np.random.default_rng(1).normal(size=(2, 16))
    res = model.forward(xb, keep_cache=True)
    z = res.cache["z"]
    em_tok = model.tensors["e_mask"].T[:, None, :]
    # endpoint properties of the blend, checked exactly
    for coeff_val, expect in ((0.0, z), (1.0, np.broadcast_to(em_tok, z.shape))):
        coeff = np.full(z.shape[:2], coeff_val)
        blended = coeff[..., None] * em_tok + (1.0 - coeff)[..., None] * z
        assert np.array_equal(blended, expect)
    # grating: fixed alternating binary pattern over patches
    gcfg = CoopConfig(T=16, P=4, H=3, K=2, layers=1, frame_len=8,
                      masking="grating")
    a = np.full((4, 2), 0.5)
    gcoeff, gflow = mask_coefficients(a, gcfg)
    ok_grating = (gflow is False
                  and gcoeff[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]
                  and np.array_equal(gcoeff[:, 0], gcoeff[:, 1]))
    # random: Bernoulli at the configured rate, strictly binary
    rcfg = CoopConfig(T=16, P=4, H=3, K=2, layers=1, frame_len=8,
                      masking="random")
    rcoeff, rflow = mask_coefficients(np.zeros((200, 200)), rcfg,
                                      rng=np.random.default_rng(2))
    ok_random = (rflow is False
                 and set(np.unique(rcoeff)) <= {0.0, 1.0}
                 and abs(rcoeff.mean() - 0.25) < 0.02)
    report("criterion 3 (masking semantics)", ok_grating and ok_random,
           "blend endpoints exact; grating alternates; random rate "
           f"{rcoeff.mean():.3f}")


# -- criterion 4: synthetic end-to-end ----------------------------------------


def test_04_synthetic_end_to_end(synth, soft_model):
    t0 = time.perf_counter()
    res = detect(synth["test"], soft_model)
    labels = synth["labels"]
    vus = metrics.vus_pr(res.smoothed, labels)
    ranges = metrics.anomaly_ranges(labels)
    # each anomaly judged as its own single-anomaly segment (KDD21 style):
    # split the test region at midpoints between consecutive ranges
    bounds = [0] + [(ranges[i][1] + ranges[i + 1][0]) // 2
                    for i in range(len(ranges) - 1)] + [len(labels)]
    hits = sum(metrics.topk_accuracy(res.smoothed[lo:hi], (s - lo, e - lo), k=1)
               for (s, e), lo, hi in zip(ranges, bounds[:-1], bounds[1:]))
    elapsed = soft_model._train_seconds + (time.perf_counter() - t0)
    ok = (vus >= 0.8
          and abs(vus - BASELINE_VUS) <= 0.05
          and hits >= 4
          and elapsed < 600.0)
    report("criterion 4 (synthetic end-to-end)", ok,
           f"VUS-PR {vus:.4f} (baseline {BASELINE_VUS}+/-0.05), "
           f"top-1 hits {hits}/5, {elapsed:.0f}s")


# -- criterion 5: cooperation directionality ----------------------------------


def test_05_cooperation_directionality(synth, soft_model):
    labels = synth["labels"]
    a_joint = metrics.auc_pr(detect(synth["test"], soft_model).smoothed, labels)
    a_recon = metrics.auc_pr(
        detect(synth["test"], soft_model, scoring="recon_only").smoothed, labels)
    rand_model = train_100(synth, masking="random")
    a_rand = metrics.auc_pr(detect(synth["test"], rand_model).smoothed, labels)
    ok = a_joint >= a_rand - 0.05 and a_joint >= a_recon - 0.05
    report("criterion 5 (cooperation directionality)", ok,
           f"joint {a_joint:.4f} vs random-mask {a_rand:.4f} "
           f"and recon-only {a_recon:.4f} (tolerance 0.05)")


# -- criterion 6: generalization to an excluded distortion ---------------------


def test_06_generalization_excluded_kind(synth):
    model = train_100(synth, exclude=("mirror_flip",))
    anoms = tuple(("mirror_flip", s, e) for s, e in
                  [(11200, 11239), (13000, 13044), (14800, 14849),
                   (16500, 16539), (18200, 18234)])
    values, labels = gen_periodic(20_000, 50, 0.05, anoms, seed=7)
    series = RawSeries(values=values, name="mf", split=10_000, labels=labels)
    norm = zscore(series.values, train_stats(series))
    test, test_labels = norm[series.split:], series.test_labels
    a_joint = metrics.auc_pr(detect(test, model).smoothed, test_labels)
    a_cls = metrics.auc_pr(detect(test, model, scoring="class_only").smoothed,
                           test_labels)
    report("criterion 6 (generalization, excluded mirror_flip)",
           a_joint >= a_cls,
           f"joint {a_joint:.4f} >= class-only {a_cls:.4f}")


# -- criterion 7: efficiency ---------------------------------------------------


def test_07_efficiency():
    values, _ = gen_periodic(1_000_000, 50, noise_std=0.05, anomalies=(),
                             seed=0)
    config = CoopConfig.for_period(50)
    model = CoopModel(config, seed=0)
    expected = sum(int(np.prod(v.shape)) for v in model.tensors.values())
    t0 = time.perf_counter()
    res = detect(values, model)
    elapsed = time.perf_counter() - t0
    throughput = len(res.scores) / elapsed
    ok = throughput >= 50_000 and model.num_params() == expected
    report("criterion 7 (efficiency)", ok,
           f"{throughput:,.0f} points/s on 1e6 points, "
           f"params {model.num_params()} (shape sum {expected})")


# -- criterion 8: determinism --------------------------------------------------


def test_08_determinism(tmp_path):
    values, labels = gen_periodic(1600, 20, 0.05,
                                  [("uniform_replacement", 1200, 1239)],
                                  seed=0)
    series = RawSeries(values=values, name="d", split=800, labels=labels)
    data = write_ucr_file(str(tmp_path), series, stem="det")
    outputs = []
    for tag in ("a", "b"):
        run = tmp_path / f"run_{tag}"
        scores = tmp_path / f"{tag}.scores.csv"
        rep = tmp_path / f"{tag}.report.json"
        r = CliRunner().invoke(cli_main, [
            "train", "--data", data, "--out", str(run), "--epochs", "3",
            "--batch", "8", "--hidden", "6", "--layers", "1", "--seed", "11"])
        assert r.exit_code == 0, r.output
        r = CliRunner().invoke(cli_main, ["detect", "--run", str(run),
                                          "--data", data, "--out", str(scores)])
        assert r.exit_code == 0, r.output
        r = CliRunner().invoke(cli_main, ["eval", "--scores", str(scores),
                                          "--data", data, "--out", str(rep)])
        assert r.exit_code == 0, r.output
        outputs.append(((run / "model.ckpt").read_bytes(),
                        scores.read_bytes(), rep.read_bytes()))
    same = [a == b for a, b in zip(outputs[0], outputs[1])]
    report("criterion 8 (determinism)", all(same),
           f"checkpoint/scores/report byte-identical: {same}")


# -- criterion 9: STFT oracle --------------------------------------------------


def test_09_stft_oracle():
    rng = np.random.default_rng(9)
    worst = 0.0
    checked = 0
    while checked < 200:
        T, fl, K = 40, 10, 4
        x = rng.normal(size=T)
        spec = stft(x, K=K, frame_len=fl)
        w = np.ones(fl)  # boxcar
        for t in rng.choice(T, size=5, replace=False):
            ref = naive_frame_dft(x, int(t), fl, K, w, T)
            col = np.concatenate([spec[:K, t], spec[K:, t]])
            worst = max(worst, float(np.max(np.abs(col - ref))))
            checked += 1
    dc = stft(np.full(64, 3.0), K=4, frame_len=8)
    off_dc = float(np.max(np.abs(dc[1:])))
    ok = worst < 1e-9 and off_dc < 1e-9
    report("criterion 9 (STFT oracle)", ok,
           f"max |naive DFT diff| {worst:.2e} over {checked} frames, "
           f"off-DC energy {off_dc:.2e}")


# -- criterion 10: aggregate evaluation layout ---------------------------------


def test_10_aggregate_layout(tmp_path):
    paths = []
    for i, kind in enumerate(("uniform_replacement", "jittering")):
        values, labels = gen_periodic(1600, 20, 0.05, [(kind, 1200, 1239)],
                                      seed=i)
        series = RawSeries(values=values, name=f"ds{i}", split=800,
                           labels=labels)
        paths.append(write_ucr_file(str(tmp_path), series, stem=f"ds{i}"))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(paths) + "\n")
    run = tmp_path / "run"
    r = CliRunner().invoke(cli_main, [
        "train", "--data", paths[0], "--out", str(run), "--epochs", "2",
        "--batch", "8", "--hidden", "4", "--layers", "1"])
    assert r.exit_code == 0, r.output
    for p in paths:
        stem = p.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        r = CliRunner().invoke(cli_main, [
            "detect", "--run", str(run), "--data", p,
            "--out", str(tmp_path / f"{stem}.scores.csv")])
        assert r.exit_code == 0, r.output
    r = CliRunner().invoke(cli_main, ["eval", "--aggregate", str(manifest),
                                      "--scores-dir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output[r.output.index("{"):])
    metric_keys = {"f1", "auc_pr", "r_auc_pr", "vus_pr", "top1", "top3", "top5"}
    ok = (payload["mean"]["datasets"] == 2
          and metric_keys <= set(payload["mean"])
          and len(payload["per_dataset"]) == 2
          and all(metric_keys | {"dataset"} <= set(d)
                  for d in payload["per_dataset"]))
    report("criterion 10 (aggregate layout)", ok,
           f"mean keys {sorted(payload['mean'])}")
