import errno
import json
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from coopad import cli
from coopad.checkpoint import load_checkpoint, save_checkpoint
from coopad.cli import main
from coopad.data import RawSeries
from coopad.synth import gen_periodic, write_ucr_file


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small labeled series on disk (UCR naming) plus a manifest."""
    root = tmp_path_factory.mktemp("data")
    values, labels = gen_periodic(1600, 20, 0.05,
                                  [("uniform_replacement", 1200, 1239)],
                                  seed=0)
    series = RawSeries(values=values, name="demo", split=800, labels=labels)
    path = write_ucr_file(str(root), series, stem="demo")
    manifest = root / "manifest.txt"
    manifest.write_text("# tiny corpus\n" + path + "\n")
    return {"path": path, "manifest": str(manifest), "root": root}


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def train_args(dataset, out, extra=()):
    return ["train", "--data", dataset["path"], "--out", out,
            "--epochs", "2", "--batch", "4", "--hidden", "4", "--layers", "1",
            "--seed", "0", *extra]


class TestTrain:
    def test_writes_run_dir(self, dataset, tmp_path):
        out = tmp_path / "run"
        r = run_cli(train_args(dataset, str(out)))
        assert r.exit_code == 0, r.output
        assert (out / "model.ckpt").exists()
        assert (out / "train.csv").exists()
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["model"]["H"] == 4
        assert cfg["data"]["split"] == 800
        assert cfg["data"]["period"] == 20
        assert "period=20" in r.output
        lines = (out / "train.csv").read_text().splitlines()
        assert lines[0] == "epoch,bce,mse,total,seconds"
        assert len(lines) == 3

    def test_huge_lam_trains(self, dataset, tmp_path):
        # lam 1e200 overflows the gradients' sum of squares; clip_grads
        # rescales instead of zeroing them, so one epoch moves the model
        untrained, trained = tmp_path / "e0", tmp_path / "e1"
        for out, epochs in ((untrained, "0"), (trained, "1")):
            r = run_cli(train_args(dataset, str(out), ["--lam", "1e200",
                                                       "--epochs", epochs]))
            assert r.exit_code == 0, r.output
        assert (trained / "model.ckpt").read_bytes() != \
            (untrained / "model.ckpt").read_bytes()

    def test_exclude_kind_echoed(self, dataset, tmp_path):
        r = run_cli(train_args(dataset, str(tmp_path / "run"),
                               ["--exclude-kind", "mirror_flip"]))
        assert r.exit_code == 0
        assert "active_kinds=3" in r.output
        assert "mirror_flip" not in r.output.split("active_kinds")[1]

    def test_missing_data_usage_error(self, tmp_path):
        r = CliRunner().invoke(main, ["train", "--data", "/nope.txt",
                                      "--out", str(tmp_path / "x")])
        assert r.exit_code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--hidden", "0"), ("--layers", "0"), ("--patch", "0"),
        ("--freq-bins", "0"), ("--freq-bins", "99"), ("--lam", "-1"),
        ("--batch", "0"), ("--lr", "0"), ("--epochs", "-1"),
        ("--distortion-prob", "2"), ("--seed", "-1"), ("--lr", "nan"), ("--lr", "inf"),
        ("--lam", "inf"), ("--distortion-prob", "nan")])
    def test_bad_hyperparameter_usage_error(self, dataset, tmp_path, flag, value):
        out = tmp_path / "run"
        r = CliRunner().invoke(main, train_args(dataset, str(out), [flag, value]))
        assert r.exit_code == 2, r.output
        assert flag in r.output
        assert not out.exists()

    def test_freq_bins_over_the_period_frame(self, dataset, tmp_path):
        # period 20 gives frame_len 20, which has 20/2 + 1 = 11 bins
        r = CliRunner().invoke(main, train_args(dataset, str(tmp_path / "run"),
                                                ["--freq-bins", "12"]))
        assert r.exit_code == 2, r.output
        assert "K=12 exceeds frame_len//2+1=11 (period 20)" in r.output

    def test_bad_filename_data_error(self, tmp_path):
        bad = tmp_path / "plain.txt"
        bad.write_text("1.0\n2.0\n")
        r = CliRunner().invoke(main, ["train", "--data", str(bad),
                                      "--out", str(tmp_path / "x")])
        assert r.exit_code == 3


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    r = run_cli(train_args(dataset, str(out)))
    assert r.exit_code == 0
    return str(out)


class TestDetectEval:
    def test_detect_and_eval(self, dataset, run_dir, tmp_path):
        scores = tmp_path / "demo.scores.csv"
        r = run_cli(["detect", "--run", run_dir, "--data", dataset["path"],
                     "--out", str(scores)])
        assert r.exit_code == 0, r.output
        lines = scores.read_text().splitlines()
        assert lines[0] == "index,score,smoothed"
        assert len(lines) == 801  # header + test region

        report = tmp_path / "report.json"
        r = run_cli(["eval", "--scores", str(scores),
                     "--data", dataset["path"], "--out", str(report)])
        assert r.exit_code == 0, r.output
        payload = json.loads(report.read_text())
        for key in ("f1", "auc_pr", "r_auc_pr", "vus_pr", "top1", "top3",
                    "top5", "dataset"):
            assert key in payload
        assert 0.0 <= payload["auc_pr"] <= 1.0

    def test_eval_aggregate(self, dataset, run_dir, tmp_path):
        stem = dataset["path"].rsplit("/", 1)[-1].rsplit(".", 1)[0]
        scores = tmp_path / (stem + ".scores.csv")
        run_cli(["detect", "--run", run_dir, "--data", dataset["path"],
                 "--out", str(scores)])
        r = run_cli(["eval", "--aggregate", dataset["manifest"],
                     "--scores-dir", str(tmp_path)])
        assert r.exit_code == 0, r.output
        payload = json.loads(r.output[r.output.index("{"):])
        assert payload["mean"]["datasets"] == 1
        assert len(payload["per_dataset"]) == 1
        assert set(payload["mean"]) >= {"datasets", "f1", "auc_pr",
                                        "r_auc_pr", "vus_pr"}

    @pytest.mark.parametrize("row, message", [
        (b"2,0.5", "line 4: 2 fields, expected 3"),
        (b"2,abc,0.5", "line 4: could not convert string to float: 'abc'"),
        (b"2,\xff,0.5", "not UTF-8 text"),
    ], ids=["short_row", "not_a_number", "not_utf8"])
    def test_eval_damaged_scores_csv(self, dataset, tmp_path, row, message):
        scores = tmp_path / "s.csv"
        scores.write_bytes(b"index,score,smoothed\n0,0.1,0.1\n1,0.2,0.2\n"
                           + row + b"\n3,0.3,0.3\n")
        r = CliRunner().invoke(main, ["eval", "--scores", str(scores),
                                      "--data", dataset["path"]])
        assert r.exit_code == 3, r.output
        assert f"{scores}: {message}" in r.output
        assert "Traceback" not in r.output

    def test_eval_non_numeric_index(self, dataset, tmp_path):
        # a row is three numbers: the index field is parsed too
        scores = tmp_path / "s.csv"
        scores.write_text("index,score,smoothed\nabc,1.0,2.0\n"
                          + "".join(f"{i},0.5,0.5\n" for i in range(1, 800)))
        r = CliRunner().invoke(main, ["eval", "--scores", str(scores),
                                      "--data", dataset["path"]])
        assert r.exit_code == 3, r.output
        assert (f"error: {scores}: line 2: could not convert string to float: "
                f"'abc'") in r.output

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("aggregate", [False, True], ids=["single", "aggregate"])
    def test_eval_non_finite_score(self, dataset, tmp_path, value, aggregate):
        stem = dataset["path"].rsplit("/", 1)[-1].rsplit(".", 1)[0]
        scores = tmp_path / (stem + ".scores.csv")
        rows = [f"{i},0.5,0.5\n" for i in range(800)]
        rows[5] = f"5,{value},0.5\n"
        scores.write_text("index,score,smoothed\n" + "".join(rows))
        args = (["--aggregate", dataset["manifest"], "--scores-dir", str(tmp_path)]
                if aggregate else ["--scores", str(scores), "--data", dataset["path"]])
        r = CliRunner().invoke(main, ["eval", *args])
        assert r.exit_code == 3, r.output
        assert f"error: {scores}: line 7: non-finite score" in r.output

    def test_eval_scores_length_mismatch(self, dataset, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("index,score,smoothed\n"
                          + "".join(f"{i},0.5,0.5\n" for i in range(799)))
        r = CliRunner().invoke(main, ["eval", "--scores", str(scores),
                                      "--data", dataset["path"]])
        assert r.exit_code == 3, r.output
        assert (f"error: {scores}: 799 scores for 800 test points in "
                f"{dataset['path']}") in r.output

    def test_eval_aggregate_without_labels(self, tmp_path):
        values, _ = gen_periodic(400, 20, 0.05, (), seed=0)
        data = tmp_path / "series.csv"
        data.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        manifest = tmp_path / "list.txt"
        manifest.write_text(f"{data}\n")
        (tmp_path / "series.scores.csv").write_text(
            "index,score,smoothed\n" + "".join(f"{i},0.5,0.5\n" for i in range(200)))
        r = CliRunner().invoke(main, ["eval", "--aggregate", str(manifest),
                                      "--scores-dir", str(tmp_path)])
        assert r.exit_code == 3, r.output
        assert f"error: {data}: no labels to evaluate against" in r.output

    def test_detect_csv_uses_the_recorded_split(self, tmp_path):
        values, _ = gen_periodic(1600, 20, 0.05, (), seed=0)
        data = tmp_path / "series.csv"
        data.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        run = tmp_path / "run"
        r = run_cli(["train", "--data", str(data), "--out", str(run), "--split", "1000",
                     "--epochs", "1", "--batch", "4", "--hidden", "4", "--layers", "1"])
        assert r.exit_code == 0, r.output
        assert json.loads((run / "config.json").read_text())["data"]["split"] == 1000
        out = tmp_path / "s.csv"
        r = run_cli(["detect", "--run", str(run), "--data", str(data), "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert "wrote 600 scores" in r.output
        # an explicit --split still wins
        r = run_cli(["detect", "--run", str(run), "--data", str(data), "--out", str(out),
                     "--split", "800"])
        assert "wrote 800 scores" in r.output

    def test_eval_requires_inputs(self):
        r = CliRunner().invoke(main, ["eval"])
        assert r.exit_code == 2

    def test_detect_missing_run(self, dataset, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        r = CliRunner().invoke(
            main, ["detect", "--run", str(empty), "--data", dataset["path"],
                   "--out", str(tmp_path / "s.csv")])
        assert r.exit_code == 3

    def test_detect_determinism(self, dataset, run_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(["detect", "--run", run_dir, "--data", dataset["path"],
                     "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


def copy_run(run_dir, tmp_path):
    out = tmp_path / "run_copy"
    shutil.copytree(run_dir, out)
    return out


def rewrite_checkpoint(run, edit):
    """edit(block, tensors) -> (block, tensors), written back to model.ckpt."""
    path = str(run / "model.ckpt")
    block, tensors = edit(*load_checkpoint(path))
    save_checkpoint(path, block, tensors)


def edit_json(text, edit):
    cfg = json.loads(text)
    edit(cfg)
    return json.dumps(cfg)


def detect(run, data_path, out):
    return CliRunner().invoke(main, ["detect", "--run", str(run), "--data",
                                     data_path, "--out", str(out)])


class TestRunDirChecks:
    def test_config_block_mismatch(self, dataset, run_dir, tmp_path):
        run = copy_run(run_dir, tmp_path)
        cfg = json.loads((run / "config.json").read_text())
        cfg["model"]["lam"] = 5.0
        (run / "config.json").write_text(json.dumps(cfg))
        out = tmp_path / "s.csv"
        r = detect(run, dataset["path"], out)
        assert r.exit_code == 3
        assert "config block" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("name, edit", [
        ("w_extra", lambda t: {**t, "w_extra": t["w_out"]}),
        ("w_out", lambda t: {**t, "w_out": t["w_out"].T}),
    ], ids=["extra_tensor", "transposed_tensor"])
    def test_tensor_mismatch(self, dataset, run_dir, tmp_path, name, edit):
        run = copy_run(run_dir, tmp_path)
        rewrite_checkpoint(run, lambda block, t: (block, edit(t)))
        r = detect(run, dataset["path"], tmp_path / "s.csv")
        assert r.exit_code == 3
        assert name in r.output

    def test_nan_weight_refuses_to_write_scores(self, dataset, run_dir, tmp_path):
        run = copy_run(run_dir, tmp_path)

        def poison(block, tensors):
            tensors["w_out"][0, 0] = np.nan
            return block, tensors
        rewrite_checkpoint(run, poison)
        out = tmp_path / "s.csv"
        r = detect(run, dataset["path"], out)
        assert r.exit_code == 4
        assert "non-finite scores" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace('"model":', '"model"', 1),
         "Expecting ':' delimiter"),
        (lambda text: edit_json(text, lambda c: c["data"].pop("norm_std")),
         "missing field 'norm_std'"),
        (lambda text: edit_json(text, lambda c: c["model"].update(masking="fuzzy")),
         "masking must be one of"),
        (lambda text: edit_json(text, lambda c: c.update(model=[])),
         "model settings must be an object, not list"),
        (lambda text: edit_json(text, lambda c: c["data"].update(split=1.5)),
         "split must be an integer, not 1.5"),
        (lambda text: edit_json(text, lambda c: c["model"].update(lamm=99)),
         "lamm is not a model setting"),
    ], ids=["invalid_json", "missing_norm_std", "unknown_masking", "model_not_object",
            "split_not_integer", "unknown_model_key"])
    def test_malformed_config(self, dataset, run_dir, tmp_path, edit, message):
        run = copy_run(run_dir, tmp_path)
        cfg = run / "config.json"
        cfg.write_text(edit(cfg.read_text()))
        out = tmp_path / "s.csv"
        r = detect(run, dataset["path"], out)
        assert r.exit_code == 3, r.output
        assert f"config.json: {message}" in r.output
        assert "Traceback" not in r.output
        assert not out.exists()

    def test_truncated_checkpoint(self, dataset, run_dir, tmp_path):
        run = copy_run(run_dir, tmp_path)
        ckpt = run / "model.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-12])
        out = tmp_path / "s.csv"
        r = detect(run, dataset["path"], out)
        assert r.exit_code == 3
        assert "checksum mismatch: the file is truncated or altered" in r.output
        assert "Traceback" not in r.output
        assert not out.exists()

    def test_non_utf8_tensor_name(self, dataset, run_dir, tmp_path):
        run = copy_run(run_dir, tmp_path)
        ckpt = run / "model.ckpt"
        body = bytearray(ckpt.read_bytes()[:-4])
        body[44] = 0xFF  # first byte of the first tensor's name
        ckpt.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        out = tmp_path / "s.csv"
        r = detect(run, dataset["path"], out)
        assert r.exit_code == 3
        assert ("malformed checkpoint record: 'utf-8' codec can't decode byte 0xff "
                "in position 0") in r.output
        assert "Traceback" not in r.output
        assert not out.exists()


class TestShortTestRegion:
    def test_test_region_shorter_than_window(self, dataset, run_dir, tmp_path):
        # the run's window is T = 80 (period 20); keep 50 test points
        values = Path(dataset["path"]).read_text().splitlines()[:850]
        short = tmp_path / "short_800_810_815.txt"
        short.write_text("\n".join(values) + "\n")
        out = tmp_path / "s.csv"
        r = detect(run_dir, str(short), out)
        assert r.exit_code == 3
        assert "window length 80 exceeds region length 50" in r.output
        assert not out.exists()


class TestConstantTrainRegion:
    def test_train_exits_3_and_writes_no_run(self, tmp_path):
        # 3,000 points, the train region all 5.0, a +4 spike at 2000-2039:
        # with the train std at 0 there is nothing to normalise by
        values = np.full(3000, 5.0)
        values[2000:2040] += 4.0
        labels = np.zeros(3000, dtype=np.int8)
        labels[2000:2040] = 1
        series = RawSeries(values=values, name="flat", split=1000, labels=labels)
        path = write_ucr_file(str(tmp_path), series, stem="flat")
        out = tmp_path / "run"
        r = CliRunner().invoke(main, ["train", "--data", path, "--out", str(out),
                                      "--epochs", "1"])
        assert r.exit_code == 3, r.output
        assert "error: flat_1000_2000_2039.txt: train region is constant" in r.output
        assert "Traceback" not in r.output
        assert not out.exists()


class TestNonFiniteData:
    def test_nan_in_test_region(self, dataset, run_dir, tmp_path):
        lines = Path(dataset["path"]).read_text().splitlines()
        lines[1000] = "nan"
        bad = tmp_path / dataset["path"].rsplit("/", 1)[-1]
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.csv"
        r = detect(run_dir, str(bad), out)
        assert r.exit_code == 3
        assert "index 1000" in r.output
        assert not out.exists()
        r = CliRunner().invoke(main, train_args({"path": str(bad)}, str(tmp_path / "run")))
        assert r.exit_code == 3


class TestNotUtf8Data:
    def test_train_and_detect_exit_3(self, dataset, run_dir, tmp_path):
        raw = bytearray(Path(dataset["path"]).read_bytes())
        raw[raw.index(b"\n", len(raw) // 2) + 1] = 0xFF
        bad = tmp_path / dataset["path"].rsplit("/", 1)[-1]
        bad.write_bytes(bytes(raw))
        out = tmp_path / "s.csv"
        r = detect(run_dir, str(bad), out)
        assert r.exit_code == 3
        assert "not UTF-8 text" in r.output
        assert "Traceback" not in r.output
        assert not out.exists()
        r = CliRunner().invoke(main, train_args({"path": str(bad)}, str(tmp_path / "run")))
        assert r.exit_code == 3
        assert "not UTF-8 text" in r.output
        assert "Traceback" not in r.output


class TestInject:
    def test_replaces_anomaly(self, dataset, tmp_path):
        out = tmp_path / "inj"
        r = run_cli(["inject", "--data", dataset["path"], "--out", str(out),
                     "--test-kind", "jittering", "--seed", "1"])
        assert r.exit_code == 0, r.output
        files = sorted(p.name for p in out.iterdir())
        assert any(f.endswith(".labels.txt") for f in files)
        written = [f for f in files if "jittering" in f and f.endswith(".txt")
                   and "labels" not in f]
        assert len(written) == 1
        orig = np.loadtxt(dataset["path"])
        new = np.loadtxt(str(out / written[0]))
        labels = np.loadtxt(str(out / [f for f in files
                                       if f.endswith(".labels.txt")][0]))
        inside = labels == 1
        assert not np.allclose(orig[inside], new[inside])
        assert np.allclose(orig[~inside], new[~inside], rtol=1e-9)

    def test_no_labels_fails(self, tmp_path):
        p = tmp_path / "nolabel.csv"
        p.write_text("value\n" + "\n".join("1.0" for _ in range(20)))
        r = CliRunner().invoke(main, ["inject", "--data", str(p),
                                      "--out", str(tmp_path / "o"),
                                      "--test-kind", "jittering"])
        assert r.exit_code == 3

    def test_negative_seed_usage_error(self, dataset, tmp_path):
        out = tmp_path / "o"
        r = CliRunner().invoke(main, ["inject", "--data", dataset["path"],
                                      "--out", str(out), "--test-kind",
                                      "jittering", "--seed", "-1"])
        assert r.exit_code == 2, r.output
        assert "--seed" in r.output
        assert not out.exists()


class TestBench:
    def test_small_bench(self):
        r = run_cli(["bench", "--points", "2000", "--period", "20"])
        assert r.exit_code == 0, r.output
        assert "params=" in r.output
        assert "points/s" in r.output

    def test_wide_window_bench(self):
        # period 500 gives T = 2000, the window detect_wide measures
        r = run_cli(["bench", "--points", "6000", "--period", "500"])
        assert r.exit_code == 0, r.output
        assert "points=6000 T=2000" in r.output
        assert "points/s" in r.output
        peak = r.output.split("peak_rss_mb=")[1].split()[0]
        assert float(peak) > 0

    def test_json_row(self, tmp_path):
        out = tmp_path / "bench.json"
        r = run_cli(["bench", "--points", "2000", "--period", "20", "--json", str(out)])
        assert r.exit_code == 0, r.output
        row = json.loads(out.read_text())
        assert (row["points"], row["period"], row["T"]) == (2000, 20, 80)
        assert f"params={row['params']}" in r.output
        assert f"throughput={row['points_per_s']:,.0f} points/s" in r.output
        assert f"peak_rss_mb={row['peak_rss_mb']:.1f}" in r.output
        # detect runs BENCH_REPEATS times; the row holds each run and their medians
        assert len(row["runs"]) == cli.BENCH_REPEATS == 3
        for i, run in enumerate(row["runs"], start=1):
            assert run["elapsed_s"] > 0
            assert (f"run {i}: elapsed={run['elapsed_s']:.3f}s "
                    f"throughput={run['points_per_s']:,.0f} points/s") in r.output
        for key in ("elapsed_s", "points_per_s"):
            assert row[key] == sorted(run[key] for run in row["runs"])[1]
        assert row["nproc"] >= 1 and row["numpy"] == np.__version__
        assert isinstance(row["blas"], str) and isinstance(row["blas_version"], str)
        assert row["blas_threads"] is None or row["blas_threads"] >= 1
        # --json also times T = 200 training steps, forward and backward apart
        assert [(s["T"], s["batch"]) for s in row["train_steps"]] == [(200, 16), (200, 128)]
        for s in row["train_steps"]:
            assert s["forward_ms"] > 0 and s["backward_ms"] > 0
            # one training step's buffers: the caches alone are megabytes
            assert 1 < s["peak_mb"] < 500
            assert f"peak {s['peak_mb']:.1f} MB" in r.output
            assert s["steps"] >= 50 and s["warmup"] >= 20
            assert (f"train step T=200 batch={s['batch']}: forward {s['forward_ms']:.2f} ms"
                    in r.output)

    def test_json_in_missing_directory_is_a_data_error(self, tmp_path):
        r = CliRunner().invoke(main, ["bench", "--points", "2000", "--period", "20",
                                      "--json", str(tmp_path / "no" / "b.json")])
        assert r.exit_code == 3, r.output
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("flag, value", [
        ("--points", "0"), ("--period", "0"), ("--seed", "-1")])
    def test_out_of_range_usage_error(self, flag, value):
        r = CliRunner().invoke(main, ["bench", flag, value])
        assert r.exit_code == 2, r.output
        assert flag in r.output

    def test_fewer_points_than_a_window(self):
        # period 50 gives a window of T = 200
        r = CliRunner().invoke(main, ["bench", "--points", "100", "--period", "50"])
        assert r.exit_code == 3, r.output
        assert "window length 200 exceeds region length 100" in r.output
        assert "Traceback" not in r.output


class TestErrorBoundary:
    def test_detect_out_in_missing_directory(self, dataset, run_dir, tmp_path):
        out = tmp_path / "no" / "such" / "s.csv"
        r = detect(run_dir, dataset["path"], out)
        assert r.exit_code == 3, r.output
        assert f"error: [Errno 2] No such file or directory: '{out}'" in r.output
        assert "Traceback" not in r.output

    def test_eval_manifest_not_utf8(self, tmp_path):
        manifest = tmp_path / "list.txt"
        manifest.write_bytes(b"# corpus\n\xff_1_2_2.txt\n")
        r = CliRunner().invoke(main, ["eval", "--aggregate", str(manifest)])
        assert r.exit_code == 3, r.output
        assert f"error: {manifest}: not UTF-8 text" in r.output

    def test_broken_pipe_left_to_click(self, dataset, tmp_path, monkeypatch):
        scores = tmp_path / "s.csv"
        scores.write_text("index,score,smoothed\n" +
                          "".join(f"{i},0.1,0.1\n" for i in range(800)))

        def evaluate(*args):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        monkeypatch.setattr(cli.metrics, "evaluate", evaluate)
        r = CliRunner().invoke(main, ["eval", "--scores", str(scores),
                                      "--data", dataset["path"]])
        assert r.exit_code == 1
        assert "error:" not in r.output

    @pytest.mark.parametrize("command", ["train", "detect", "eval", "inject"])
    def test_split_on_ucr_file_usage_error(self, dataset, run_dir, tmp_path, command):
        out = tmp_path / "out"
        args = {
            "train": train_args(dataset, str(out)),
            "detect": ["detect", "--run", run_dir, "--data", dataset["path"],
                       "--out", str(out)],
            "eval": ["eval", "--aggregate", dataset["manifest"],
                     "--scores-dir", str(tmp_path)],
            "inject": ["inject", "--data", dataset["path"], "--out", str(out),
                       "--test-kind", "jittering"],
        }[command]
        r = CliRunner().invoke(main, args + ["--split", "100"])
        assert r.exit_code == 2, r.output
        assert "'--split'" in r.output and "CSV files only" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("label", ["inf", "2", "0.5"])
    def test_csv_label_not_0_or_1(self, tmp_path, label):
        data = tmp_path / "s.csv"
        labels = ["0"] * 40
        labels[30], labels[31] = "1", label
        data.write_text("value,label\n" + "".join(
            f"{np.sin(i / 3):.6f},{lab}\n" for i, lab in enumerate(labels)))
        scores = tmp_path / "s.scores.csv"
        scores.write_text("index,score,smoothed\n" +
                          "".join(f"{i},{i / 20},{i / 20}\n" for i in range(20)))
        r = CliRunner().invoke(main, ["eval", "--scores", str(scores),
                                      "--data", str(data)])
        assert r.exit_code == 3, r.output
        assert f"error: {data}: line 33: label '{label}' is not 0 or 1" in r.output
        assert "Traceback" not in r.output
