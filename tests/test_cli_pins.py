"""Byte pins for the whole CLI path: `coopad train --epochs 3` and `coopad
detect` on small generated UCR files, compared by SHA-256 digest of the
run's model.ckpt, of train.csv's loss columns (not its wall-time column)
and of the scores CSV, as this NumPy and OpenBLAS build computes them.

They pin what the one-step digests of test_train.py do not: many Adam
steps, the checkpoint and an inference pass over a whole test region. A
change that moves them re-records them on purpose and says which moved and
why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import coopad
from coopad.cli import main
from coopad.data import RawSeries
from coopad.synth import gen_periodic, write_ucr_file

# name -> (period, points, extra train flags); half of each series trains
RUNS = {
    "p50": (50, 6_400, ()),
    "p500": (500, 64_000, ()),
    "p120-batch5": (120, 15_360, ("--batch", "5")),
    "p50-hard": (50, 6_400, ("--masking", "hard")),
    "p50-feat_gate": (50, 6_400, ("--fusion", "feat_gate")),
    "p50-step": (50, 6_400, ("--granularity", "step")),
}
# name -> (model.ckpt, train.csv loss columns, scores CSV)
DIGESTS = {
    "p50": ("698670f463d8a731a3534e7e6d81fa118e36c714985e9381e21ad7acbf30b122",
           "cc87ba75132dac9913a780deccf291fc5460540c01142cd84f8f71218c8f59d0",
           "9c86bff917fa09a3187d10bfbb391ec38074565dbd1d6f5ba7ff617b6f581bab"),
    "p500": ("4cf642a16172260921e7f0863ab26bba502102a161ead69a168c9c2d204fe1fb",
            "8b65d9eecb642a0b31fd980a90813546a149ab074e98f4cb131ad02f473c3aa7",
            "8bc69c4831dc5c9b5bda748f167a63b29aef902386a80a4aed5348b98d9e8d1e"),
    "p120-batch5": ("eb6e49a80018296994d295bcb9abc3bad550dc806737d29efac2b9de582aef51",
                   "d3b25ed84f482d72c9ac055a06bddbc8ce10eb5bd37b9a7f6582873ef41f2022",
                   "1518810abd1627855f3b238f16602034bda46f9000646c761b4a7937f007e44d"),
    "p50-hard": ("7afa4ffb003ccee5376229af9e6ed293367a974b9360be15f14086010381828b",
                "b26090eb2b17b7ba5316e58c7f846267cebf6f593de4f04cf004b1cf83a9458e",
                "83341fa2b8ea623eef55f50e338b991a462268035cd1ebdc2a9b722d5fb891ed"),
    "p50-feat_gate": ("117ee3a365fc53957b5af07df0b094710db1e5186dafbdceef0cf2c04e8fc260",
                     "d5ca42e42a689f6e2926302761bc35cf4256f39ea3e73f9d179c7b8d5c92fcb5",
                     "0f9a704ccc126a5732492bafd64a9f3ed51528a43d0eec155aafe3f0840ab8b4"),
    "p50-step": ("ccd34fba520aaad7b2649b5f06449c0b2b6113d10f97cc9e573b0c232de23705",
                "dc4e9be94047af062ea38c05463c31371a06f60bec993068a2b716ed84d15455",
                "458e851378e167552475161c7ec3032ea81a5b4ccc3415010c503321b182ee5a"),
}


def series_file(root, period, points):
    """A noisy sine of the given period, one anomaly in its test half,
    written under the UCR naming (split at the half)."""
    start = points * 3 // 4
    values, labels = gen_periodic(points, period, 0.05,
                                  [("uniform_replacement", start, start + period)], seed=0)
    series = RawSeries(values=values, name="pin", split=points // 2, labels=labels)
    return write_ucr_file(str(root), series, stem=f"pin{period}")


def run_args(data, run, scores, extra):
    return (["train", "--data", data, "--out", run, "--epochs", "3", "--seed", "0",
             *extra],
            ["detect", "--run", run, "--data", data, "--out", scores])


def digests(run, scores):
    loss_columns = "".join(line.rsplit(",", 1)[0] + "\n"
                           for line in (Path(run) / "train.csv").read_text().splitlines())
    return tuple(hashlib.sha256(b).hexdigest() for b in (
        (Path(run) / "model.ckpt").read_bytes(), loss_columns.encode(),
        Path(scores).read_bytes()))


@pytest.mark.parametrize("name", list(RUNS))
def test_cli_run_bytes(name, tmp_path):
    period, points, extra = RUNS[name]
    data = series_file(tmp_path, period, points)
    run, scores = str(tmp_path / "run"), str(tmp_path / "scores.csv")
    for args in run_args(data, run, scores, extra):
        r = CliRunner().invoke(main, args, catch_exceptions=False)
        assert r.exit_code == 0, r.output
    assert json.loads((Path(run) / "config.json").read_text())["data"]["period"] == period
    assert digests(run, scores) == DIGESTS[name]


def test_one_blas_thread_gives_the_same_bytes(tmp_path):
    # a child process with its own BLAS thread count; this process keeps its own
    period, points, extra = RUNS["p50"]
    data = series_file(tmp_path, period, points)
    run, scores = str(tmp_path / "run"), str(tmp_path / "scores.csv")
    src = str(Path(coopad.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for args in run_args(data, run, scores, extra):
        subprocess.run([sys.executable, "-m", "coopad.cli", *args], env=env, check=True,
                       capture_output=True)
    assert digests(run, scores) == DIGESTS["p50"]
