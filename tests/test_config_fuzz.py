"""`coopad detect` on a run directory whose config.json was edited.

Every edit either scores (exit 0) or fails with the documented exit code
(3 data, 4 numeric) and an ``error:`` line, never a traceback, and a failed
detect writes no scores CSV. The named cases are edits that once exited 1
with a traceback or scored silently; the property mutates one field at a
time of a real one-epoch run.
"""

import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from coopad.cli import main
from coopad.data import RawSeries
from coopad.synth import gen_periodic, write_ucr_file

MODEL_FIELDS = ("T", "P", "H", "K", "layers", "lam", "frame_len", "masking",
                "granularity", "fusion", "scoring", "smooth_window")
FIELDS = ([("model", name) for name in MODEL_FIELDS]
          + [("data", "norm_mean"), ("data", "norm_std"), ("train", "seed"),
             (None, "hard_threshold")])


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A one-epoch run directory and the series it was trained on."""
    root = tmp_path_factory.mktemp("fuzz")
    values, labels = gen_periodic(1600, 20, 0.05,
                                  [("uniform_replacement", 1200, 1239)], seed=0)
    series = RawSeries(values=values, name="fuzz", split=800, labels=labels)
    data = write_ucr_file(str(root), series, stem="fuzz")
    run_dir = root / "run"
    r = CliRunner().invoke(main, ["train", "--data", data, "--out", str(run_dir),
                                  "--epochs", "1", "--batch", "4", "--hidden", "4",
                                  "--layers", "1", "--seed", "0"])
    assert r.exit_code == 0, r.output
    return {"data": data, "dir": run_dir,
            "config": json.loads((run_dir / "config.json").read_text())}


def detect_with(run, edit):
    """Detect with a copy of the run whose config.json is edit(config), a
    dict edited in place; returns (click result, whether a scores CSV was
    written)."""
    cfg = json.loads(json.dumps(run["config"]))
    edit(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "run"
        copy.mkdir()
        shutil.copy(run["dir"] / "model.ckpt", copy)
        (copy / "config.json").write_text(json.dumps(cfg))
        out = Path(tmp) / "scores.csv"
        r = CliRunner().invoke(main, ["detect", "--run", str(copy),
                                      "--data", run["data"], "--out", str(out)])
        return r, out.exists()


def set_field(section, name, value):
    def edit(cfg):
        (cfg if section is None else cfg[section])[name] = value
    return edit


def hard_with_threshold(value):
    def edit(cfg):
        cfg["model"]["masking"] = "hard"
        cfg["hard_threshold"] = value
    return edit


# (id, edit, what the error says after "config.json: ", starting with the field)
NAMED = [
    ("P_zero", set_field("model", "P", 0), "P"),
    ("P_negative", set_field("model", "P", -8), "P"),
    ("K_zero", set_field("model", "K", 0), "K"),
    ("frame_len_huge", set_field("model", "frame_len", 1_000_000), "frame_len"),
    ("frame_len_over_T", set_field("model", "frame_len", 400), "frame_len"),
    ("hard_threshold_str", hard_with_threshold("x"), "hard_threshold"),
    ("smooth_window_negative", set_field("model", "smooth_window", -5), "smooth_window"),
    ("hard_threshold_nan", hard_with_threshold(math.nan), "hard_threshold"),
    ("hard_threshold_list", hard_with_threshold([1]), "hard_threshold"),
    ("hard_threshold_null", hard_with_threshold(None),
     "hard_threshold is null: the run was never calibrated"),
    ("T_str", set_field("model", "T", "abc"), "T"),
    ("lam_nan", set_field("model", "lam", math.nan), "lam"),
]


@pytest.mark.parametrize("edit, message", [case[1:] for case in NAMED],
                         ids=[case[0] for case in NAMED])
def test_bad_setting_exits_3_naming_the_field(run, edit, message):
    r, wrote = detect_with(run, edit)
    assert r.exit_code == 3, r.output
    assert re.search(rf"^error: .*config\.json: {message}\b", r.output, re.M), r.output
    assert "Traceback" not in r.output
    assert not wrote


def test_unedited_run_scores(run):
    r, wrote = detect_with(run, lambda cfg: None)
    assert r.exit_code == 0, r.output
    assert wrote


MISSING = object()
MUTATIONS = {
    "wrong_type": st.text(max_size=4) | st.booleans() | st.none()
    | st.lists(st.integers(), max_size=2) | st.dictionaries(st.text(max_size=2),
                                                            st.integers(), max_size=1),
    "negative": st.integers(max_value=-1) | st.floats(max_value=-1e-300),
    "zero": st.sampled_from([0, 0.0, -0.0]),
    "huge": st.integers(10**9, 10**400) | st.floats(1e9, 1e308),
    "nan": st.just(math.nan),
    "inf": st.sampled_from([math.inf, -math.inf]),
    "missing": st.just(MISSING),
}


@st.composite
def mutations(draw):
    section, name = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(sorted(MUTATIONS)))
    return section, name, kind, draw(MUTATIONS[kind])


# a norm_mean near the float range overflows NumPy arithmetic: the CLI
# prints NumPy's RuntimeWarning and exits 4 on the non-finite scores
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutation=mutations())
def test_mutated_field_exits_0_3_or_4(run, mutation):
    section, name, _, value = mutation

    def edit(cfg):
        target = cfg if section is None else cfg[section]
        if value is MISSING:
            target.pop(name, None)
        else:
            target[name] = value

    r, wrote = detect_with(run, edit)
    assert r.exit_code in (0, 3, 4), (r.output, r.exception)
    assert "Traceback" not in r.output
    if r.exit_code:
        assert re.search(r"^error: ", r.output, re.M), r.output
        assert not wrote
