import numpy as np
import pytest

from coopad import augment, train
from coopad.data import DataError
from coopad.model import CoopConfig, CoopModel
from coopad.numerics import AdamState
from coopad.train import (LossBreakdown, TrainConfig, bce_loss, clip_grads,
                          fit, loss_and_grads, mse_loss, train_epoch)


def small_model(seed=0, **overrides):
    cfg = CoopConfig(T=16, P=4, H=3, K=2, layers=1, frame_len=8, **overrides)
    return CoopModel(cfg, seed=seed)


class TestLosses:
    def test_bce_examples(self):
        assert np.isclose(bce_loss([0.5], [1])[0], np.log(2.0), atol=1e-12)
        assert np.isclose(bce_loss([0.5], [0])[0], np.log(2.0), atol=1e-12)
        # confident and correct -> near zero; confident and wrong -> large
        assert bce_loss([0.999], [1])[0] < 0.01
        assert bce_loss([0.001], [1])[0] > 6.0

    def test_bce_clamp_keeps_finite(self):
        v, clamped = bce_loss([0.0, 1.0], [1, 0])
        assert np.isfinite(v)
        assert np.isclose(v, -np.log(1e-7), atol=1e-6)
        assert clamped.tolist() == [1e-7, 1.0 - 1e-7]

    def test_bce_mean_reduction(self):
        a, _ = bce_loss([0.3, 0.7], [0, 1])
        expected = -(np.log(0.7) + np.log(0.7)) / 2
        assert np.isclose(a, expected, atol=1e-12)

    def test_mse_examples(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0])[0] == 0.0
        loss, resid = mse_loss([3.0, 0.0], [1.0, 0.0])
        assert loss == 2.0 and resid.tolist() == [2.0, 0.0]


class TestClipGrads:
    def test_below_threshold_untouched(self):
        g = {"w": np.array([3.0, 4.0])}  # norm 5
        clip_grads(g, 10.0)
        assert g["w"].tolist() == [3.0, 4.0]

    def test_rescales_to_max_norm(self):
        g = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}  # norm 13
        clip_grads(g, 6.5)
        total = np.sqrt(sum(float((v * v).sum()) for v in g.values()))
        assert np.isclose(total, 6.5, atol=1e-12)
        assert np.isclose(g["a"][1] / g["a"][0], 4.0 / 3.0, atol=1e-12)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch=0)


class TestLossAndGrads:
    def test_loss_composition(self):
        m = small_model()
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 16))
        labels = np.zeros((2, 4), dtype=np.int8)
        loss, grads = loss_and_grads(m, x, x, labels)
        assert np.isclose(loss.total, loss.bce + m.config.lam * loss.mse,
                          atol=1e-12)
        assert loss.mse == mse_loss(m.forward(x, keep_cache=True).x_r, x)[0]
        assert set(grads) == set(m.tensors)
        for k, g in grads.items():
            assert g.shape == m.tensors[k].shape
            assert np.all(np.isfinite(g))

    def test_gradients_deterministic(self):
        x = np.random.default_rng(1).normal(size=(2, 16))
        labels = np.array([[0, 1, 0, 0], [0, 0, 0, 0]], dtype=np.int8)
        _, g1 = loss_and_grads(small_model(seed=2), x, x, labels)
        _, g2 = loss_and_grads(small_model(seed=2), x, x, labels)
        for k in g1:
            assert np.array_equal(g1[k], g2[k])


def sine_train(n=400, period=16, seed=0):
    t = np.arange(n)
    return np.sin(2 * np.pi * t / period) + \
        np.random.default_rng(seed).normal(0, 0.02, n)


class TestFit:
    def test_zero_epochs_is_noop(self):
        m = small_model()
        before = {k: v.copy() for k, v in m.tensors.items()}
        log = fit(sine_train(), 16, m, TrainConfig(epochs=0))
        assert log.epochs == []
        for k in before:
            assert np.array_equal(before[k], m.tensors[k])

    def test_log_rows_and_parameters_move(self):
        m = small_model()
        before = {k: v.copy() for k, v in m.tensors.items()}
        log = fit(sine_train(), 16, m, TrainConfig(epochs=3, batch=8, seed=1))
        assert len(log.epochs) == 3
        assert [r[0] for r in log.epochs] == [0, 1, 2]
        assert any(not np.array_equal(before[k], m.tensors[k]) for k in before)

    def test_loss_decreases(self):
        m = small_model(seed=3)
        log = fit(sine_train(800), 16, m,
                  TrainConfig(epochs=30, batch=16, seed=2))
        first = np.mean([r[3] for r in log.epochs[:5]])
        last = np.mean([r[3] for r in log.epochs[-5:]])
        assert last < first

    def test_determinism(self):
        cfgs = [CoopModel(CoopConfig(T=16, P=4, H=3, K=2, layers=1,
                                     frame_len=8), seed=4) for _ in range(2)]
        for m in cfgs:
            fit(sine_train(), 16, m, TrainConfig(epochs=2, batch=8, seed=5))
        for k in cfgs[0].tensors:
            assert np.array_equal(cfgs[0].tensors[k], cfgs[1].tensors[k])

    def test_train_region_too_short(self):
        m = small_model()
        with pytest.raises(DataError):
            train_epoch(np.ones(8), 16, m, TrainConfig(),
                        AdamState(m.tensors), np.random.default_rng(0))

    def test_all_kinds_excluded_trains_clean(self, monkeypatch):
        # with no kind left every window is trained clean: no distortion
        # runs, the distorted batch is the clean one, and no patch is labelled
        def no_distortion(*args):
            raise AssertionError("apply_kind called with every kind excluded")

        batches = []

        def spy(model, x_distorted, x_clean, patch_labels, rng=None):
            batches.append((x_distorted.copy(), x_clean.copy(), patch_labels.copy()))
            return loss_and_grads(model, x_distorted, x_clean, patch_labels, rng=rng)

        monkeypatch.setattr(augment, "apply_kind", no_distortion)
        monkeypatch.setattr(train, "loss_and_grads", spy)
        fit(sine_train(), 16, small_model(),
            TrainConfig(epochs=2, batch=8, exclude_kinds=augment.KINDS))
        assert batches
        for x_distorted, x_clean, labels in batches:
            assert x_distorted.tobytes() == x_clean.tobytes()
            assert labels.shape == (len(x_clean), 4) and not labels.any()

    def test_hard_mode_sets_threshold(self):
        m = small_model(masking="hard")
        assert m.hard_threshold is None
        fit(sine_train(), 16, m, TrainConfig(epochs=1, batch=8))
        assert m.hard_threshold is not None
        assert 0.0 < m.hard_threshold


class TestTrainingLog:
    def test_csv_format(self, tmp_path):
        from coopad.train import TrainingLog
        log = TrainingLog(epochs=[(0, 0.5, 0.25, 3.0, 0.01)])
        p = tmp_path / "train.csv"
        log.write_csv(str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,bce,mse,total,seconds"
        assert lines[1].startswith("0,0.5,0.25,3,")
