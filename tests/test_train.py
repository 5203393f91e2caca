import hashlib
import math

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

    def test_overflowing_sum_of_squares_still_clips(self):
        # squares of ~1e200 overflow to inf; the gradients are rescaled by
        # their largest magnitude first, so they are clipped, not zeroed,
        # and no RuntimeWarning is raised
        rng = np.random.default_rng(3)
        g = {"a": rng.normal(size=(4, 5)) * 1e200, "b": rng.normal(size=7) * 3e199}
        before = {k: v.copy() for k, v in g.items()}
        clip_grads(g, train.GRAD_CLIP)
        top = max(np.abs(v).max() for v in g.values())
        norm = top * np.sqrt(sum(((v / top) ** 2).sum() for v in g.values()))
        assert abs(norm - train.GRAD_CLIP) <= 1e-12
        scale = g["a"][0, 0] / before["a"][0, 0]
        for k in g:  # one factor for every tensor
            assert np.allclose(g[k], before[k] * scale, rtol=1e-12, atol=0)


class TestTrainConfig:
    def test_validation(self):
        # each bad value raises a ValueError whose message starts with its field
        for field, value in [
                ("lr", 0.0), ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf),
                ("lr", "0.1"), ("lr", True), ("epochs", -1), ("epochs", 1.5),
                ("epochs", True), ("batch", 0), ("batch", 2.0),
                ("seed", -1), ("seed", 1.5), ("seed", True),
                ("distortion_prob", math.nan), ("distortion_prob", -0.1),
                ("distortion_prob", 1.5), ("distortion_prob", math.inf),
                ("exclude_kinds", ("bogus",)), ("exclude_kinds", "jittering")]:
            with pytest.raises(ValueError, match=f"^{field} "):
                TrainConfig(**{field: value})

    def test_edges_are_valid(self):
        TrainConfig(lr=np.float64(1e-300), epochs=np.int64(0), batch=1,
                    distortion_prob=0, exclude_kinds=augment.KINDS)
        TrainConfig(distortion_prob=1.0, exclude_kinds=())


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


# SHA-256 over the losses (bce, mse, total) and every gradient's name and
# bytes, in tensor order, of one training step of a seed-1 model, as this
# NumPy and OpenBLAS build computes them (one and two BLAS threads agree).
# They pin the training pass's bytes: a change that moves them re-records
# them on purpose and says why. feat_gate fusion is not pinned.
STEP_CONFIGS = {"default": {}, "hard": {"masking": "hard"}, "random": {"masking": "random"},
                "grating": {"masking": "grating"},
                "mean-step": {"fusion": "mean", "granularity": "step"}}
STEP_DIGESTS = {
    ("default", 37, 1):
        "5d348bfdf8f6b1fa97de03f5b7c2877341a8dc1f2b4577219d9e2b5ffdbef9f2",
    ("default", 37, 16):
        "0ec54db21cb037a256801c94e8f3745236960b0d2b11fda08ed1e6486e9811eb",
    ("default", 50, 1):
        "46ff0092a0c0c56f5dc115582b596243344290da78171f37cc0899dbb735952d",
    ("default", 50, 16):
        "8eb2e28fb61a233d16bb211cf243a7d9e5a712d09961c64ebe3ff2bee4367678",
    ("default", 500, 1):
        "dcc7c54bbd043a7bf5f2bc050ee330655ef740c5b9c03d5af18f0793f538d787",
    ("default", 500, 16):
        "875be15787f37f55dfd662ea6d23da80815e5006204763a296f5f6af1afcb4bb",
    ("hard", 37, 1):
        "f746b89839cd2d991dbe238bf0d40d5bb7f6980abfe9cb6572da29c89cc26095",
    ("hard", 37, 16):
        "a74b83ce225661d3eabada5a0b22a10f861b32c5a6e8d9271a3ae45698cbc00b",
    ("hard", 50, 1):
        "5615188791a356575a4f89e0ab56dc7ca0a7b51db884450199a9911251a6b8ed",
    ("hard", 50, 16):
        "cbbdbef4ce3e81a860e70a2d57825815eb4b3ba3e9de4389e25daff01a4df446",
    ("hard", 500, 1):
        "b8f71d3e5dd46d2f350d11d4f1ac7e37d922e7987a1e6210f95b77c3987143f0",
    ("hard", 500, 16):
        "a0125fc1dfef8f3b31508c5a25c1835c02720251d3bca00d1d94beb351fe0724",
    ("random", 37, 1):
        "33580a44ddc7a0e51e43c4613006cf9389711c64314573cf303107b95f9f4e1e",
    ("random", 37, 16):
        "2e4e041bdffeef46f9cadd4a29805371e89f9a858cc8e615c87d0f695cbb2cdb",
    ("random", 50, 1):
        "e8cedeb6e1628bae6ebbef6474f9c016247bb97306514a65131e6991ddf22da6",
    ("random", 50, 16):
        "b528448034b1647892b49e95fb9125e010406516c67ca20b3f448c6d737fef5a",
    ("random", 500, 1):
        "f7ba7dfb20cc69cb2495bbc7e34495505cb7e60c4f2fa8d3a72f7c02ab7ff59e",
    ("random", 500, 16):
        "0334f79fcc574b1a8e34ea75d5e8a4b85bc8c5330264518b9d0e4462f12e098a",
    ("grating", 37, 1):
        "263d5375785ab971905b885e62d89d2c19f3b3f6a6221deece31486de6cad7a9",
    ("grating", 37, 16):
        "ab0fc95578746cd9ce96a9c988a7407664fb3860bb9bba9c62d28437075cdb02",
    ("grating", 50, 1):
        "bdeb74e2a8d6e1f189778f2b7b4158f2cc91f6c7c675ba4c833dbffb1003e284",
    ("grating", 50, 16):
        "d523c959e764d1ef435372918a41c20b82cb3335c90aa9e48e6000dbed0918d4",
    ("grating", 500, 1):
        "0b0fb4796ac7395cb1e5f824a91c0b433be1fd659bbcf6c3846f29a176818edf",
    ("grating", 500, 16):
        "2a765bad68074f245a30c58bd67af51ccc48927e55ac44b3b6f4db4b2f478f51",
    ("mean-step", 37, 1):
        "0eea95c694e0f10a13e9a2770c36d0b6334452246a08547ea699337a4a80c823",
    ("mean-step", 37, 16):
        "67ce1b4f778a74b03a5cfd09379e09a9c4f98d1df43dad675f6e03aeadeeaa76",
    ("mean-step", 50, 1):
        "02509ee5066602f22a0e140db94932a0cb209c1299540337247cc502cb6b1d4c",
    ("mean-step", 50, 16):
        "6c21855b38d71088ee58ac242140881659d4c9ae62ac5e1e2ee023940a3c423f",
    ("mean-step", 500, 1):
        "520191a9c3231d0a32e0948e3d592ea23a249f13e08649063e749263ca87077b",
    ("mean-step", 500, 16):
        "c0e9caa3ed1981f9729d16350d36e442a107b9e8a7604e48360b461eee51e025",
}


def step_digest(model, B):
    """Digest of one loss_and_grads step on B noisy sine windows with random
    patch labels; the step's rng (random and grating masks) is seeded by B."""
    c = model.config
    rng = np.random.default_rng(B)
    t = np.arange(c.T)
    x_clean = np.sin(2 * np.pi * (t[None, :] + rng.integers(0, c.T, size=(B, 1)))
                     / (c.T // 4)) + rng.normal(0, 0.1, size=(B, c.T))
    x_dist = x_clean + rng.normal(0, 0.3, size=(B, c.T))
    labels = (rng.random((B, c.N)) < 0.3).astype(np.int8)
    loss, grads = loss_and_grads(model, x_dist, x_clean, labels, rng=rng)
    h = hashlib.sha256(np.array([loss.bce, loss.mse, loss.total]).tobytes())
    for name in model.tensors:
        h.update(name.encode())
        h.update(grads[name].tobytes())
    return h.hexdigest()


class TestTrainingStepGolden:
    @pytest.mark.parametrize("period", [37, 50, 500])
    @pytest.mark.parametrize("name", list(STEP_CONFIGS))
    def test_gradients_and_losses_golden(self, name, period):
        model = CoopModel(CoopConfig.for_period(period, **STEP_CONFIGS[name]), seed=1)
        for B in (1, 16):
            assert step_digest(model, B) == STEP_DIGESTS[name, period, B], B
