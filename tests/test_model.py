import json
import tracemalloc

import numpy as np
import pytest

from coopad import cli, score, spectral
from coopad.checkpoint import load_checkpoint, save_checkpoint
from coopad.model import (FUSIONS, GRANULARITIES, CoopConfig, CoopModel,
                          hard_mask_threshold, mask_coefficients)
from coopad.numerics import AdamState, adam_step, grad_check
from coopad.train import loss_and_grads

SMALL = dict(T=16, P=4, H=3, K=2, layers=1, frame_len=8)


def small_model(seed=0, **overrides):
    cfg = CoopConfig(**{**SMALL, **overrides})
    return CoopModel(cfg, seed=seed)


def batch(seed=0, B=3, T=16):
    return np.random.default_rng(seed).normal(size=(B, T))


class TestConfig:
    def test_n(self):
        assert CoopConfig(T=32, P=8).N == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="T=30"):
            CoopConfig(T=30, P=8)  # T not a multiple of P
        with pytest.raises(ValueError):
            CoopConfig(T=16, P=4, masking="fuzzy")
        with pytest.raises(ValueError):
            CoopConfig(T=16, P=4, fusion="concat")
        with pytest.raises(ValueError):
            CoopConfig(T=16, P=4, granularity="point")
        with pytest.raises(ValueError):
            CoopConfig(T=16, P=4, scoring="both")

    def test_for_period(self):
        c = CoopConfig.for_period(50)
        assert c.T == 200 and c.T % c.P == 0
        assert c.frame_len == 50
        c2 = CoopConfig.for_period(3, P=8)
        assert c2.T == 16  # 12 rounded up to patch multiple
        assert c2.frame_len == 8

    def test_round_trip_dict(self):
        c = CoopConfig(**SMALL, masking="hard", fusion="mean")
        assert CoopConfig.from_dict(c.to_dict()) == c


class TestMasking:
    def test_hard_threshold_oracle(self):
        probs = np.random.default_rng(0).random((5, 7))
        # population std, explicit formula
        mu = probs.sum() / probs.size
        var = ((probs - mu) ** 2).sum() / probs.size
        assert np.isclose(hard_mask_threshold(probs), mu + 3 * np.sqrt(var),
                          atol=1e-12)

    def test_soft_is_identity_with_gradient(self):
        cfg = CoopConfig(**SMALL)
        a = np.random.default_rng(1).random((4, 3))
        coeff, flows = mask_coefficients(a, cfg)
        assert flows is True
        assert coeff is a

    def test_hard_is_binary(self):
        cfg = CoopConfig(**SMALL, masking="hard")
        a = np.array([[0.1, 0.9], [0.5, 0.95]])
        coeff, flows = mask_coefficients(a, cfg, threshold=0.6)
        assert flows is False
        assert coeff.tolist() == [[0.0, 1.0], [0.0, 1.0]]

    def test_random_rate(self):
        cfg = CoopConfig(**SMALL, masking="random")
        a = np.zeros((100, 100))
        coeff, flows = mask_coefficients(a, cfg, rng=np.random.default_rng(2))
        assert flows is False
        assert set(np.unique(coeff)) <= {0.0, 1.0}
        assert abs(coeff.mean() - 0.25) < 0.02

    def test_grating_alternates(self):
        cfg = CoopConfig(**SMALL, masking="grating")
        a = np.zeros((4, 2))
        coeff, flows = mask_coefficients(a, cfg)  # no rng -> phase 0
        assert flows is False
        assert coeff[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]
        seen = set()
        for seed in range(20):
            c, _ = mask_coefficients(a, cfg, rng=np.random.default_rng(seed))
            seen.add(c[0, 0])
        assert seen == {0.0, 1.0}

    def test_blend_endpoints(self):
        # the masked embedding is an exact convex blend: coefficient 1
        # selects the learned mask token, 0 keeps the input projection
        m = small_model()
        xb = batch()
        res = m.forward(xb, keep_cache=True)
        cache = res.cache
        em_tok = m.tensors["e_mask"].T[:, None, :]
        z = cache["z"]
        coeff = cache["coeff"][..., None]
        e_m = cache["cache_r"][0]["inputs"]  # what the recon GRU read
        assert np.allclose(e_m, coeff * em_tok + (1 - coeff) * z, atol=1e-12)


class TestForward:
    def test_shapes(self):
        m = small_model()
        res = m.forward(batch(B=5), keep_cache=True)
        N, B = m.config.N, 5
        assert res.x_r.shape == (B, 16)
        assert res.cache["cache_r"][0]["inputs"].shape == (N, B, 3)
        for arr in (res.probs.time, res.probs.freq, res.probs.fused,
                    res.probs.resid, res.probs.combined):
            assert arr.shape == (N, B)

    def test_probabilities_in_unit_interval(self):
        m = small_model(seed=1)
        res = m.forward(batch(seed=2, B=8))
        for arr in (res.probs.time, res.probs.freq, res.probs.fused,
                    res.probs.resid, res.probs.combined):
            assert np.all((arr > 0) & (arr < 1))

    def test_combined_is_average(self):
        m = small_model()
        res = m.forward(batch())
        assert np.allclose(res.probs.combined,
                           0.5 * (res.probs.fused + res.probs.resid),
                           atol=1e-12)

    def test_max_fusion_dominates_branches(self):
        m = small_model()
        res = m.forward(batch(seed=3, B=6))
        fused = res.probs.fused
        assert np.all(fused >= res.probs.time - 1e-15)
        assert np.all(fused >= res.probs.freq - 1e-15)
        assert np.all(np.isclose(fused, res.probs.time, atol=1e-15)
                      | np.isclose(fused, res.probs.freq, atol=1e-15))

    def test_mean_fusion(self):
        m = small_model(fusion="mean")
        res = m.forward(batch())
        assert np.allclose(res.probs.fused,
                           0.5 * (res.probs.time + res.probs.freq), atol=1e-12)

    def test_window_granularity_constant_over_patches(self):
        m = small_model(granularity="window")
        res = m.forward(batch(B=4))
        assert np.allclose(res.probs.time, res.probs.time[0], atol=1e-15)
        assert np.allclose(res.probs.fused, res.probs.fused[0], atol=1e-15)

    def test_determinism(self):
        xb = batch(seed=4, B=4)
        a = small_model(seed=5).forward(xb)
        b = small_model(seed=5).forward(xb)
        assert np.array_equal(a.x_r, b.x_r)
        assert np.array_equal(a.probs.combined, b.probs.combined)

    def test_batch_consistency(self):
        # scoring a window alone or inside a batch gives the same result
        m = small_model(seed=6)
        xb = batch(seed=7, B=4)
        res = m.forward(xb)
        for i in range(4):
            one = m.forward(xb[i:i + 1])
            assert np.allclose(one.x_r[0], res.x_r[i], atol=1e-12)
            assert np.allclose(one.probs.combined[:, 0],
                               res.probs.combined[:, i], atol=1e-12)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            small_model().forward(np.zeros((2, 20)))

    def test_seed_changes_weights(self):
        a, b = small_model(seed=0), small_model(seed=1)
        assert not np.array_equal(a.tensors["w_out"], b.tensors["w_out"])

    def test_all_modes_run(self):
        xb = batch(B=2)
        rng = np.random.default_rng(8)
        for masking in ("soft", "hard", "random", "grating"):
            for granularity in ("patch", "step", "window"):
                m = small_model(masking=masking, granularity=granularity)
                m.hard_threshold = 0.5
                res = m.forward(xb, rng=rng)
                assert np.all(np.isfinite(res.x_r))
        for fusion in ("max", "mean", "feat_add", "feat_gate"):
            m = small_model(fusion=fusion)
            res = m.forward(xb)
            assert np.all(np.isfinite(res.probs.combined))


# Largest difference between an inference row scored in one batch and in
# another, fixed before the first run. The float32 recurrences give the same
# bytes for every batch size (tests/test_numerics.py); the float64 heads and
# projections around them round by batch shape as BLAS picks its kernel, a
# few ulps (up to 2.2e-16 at periods 37, 50 and 500, as before float32).
# A float32 product whose rounding follows the batch (a one-row batch
# through gemv) moves scores by 1e-8 to 1.4e-8.
ROW_BOUND = 1e-14
ROW_CONFIGS = [{}, {"masking": "hard"}, {"masking": "grating"}, {"fusion": "mean"},
               {"fusion": "feat_add"}, {"fusion": "feat_gate"},
               {"granularity": "step"}, {"granularity": "window"}]


class TestInferenceRowIndependence:
    """A window's inference scores do not depend on the other windows of its
    batch. Random masking is left out: it draws one mask for the whole
    batch, so its rows depend on the batch by design."""

    @pytest.mark.parametrize("overrides", ROW_CONFIGS,
                             ids=["-".join(o.values()) or "default" for o in ROW_CONFIGS])
    def test_rows_match_every_batch_size(self, overrides):
        m = CoopModel(CoopConfig.for_period(50, **overrides), seed=2)
        x = np.random.default_rng(3).normal(size=(256, m.config.T))
        # hard masking at inference uses the threshold a training pass calibrates
        m.forward(x, keep_cache=True)
        full = m.forward(x)
        full_scores = score.pointwise_scores(x, full)
        for rows in (slice(0, 1), slice(0, 2), slice(0, 3), slice(0, 5), slice(0, 16),
                     slice(0, 17), slice(1, 256), slice(255, 256)):
            res = m.forward(x[rows])
            for got, want in ((res.x_r, full.x_r[rows]),
                              (res.probs.combined, full.probs.combined[:, rows]),
                              (score.pointwise_scores(x[rows], res), full_scores[rows])):
                assert np.abs(got - want).max() <= ROW_BOUND, rows

    def test_detect_end_points_match_one_window_rescore(self):
        # one window covers each end of the series; detect scores it inside
        # a batch, the re-score alone (a one-row batch)
        m = CoopModel(CoopConfig.for_period(50), seed=4)
        T = m.config.T
        x = np.random.default_rng(5).normal(size=14_000)  # 277 windows: 2 batches
        series = score.detect(x, m)
        for window, point, offset in ((x[:T], 0, 0), (x[-T:], len(x) - 1, T - 1)):
            assert series.coverage[point] == 1
            one = score.pointwise_scores(window[None], m.forward(window[None]))
            assert abs(series.scores[point] - one[0, offset]) <= ROW_BOUND


class TestParamsAndPersistence:
    def test_num_params_from_shapes(self):
        m = small_model()
        c = m.config
        gru = c.layers * (3 * c.H * c.H + 3 * c.H * c.H + 6 * c.H)  # wx, wh, biases
        expected = (
            c.H * c.P              # w_time_patch
            + c.H * 2 * c.K * c.P  # w_freq_patch
            + c.H * c.P            # w_mask_proj
            + c.H * c.N            # e_mask
            + 3 * gru              # time, freq, recon stacks
            + 3 * c.H              # three scalar heads
            + c.P * c.H            # w_out
        )
        assert m.num_params() == expected

    def test_checkpoint_round_trip_preserves_forward(self, tmp_path):
        m = small_model(seed=9)
        xb = batch(seed=10, B=3)
        before = m.forward(xb)
        p = tmp_path / "m.ckpt"
        save_checkpoint(str(p), m.config_block(), m.tensors)
        cfg_block, tensors = load_checkpoint(str(p))
        assert cfg_block == m.config_block()
        m2 = small_model(seed=999)  # different init, then overwrite
        m2.load_tensors(tensors)
        after = m2.forward(xb)
        assert np.array_equal(before.x_r, after.x_r)
        assert np.array_equal(before.probs.combined, after.probs.combined)

    def test_missing_tensor(self):
        m = small_model()
        with pytest.raises(KeyError):
            m.load_tensors({"w_out": m.tensors["w_out"]})

    def test_extra_tensor(self):
        m = small_model()
        tensors = {**m.tensors, "w_time_patch_res": m.tensors["w_time_patch"]}
        with pytest.raises(KeyError, match="w_time_patch_res"):
            m.load_tensors(tensors)

    def test_transposed_same_size_tensor(self):
        m = small_model(seed=13)
        before = {k: v.copy() for k, v in m.tensors.items()}
        good = {k: v.copy() for k, v in small_model(seed=14).tensors.items()}
        # (N, H) for an (H, N) matrix; an (n, 1) column for a 1-D bias
        for name in ("e_mask", "gru_time.l0.bx"):
            tensors = {**good, name: np.atleast_2d(good[name]).T}
            with pytest.raises(ValueError, match=name):
                m.load_tensors(tensors)
            # a rejected load leaves every live tensor as it was
            for k, v in m.tensors.items():
                assert np.array_equal(v, before[k])


class TestEncode:
    def test_residual_pass_reuses_the_encoders(self):
        # the residual states are the input encoders applied to x_r
        m = small_model(seed=17)
        res = m.forward(batch(seed=18), keep_cache=True)
        h_t, h_f, _ = m._encode(res.x_r)
        assert np.array_equal(res.cache["h_t"], h_t)
        assert np.array_equal(res.cache["h_f"], h_f)

    def test_inference_cache_keeps_no_frequency_features(self):
        # only backward reads the frequency features; an inference pass
        # drops them with the GRU caches
        m = small_model(seed=19)
        _, _, enc = m._encode(batch(seed=20), keep_cache=False)
        assert "fpat" not in enc
        assert enc["gru_t"] is None and enc["gru_f"] is None
        _, _, enc = m._encode(batch(seed=20), keep_cache=True)
        assert enc["fpat"].shape == (4, 3, 4 * 2 * 2)


class TestDenseAdjoint:
    """Only backward reads the dense STFT operator, so only the first
    backward builds it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = spectral.stft_matrix

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(spectral, "stft_matrix", counted)
        return calls

    def test_inference_never_builds_it(self, builds, tmp_path):
        m = small_model(seed=21)
        m.forward(batch(seed=22))
        score.detect(np.random.default_rng(23).normal(size=90), m)
        (tmp_path / "config.json").write_text(json.dumps({
            "model": m.config.to_dict(), "train": {"seed": 21},
            "data": {"norm_mean": 0.0, "norm_std": 1.0}}))
        save_checkpoint(str(tmp_path / "model.ckpt"), m.config_block(), m.tensors)
        loaded, _, _ = cli.load_run(str(tmp_path))
        loaded.forward(batch(seed=22))
        assert builds == []

    def test_first_backward_builds_it_once(self, builds):
        eager = small_model(seed=24)
        eager.stft_mat  # built before the first step
        builds.clear()
        lazy = small_model(seed=24)
        rng = np.random.default_rng(25)
        x_clean = rng.normal(size=(2, 16))
        x_dist = x_clean + rng.normal(0, 0.3, size=(2, 16))
        labels = np.array([[0, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int8)
        models = (eager, lazy)
        states = [AdamState(m.tensors) for m in models]
        for _ in range(2):
            grads = [loss_and_grads(m, x_dist, x_clean, labels)[1] for m in models]
            for m, g, state in zip(models, grads, states):
                adam_step(m.tensors, g, state, lr=1e-2)
            for k in eager.tensors:
                assert grads[1][k].tobytes() == grads[0][k].tobytes(), k
        assert builds == [(16, 8, 2)]

    def test_wide_model_builds_and_infers_in_megabytes(self):
        # period 1000 gives T = 4000, the estimate_period ceiling, where the
        # dense operator alone is 2K * T * T * 8 bytes = 1.02 GB
        tracemalloc.start()
        try:
            m = CoopModel(CoopConfig.for_period(1000), seed=0)
            m.forward(np.random.default_rng(26).normal(size=(2, m.config.T)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.config.T == 4000
        assert peak <= 16e6


# criterion 1 certifies patch granularity with max fusion under soft masking;
# these are the other heads and fusions, then the other maskings at those heads
ABLATIONS = ([dict(granularity=g, fusion=f) for g in GRANULARITIES for f in FUSIONS
              if (g, f) != ("patch", "max")]
             + [dict(masking=m) for m in ("hard", "random", "grating")])


class TestAblationGradients:
    @pytest.mark.parametrize("overrides", ABLATIONS,
                             ids=lambda o: "-".join(o.values()))
    def test_matches_finite_differences(self, overrides):
        model = small_model(**overrides)
        rng = np.random.default_rng(0)
        x_clean = rng.normal(size=(2, 16))
        x_dist = x_clean + rng.normal(0, 0.3, size=(2, 16))
        labels = np.array([[0, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int8)

        def run():
            # a fresh rng per call keeps the random and grating masks fixed
            return loss_and_grads(model, x_dist, x_clean, labels,
                                  rng=np.random.default_rng(5))

        _, grads = run()
        rep = grad_check(lambda: run()[0].total, model.tensors, grads, h=1e-5)
        worst = max(rep, key=rep.get)
        assert rep[worst] < 1e-3, f"{worst}: max rel err {rep[worst]:.3e}"
