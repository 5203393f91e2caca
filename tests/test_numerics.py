import tracemalloc

import numpy as np
import pytest

from coopad.numerics import AdamState, GruStack, adam_step, grad_check, sigmoid


class TestNonlinearities:
    def test_sigmoid_zero(self):
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_sigmoid_symmetry(self):
        x = np.linspace(-8, 8, 33)
        assert np.allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-12)

    def test_ranges(self):
        x = np.random.default_rng(1).uniform(-10, 10, size=1000)
        s = sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        assert np.all(np.isfinite(s))

    def test_sigmoid_bytes_match_two_branch_form(self):
        # the masked form: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            e = np.exp(x[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        rng = np.random.default_rng(2)
        tiny = np.finfo(np.float64).tiny
        special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-17,
                            -1e-17, tiny / 4, -tiny / 4, 5e-324, -5e-324])
        x = np.concatenate([rng.normal(scale=6.0, size=5000),
                            rng.uniform(-40, 40, size=5000), special])
        assert sigmoid(x).tobytes() == two_branch(x).tobytes()
        nan = sigmoid(np.array([np.nan, 1.0]))
        assert np.isnan(nan[0]) and nan[1] == two_branch(np.array([1.0]))[0]


def scalar_gru_reference(layer, inputs):
    """Per-gate scalar recurrence, no vectorization."""
    steps, batch, in_dim = inputs.shape
    hdim = layer["wh"].shape[1]
    out = np.zeros((steps, batch, hdim))
    for b in range(batch):
        h = [0.0] * hdim
        for t in range(steps):
            gx = [sum(layer["wx"][i, k] * inputs[t, b, k] for k in range(in_dim))
                  + layer["bx"][i] for i in range(3 * hdim)]
            gh = [sum(layer["wh"][i, k] * h[k] for k in range(hdim))
                  + layer["bh"][i] for i in range(3 * hdim)]
            newh = []
            for i in range(hdim):
                z = 1 / (1 + np.exp(-(gx[i] + gh[i])))
                r = 1 / (1 + np.exp(-(gx[hdim + i] + gh[hdim + i])))
                n = np.tanh(gx[2 * hdim + i] + r * gh[2 * hdim + i])
                newh.append((1 - z) * n + z * h[i])
            h = newh
            out[t, b] = h
    return out


def stack_backward(stack, cache, grad_outputs):
    """stack.backward with the gradients added into zeros, returned as
    (input gradients, one dict per layer keyed wx, wh, bx, bh)."""
    grads = {k: np.zeros_like(v) for k, v in stack.tensors().items()}
    dx = stack.backward(cache, grad_outputs, grads)
    return dx, [{k: grads[f"{stack.name}.l{i}.{k}"] for k in layer}
                for i, layer in enumerate(stack.layers)]


class TestGruLayout:
    def test_tensors_are_named_views_of_the_stacked_weights(self):
        stack = GruStack(3, layers=2, rng=np.random.default_rng(0), name="s")
        t = stack.tensors()
        assert list(t) == [f"s.l{i}.{k}" for i in range(2) for k in ("wx", "wh", "bx", "bh")]
        assert t["s.l1.wh"].shape == (9, 3) and t["s.l1.bh"].shape == (9,)
        t["s.l1.wh"][...] = 7.0
        t["s.l0.bx"][...] = -1.0
        assert np.all(stack.w[1, 1] == 7.0) and np.all(stack.b[0, 0] == -1.0)

    def test_one_draw_equals_per_layer_draws(self):
        # the stacked draw gives the bytes, and leaves the generator in the
        # state, of drawing each layer's wx then wh in turn
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        stack = GruStack(5, layers=3, rng=rng, name="s")
        bound = 1.0 / np.sqrt(5)
        for layer in stack.layers:
            for k in ("wx", "wh"):
                assert layer[k].tobytes() == ref.uniform(-bound, bound, size=(15, 5)).tobytes()
            assert not layer["bx"].any() and not layer["bh"].any()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestGruForward:
    def test_zero_weights_zero_output(self):
        stack = GruStack(3, layers=2, rng=np.random.default_rng(1), name="gru")
        for layer in stack.layers:
            for v in layer.values():
                v[...] = 0.0
        x = np.random.default_rng(2).normal(size=(5, 2, 3))
        out, _ = stack.forward(x)
        assert np.array_equal(out, np.zeros_like(out))

    def test_length_one_is_single_step(self):
        rng = np.random.default_rng(3)
        stack = GruStack(3, layers=1, rng=rng, name="gru")
        x = np.random.default_rng(4).normal(size=(1, 1, 3))
        out, _ = stack.forward(x)
        ref = scalar_gru_reference(stack.layers[0], x)
        assert np.allclose(out, ref, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        stack = GruStack(4, layers=1, rng=rng, name="gru")
        x = np.random.default_rng(6).normal(size=(7, 2, 4))
        out, _ = stack.forward(x)
        ref = scalar_gru_reference(stack.layers[0], x)
        assert np.allclose(out, ref, atol=1e-12)

    def test_output_bounded(self):
        # zero initial state is in (-1,1); every new state is a convex blend
        # of a tanh value and the previous state
        rng = np.random.default_rng(7)
        stack = GruStack(5, layers=3, rng=rng, name="gru")
        x = np.random.default_rng(8).uniform(-10, 10, size=(50, 4, 5))
        out, _ = stack.forward(x)
        assert np.all(np.abs(out) < 1.0)
        assert np.all(np.isfinite(out))

    def test_no_cache_same_output_bytes(self):
        # a training pass gives the float64 plain loop's bytes, an inference
        # pass the float32 plain loop's, returned as float64
        rng = np.random.default_rng(15)
        stack = GruStack(5, layers=3, rng=rng, name="gru")
        x = np.random.default_rng(16).normal(size=(9, 4, 5))
        cached, cache = stack.forward(x)
        out, none = stack.forward(x, keep_cache=False)
        assert none is None
        assert len(cache) == 3
        assert cached.tobytes() == oracle_stack_forward(stack, x).tobytes()
        assert out.dtype == np.float64
        assert out.tobytes() == oracle_stack_forward(stack, x, np.float32).tobytes()


def per_step_gru_backward(layer, cache, grad_outputs):
    """Backprop through one layer with every weight gradient accumulated
    inside the time loop, one step at a time."""
    inputs = cache["inputs"]
    steps, batch, _ = inputs.shape
    hdim = layer["wh"].shape[1]
    dwx, dwh, dbx, dbh = (np.zeros_like(layer[k]) for k in ("wx", "wh", "bx", "bh"))
    dinputs = np.empty_like(inputs)
    dh_next = np.zeros((batch, hdim))
    h0 = np.zeros((batch, hdim))
    for t in range(steps - 1, -1, -1):
        dh = grad_outputs[t] + dh_next
        z, r, n = cache["z"][t], cache["r"][t], cache["n"][t]
        ghn = cache["ghn"][t]
        hprev = cache["h"][t - 1] if t > 0 else h0
        dz = dh * (hprev - n)
        dn = dh * (1.0 - z)
        dh_prev = dh * z
        dn_pre = dn * (1.0 - n * n)
        dr = dn_pre * ghn
        dghn = dn_pre * r
        dz_pre = dz * z * (1.0 - z)
        dr_pre = dr * r * (1.0 - r)
        dgx = np.concatenate([dz_pre, dr_pre, dn_pre], axis=1)
        dgh = np.concatenate([dz_pre, dr_pre, dghn], axis=1)
        dwx += dgx.T @ inputs[t]
        dwh += dgh.T @ hprev
        dbx += dgx.sum(axis=0)
        dbh += dgh.sum(axis=0)
        dinputs[t] = dgx @ layer["wx"]
        dh_next = dh_prev + dgh @ layer["wh"]
    return dinputs, {"wx": dwx, "wh": dwh, "bx": dbx, "bh": dbh}


class TestGruBackward:
    @pytest.mark.parametrize("steps, batch", [(1, 3), (2, 1), (30, 5)])
    def test_matches_per_step_oracle(self, steps, batch):
        rng = np.random.default_rng(17)
        stack = GruStack(6, layers=2, rng=rng, name="gru")
        for layer in stack.layers:
            layer["bx"][:] = rng.normal(size=layer["bx"].shape)
            layer["bh"][:] = rng.normal(size=layer["bh"].shape)
        x = np.random.default_rng(18).normal(size=(steps, batch, 6))
        out, cache = stack.forward(x)
        # the backward overwrites the gate slots, so the oracle reads copies
        layer_caches = [{k: v.copy() for k, v in lc.items()} for lc in cache]
        d_out = np.random.default_rng(19).normal(size=out.shape)
        dx, grads = stack_backward(stack, cache, d_out)
        d = d_out
        for i in range(1, -1, -1):
            d, ref = per_step_gru_backward(stack.layers[i], layer_caches[i], d)
            for k, v in ref.items():
                scale = np.abs(v).max()
                assert np.abs(grads[i][k] - v).max() <= 1e-12 * scale, (i, k)
        assert np.abs(dx - d).max() <= 1e-12 * np.abs(d).max()


    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(9)
        stack = GruStack(3, layers=2, rng=rng, name="gru")
        x = np.random.default_rng(10).normal(size=(4, 2, 3))
        out, cache = stack.forward(x)
        dx, grads = stack_backward(stack, cache, np.zeros_like(out))
        assert np.array_equal(dx, np.zeros_like(dx))
        for g in grads:
            for v in g.values():
                assert np.array_equal(v, np.zeros_like(v))

    def test_single_step_single_unit_chain_rule(self):
        # H=1, one step: dL/dh with L = h; compare to symbolic derivative
        rng = np.random.default_rng(11)
        stack = GruStack(1, layers=1, rng=rng, name="gru")
        layer = stack.layers[0]
        x = np.array([[[0.7]]])
        out, cache = stack.forward(x)
        dx, grads = stack_backward(stack, cache, np.ones_like(out))
        wxz, wxr, wxn = layer["wx"][:, 0]
        z = 1 / (1 + np.exp(-wxz * 0.7))
        r = 1 / (1 + np.exp(-wxr * 0.7))
        n = np.tanh(wxn * 0.7)  # h0 = 0, so gh terms vanish
        # h = (1-z) n; dh/dx = -(h..) chain across all three gates
        dz_dx = z * (1 - z) * wxz
        dn_dx = (1 - n * n) * wxn  # r * ghn = 0 since bh = 0, h0 = 0
        dh_dx = -n * dz_dx + (1 - z) * dn_dx
        assert np.isclose(dx[0, 0, 0], dh_dx, atol=1e-12)
        # parameter grads for the n gate input weight
        dh_dwxn = (1 - z) * (1 - n * n) * 0.7
        assert np.isclose(grads[0]["wx"][2, 0], dh_dwxn, atol=1e-12)

    def test_used_cache_raises(self):
        rng = np.random.default_rng(15)
        stack = GruStack(3, layers=2, rng=rng, name="gru")
        out, cache = stack.forward(np.random.default_rng(16).normal(size=(4, 2, 3)))
        stack_backward(stack, cache, np.ones_like(out))
        with pytest.raises(ValueError, match="backward already"):
            stack_backward(stack, cache, np.ones_like(out))

    def test_peak_memory_holds_one_layer_of_gate_gradients(self):
        # the gate gradients go into the cache's gate slots, and one
        # (steps, batch, 3H) buffer serves every layer's weight reductions
        layers, steps, batch, hdim = 3, 40, 64, 8
        rng = np.random.default_rng(20)
        stack = GruStack(hdim, layers=layers, rng=rng, name="gru")
        out, cache = stack.forward(rng.normal(size=(steps, batch, hdim)))
        d_out = rng.normal(size=out.shape)
        grads = {k: np.zeros_like(v) for k, v in stack.tensors().items()}
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stack.backward(cache, d_out, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 2 * steps * batch * 3 * hdim * 8

    def test_finite_difference(self):
        rng = np.random.default_rng(12)
        stack = GruStack(3, layers=2, rng=rng, name="gru")
        x = np.random.default_rng(13).normal(size=(5, 2, 3))
        target = np.random.default_rng(14).normal(size=(5, 2, 3))

        def loss():
            out, _ = stack.forward(x)
            return float(((out - target) ** 2).sum())

        out, cache = stack.forward(x)
        grads = {k: np.zeros_like(v) for k, v in stack.tensors().items()}
        stack.backward(cache, 2.0 * (out - target), grads)
        report = grad_check(loss, stack.tensors(), grads)
        assert max(report.values()) < 1e-4


def oracle_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.exp(np.minimum(x, 0.0)) / (1.0 + e)


def oracle_gru_layer_forward(layer, inputs):
    """The step loop in plain expressions, one fresh temporary each, in the
    dtype of inputs (the weights are cast to it)."""
    steps, batch, _ = inputs.shape
    hdim = layer["wh"].shape[1]
    dtype = inputs.dtype
    wx, wh, bx, bh = (layer[k].astype(dtype) for k in ("wx", "wh", "bx", "bh"))
    h = np.zeros((batch, hdim), dtype)
    hs = np.empty((steps, batch, hdim), dtype)
    zs, rs, ns, ghns = (np.empty((steps, batch, hdim), dtype) for _ in range(4))
    for t in range(steps):
        gx = inputs[t] @ wx.T + bx
        gh = h @ wh.T + bh
        zr = oracle_sigmoid(gx[:, :2 * hdim] + gh[:, :2 * hdim])
        z, r = zr[:, :hdim], zr[:, hdim:]
        ghn = gh[:, 2 * hdim:]
        n = np.tanh(gx[:, 2 * hdim:] + r * ghn)
        h = (1.0 - z) * n + z * h
        hs[t] = h
        zs[t], rs[t], ns[t], ghns[t] = z, r, n, ghn
    return hs, {"inputs": inputs, "h": hs, "z": zs, "r": rs, "n": ns, "ghn": ghns}


def oracle_stack_forward(stack, x, dtype=np.float64):
    """The stack's output through the plain-expression loop in dtype,
    returned as float64."""
    out = np.asarray(x, dtype=dtype)
    for layer in stack.layers:
        out, _ = oracle_gru_layer_forward(layer, out)
    return out.astype(np.float64)


def oracle_gru_layer_backward(layer, cache, grad_outputs):
    """Backward with its gate-gradient buffers allocated per layer."""
    inputs = cache["inputs"]
    steps, batch, _ = inputs.shape
    hdim = layer["wh"].shape[1]
    dgx = np.empty((steps, batch, 3 * hdim))
    dgh = np.empty((steps, batch, 3 * hdim))
    dh_next = np.zeros((batch, hdim))
    h0 = np.zeros((batch, hdim))
    for t in range(steps - 1, -1, -1):
        dh = grad_outputs[t] + dh_next
        z, r, n = cache["z"][t], cache["r"][t], cache["n"][t]
        ghn = cache["ghn"][t]
        hprev = cache["h"][t - 1] if t > 0 else h0
        dz = dh * (hprev - n)
        dn = dh * (1.0 - z)
        dh_prev = dh * z
        dn_pre = dn * (1.0 - n * n)
        dr = dn_pre * ghn
        dg = dgh[t]
        dg[:, :hdim] = dz * z * (1.0 - z)
        dg[:, hdim:2 * hdim] = dr * r * (1.0 - r)
        dg[:, 2 * hdim:] = dn_pre * r
        dgx[t, :, 2 * hdim:] = dn_pre
        dh_next = dh_prev + dg @ layer["wh"]
    dgx[:, :, :2 * hdim] = dgh[:, :, :2 * hdim]
    dwx = np.matmul(dgx.transpose(0, 2, 1), inputs).sum(axis=0)
    dwh = np.matmul(dgh[1:].transpose(0, 2, 1), cache["h"][:-1]).sum(axis=0)
    grads = {"wx": dwx, "wh": dwh,
             "bx": dgx.sum(axis=(0, 1)), "bh": dgh.sum(axis=(0, 1))}
    return dgx @ layer["wx"], grads


# Largest |float32 inference - float64 training| output of a stack fed
# unit-scale inputs. Fixed before the first run from float32's epsilon
# (1.2e-7), with room for error to build up over 3 layers and 250 steps.
F32_GAP_BOUND = 1e-5


class TestGruWorkspaceBytes:
    """The stack runs as a layer wavefront in shared wave buffers; every
    byte must equal the plain per-layer loop's: in float64 for a training
    pass (outputs, caches, gradients), in float32 for an inference pass."""

    @pytest.mark.parametrize("scale", [1.0, 800.0])
    @pytest.mark.parametrize("steps, batch, hdim",
                             [(1, 1, 3), (7, 5, 24), (25, 256, 24), (250, 3, 24)])
    def test_matches_plain_loop(self, steps, batch, hdim, scale):
        self.check(steps, batch, hdim, scale, layers=3)

    # 1, 2, 3 and 5 layers over fewer steps than layers (where no wave step
    # holds every lane), one- and two-row batches and the model's shapes
    @pytest.mark.parametrize("layers", [1, 2, 3, 5])
    @pytest.mark.parametrize("steps, batch, hdim",
                             [(1, 1, 3), (2, 1, 24), (1, 3, 5), (3, 2, 24), (4, 1, 6),
                              (25, 16, 24), (25, 128, 24)])
    def test_layer_counts(self, layers, steps, batch, hdim):
        self.check(steps, batch, hdim, 1.0, layers)
        if steps < layers:
            self.check(steps, batch, hdim, 800.0, layers)

    @staticmethod
    def check(steps, batch, hdim, scale, layers):
        rng = np.random.default_rng(steps * 1000 + batch + 100 * layers)
        stack = GruStack(hdim, layers=layers, rng=rng, name="gru")
        for layer in stack.layers:
            layer["bx"][:] = rng.normal(size=layer["bx"].shape)
            layer["bh"][:] = rng.normal(size=layer["bh"].shape)
        # scale 800 saturates the gates: exp(-|x|) underflows to zero
        x = scale * rng.normal(size=(steps, batch, hdim))
        out, cache = stack.forward(x)
        plain, _ = stack.forward(x, keep_cache=False)
        want, want_cache = x, []
        for layer in stack.layers:
            want, c = oracle_gru_layer_forward(layer, want)
            want_cache.append(c)
        assert out.tobytes() == want.tobytes()
        assert plain.tobytes() == oracle_stack_forward(stack, x, np.float32).tobytes()
        if scale == 1.0:
            assert np.abs(plain - out).max() <= F32_GAP_BOUND
        assert len(cache) == layers
        for got_c, want_c in zip(cache, want_cache):
            for k in ("inputs", "h", "z", "r", "n", "ghn"):
                assert got_c[k].shape == want_c[k].shape, k
                assert got_c[k].tobytes() == want_c[k].tobytes(), k
        d_out = rng.normal(size=out.shape)
        dx, grads = stack_backward(stack, cache, d_out)
        d = d_out
        for i in range(len(stack.layers) - 1, -1, -1):
            d, ref = oracle_gru_layer_backward(stack.layers[i], want_cache[i], d)
            for k, v in ref.items():
                assert grads[i][k].tobytes() == v.tobytes(), (i, k)
        assert dx.tobytes() == d.tobytes()


class TestGruRowIndependence:
    """An inference row's bytes do not depend on the other rows of a batch
    of two or more. A one-row float32 product goes through BLAS gemv, which
    rounds differently; CoopModel.forward runs a one-window batch as two
    rows (tests/test_model.py)."""

    def test_rows_match_every_batch_size(self):
        rng = np.random.default_rng(21)
        stack = GruStack(24, layers=3, rng=rng, name="gru")
        for layer in stack.layers:
            layer["bx"][:] = rng.normal(size=layer["bx"].shape)
        x = rng.normal(size=(25, 256, 24))
        full, _ = stack.forward(x, keep_cache=False)
        for batch in (2, 3, 5, 16, 17, 255):
            out, _ = stack.forward(x[:, :batch], keep_cache=False)
            assert out.tobytes() == full[:, :batch].tobytes(), batch
            last, _ = stack.forward(x[:, 256 - batch:], keep_cache=False)
            assert last.tobytes() == full[:, 256 - batch:].tobytes(), batch


class TestAdam:
    def test_zero_grad_fixed_point(self):
        p = {"w": np.array([[1.0, -2.0]])}
        st = AdamState(p)
        adam_step(p, {"w": np.zeros((1, 2))}, st, lr=0.1)
        assert np.array_equal(p["w"], [[1.0, -2.0]])
        assert st.t == 1

    def test_first_step_magnitude(self):
        for g in (0.001, 3.0, -7.0):
            p = {"w": np.array([[0.0]])}
            st = AdamState(p)
            adam_step(p, {"w": np.array([[g]])}, st, lr=0.05)
            # bias correction makes m_hat = g, v_hat = g^2
            expected = -0.05 * g / (abs(g) + st.eps)
            assert np.isclose(p["w"][0, 0], expected, rtol=1e-10)

    def test_quadratic_descent(self):
        p = {"w": np.array([[1.0]])}
        st = AdamState(p)
        traj = []
        for _ in range(200):
            adam_step(p, {"w": 2.0 * p["w"].copy()}, st, lr=0.05)
            traj.append(abs(p["w"][0, 0]))
        # adam oscillates near the optimum, so check decay of the envelope
        assert max(traj[150:]) < 0.2 * max(traj[:50])
        assert traj[-1] < 0.05


class TestGradCheck:
    def test_quadratic_exact(self):
        p = {"w": np.array([1.0, -2.0, 3.0])}

        def loss():
            return float((p["w"] ** 2).sum())

        report = grad_check(loss, p, {"w": 2.0 * p["w"].copy()})
        assert report["w"] < 1e-9

    def test_corrupted_gradient_fails(self):
        p = {"w": np.array([1.0, -2.0])}

        def loss():
            return float((p["w"] ** 2).sum())

        bad = {"w": 2.0 * p["w"] + np.array([0.5, 0.0])}
        report = grad_check(loss, p, bad)
        assert report["w"] > 1e-2
