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
    hdim = layer.hidden
    out = np.zeros((steps, batch, hdim))
    for b in range(batch):
        h = [0.0] * hdim
        for t in range(steps):
            gx = [sum(layer.wx[i, k] * inputs[t, b, k] for k in range(in_dim))
                  + layer.bx[i] for i in range(3 * hdim)]
            gh = [sum(layer.wh[i, k] * h[k] for k in range(hdim))
                  + layer.bh[i] for i in range(3 * hdim)]
            newh = []
            for i in range(hdim):
                z = 1 / (1 + np.exp(-(gx[i] + gh[i])))
                r = 1 / (1 + np.exp(-(gx[hdim + i] + gh[hdim + i])))
                n = np.tanh(gx[2 * hdim + i] + r * gh[2 * hdim + i])
                newh.append((1 - z) * n + z * h[i])
            h = newh
            out[t, b] = h
    return out


class TestGruForward:
    def test_zero_weights_zero_output(self):
        stack = GruStack(3, layers=2, rng=np.random.default_rng(1))
        for layer in stack.layers:
            for v in layer.tensors().values():
                v[...] = 0.0
        x = np.random.default_rng(2).normal(size=(5, 2, 3))
        out, _ = stack.forward(x)
        assert np.array_equal(out, np.zeros_like(out))

    def test_length_one_is_single_step(self):
        rng = np.random.default_rng(3)
        stack = GruStack(3, layers=1, rng=rng)
        x = np.random.default_rng(4).normal(size=(1, 1, 3))
        out, _ = stack.forward(x)
        ref = scalar_gru_reference(stack.layers[0], x)
        assert np.allclose(out, ref, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        stack = GruStack(4, layers=1, rng=rng)
        x = np.random.default_rng(6).normal(size=(7, 2, 4))
        out, _ = stack.forward(x)
        ref = scalar_gru_reference(stack.layers[0], x)
        assert np.allclose(out, ref, atol=1e-12)

    def test_output_bounded(self):
        # zero initial state is in (-1,1); every new state is a convex blend
        # of a tanh value and the previous state
        rng = np.random.default_rng(7)
        stack = GruStack(5, layers=3, rng=rng)
        x = np.random.default_rng(8).uniform(-10, 10, size=(50, 4, 5))
        out, _ = stack.forward(x)
        assert np.all(np.abs(out) < 1.0)
        assert np.all(np.isfinite(out))

    def test_shape_errors(self):
        stack = GruStack(3, layers=1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            stack.forward(np.zeros((4, 2, 5)))

    def test_no_cache_same_output_bytes(self):
        rng = np.random.default_rng(15)
        stack = GruStack(5, layers=3, rng=rng)
        x = np.random.default_rng(16).normal(size=(9, 4, 5))
        cached, cache = stack.forward(x)
        out, none = stack.forward(x, keep_cache=False)
        assert none is None
        assert len(cache) == 3
        assert out.tobytes() == cached.tobytes()


def per_step_gru_backward(layer, cache, grad_outputs):
    """Backprop through one layer with every weight gradient accumulated
    inside the time loop, one step at a time."""
    inputs = cache["inputs"]
    steps, batch, _ = inputs.shape
    hdim = layer.hidden
    dwx = np.zeros_like(layer.wx)
    dwh = np.zeros_like(layer.wh)
    dbx = np.zeros_like(layer.bx)
    dbh = np.zeros_like(layer.bh)
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
        dinputs[t] = dgx @ layer.wx
        dh_next = dh_prev + dgh @ layer.wh
    return dinputs, {"wx": dwx, "wh": dwh, "bx": dbx, "bh": dbh}


class TestGruBackward:
    @pytest.mark.parametrize("steps, batch", [(1, 3), (2, 1), (30, 5)])
    def test_matches_per_step_oracle(self, steps, batch):
        rng = np.random.default_rng(17)
        stack = GruStack(6, layers=2, rng=rng)
        for layer in stack.layers:
            layer.bx[:] = rng.normal(size=layer.bx.shape)
            layer.bh[:] = rng.normal(size=layer.bh.shape)
        x = np.random.default_rng(18).normal(size=(steps, batch, 6))
        out, cache = stack.forward(x)
        d_out = np.random.default_rng(19).normal(size=out.shape)
        dx, grads = stack.backward(cache, d_out)
        d = d_out
        for i in range(1, -1, -1):
            d, ref = per_step_gru_backward(stack.layers[i], cache[i], d)
            for k, v in ref.items():
                scale = np.abs(v).max()
                assert np.abs(grads[i][k] - v).max() <= 1e-12 * scale, (i, k)
        assert np.abs(dx - d).max() <= 1e-12 * np.abs(d).max()


    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(9)
        stack = GruStack(3, layers=2, rng=rng)
        x = np.random.default_rng(10).normal(size=(4, 2, 3))
        out, cache = stack.forward(x)
        dx, grads = stack.backward(cache, np.zeros_like(out))
        assert np.array_equal(dx, np.zeros_like(dx))
        for g in grads:
            for v in g.values():
                assert np.array_equal(v, np.zeros_like(v))

    def test_single_step_single_unit_chain_rule(self):
        # H=1, one step: dL/dh with L = h; compare to symbolic derivative
        rng = np.random.default_rng(11)
        stack = GruStack(1, layers=1, rng=rng)
        layer = stack.layers[0]
        x = np.array([[[0.7]]])
        out, cache = stack.forward(x)
        dx, grads = stack.backward(cache, np.ones_like(out))
        wxz, wxr, wxn = layer.wx[:, 0]
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

    def test_finite_difference(self):
        rng = np.random.default_rng(12)
        stack = GruStack(3, layers=2, rng=rng)
        x = np.random.default_rng(13).normal(size=(5, 2, 3))
        target = np.random.default_rng(14).normal(size=(5, 2, 3))

        def loss():
            out, _ = stack.forward(x)
            return float(((out - target) ** 2).sum())

        out, cache = stack.forward(x)
        _, grads = stack.backward(cache, 2.0 * (out - target))
        flat = {}
        for i, g in enumerate(grads):
            for k, v in g.items():
                flat[f"l{i}.{k}"] = v
        params = {}
        for i, layer in enumerate(stack.layers):
            for k, v in layer.tensors().items():
                params[f"l{i}.{k}"] = v
        report = grad_check(loss, params, flat)
        assert max(report.values()) < 1e-4

    def test_cache_mismatch(self):
        stack = GruStack(3, layers=1, rng=np.random.default_rng(0))
        x = np.zeros((4, 1, 3))
        _, cache = stack.forward(x)
        with pytest.raises(ValueError):
            stack.backward(cache, np.zeros((3, 1, 3)))


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

    def test_shape_mismatch(self):
        p = {"w": np.zeros((2, 2))}
        st = AdamState(p)
        with pytest.raises(ValueError):
            adam_step(p, {"w": np.zeros((2, 3))}, st, lr=0.1)


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
