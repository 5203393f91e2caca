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
        stack = GruStack(2, 3, layers=2)  # no rng -> all-zero weights
        x = np.random.default_rng(2).normal(size=(5, 2, 2))
        out, _ = stack.forward(x)
        assert np.array_equal(out, np.zeros_like(out))

    def test_length_one_is_single_step(self):
        rng = np.random.default_rng(3)
        stack = GruStack(2, 3, layers=1, rng=rng)
        x = np.random.default_rng(4).normal(size=(1, 1, 2))
        out, _ = stack.forward(x)
        ref = scalar_gru_reference(stack.layers[0], x)
        assert np.allclose(out, ref, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        stack = GruStack(3, 4, layers=1, rng=rng)
        x = np.random.default_rng(6).normal(size=(7, 2, 3))
        out, _ = stack.forward(x)
        ref = scalar_gru_reference(stack.layers[0], x)
        assert np.allclose(out, ref, atol=1e-12)

    def test_output_bounded(self):
        # zero initial state is in (-1,1); every new state is a convex blend
        # of a tanh value and the previous state
        rng = np.random.default_rng(7)
        stack = GruStack(2, 5, layers=3, rng=rng)
        x = np.random.default_rng(8).uniform(-10, 10, size=(50, 4, 2))
        out, _ = stack.forward(x)
        assert np.all(np.abs(out) < 1.0)
        assert np.all(np.isfinite(out))

    def test_shape_errors(self):
        stack = GruStack(2, 3, layers=1)
        with pytest.raises(ValueError):
            stack.forward(np.zeros((4, 2, 5)))


class TestGruBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(9)
        stack = GruStack(2, 3, layers=2, rng=rng)
        x = np.random.default_rng(10).normal(size=(4, 2, 2))
        out, cache = stack.forward(x)
        dx, grads = stack.backward(cache, np.zeros_like(out))
        assert np.array_equal(dx, np.zeros_like(dx))
        for g in grads:
            for v in g.values():
                assert np.array_equal(v, np.zeros_like(v))

    def test_single_step_single_unit_chain_rule(self):
        # H=1, one step: dL/dh with L = h; compare to symbolic derivative
        rng = np.random.default_rng(11)
        stack = GruStack(1, 1, layers=1, rng=rng)
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
        stack = GruStack(2, 3, layers=2, rng=rng)
        x = np.random.default_rng(13).normal(size=(5, 2, 2))
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
        stack = GruStack(2, 3, layers=1)
        x = np.zeros((4, 1, 2))
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
