"""Dense numerical substrate: a stable sigmoid, stacked GRU forward/backward,
Adam updates, and a finite-difference gradient checker.

Everything runs in float64. Sequences are laid out (steps, batch, dim) so the
recurrence loops over the leading axis and each step is a plain matmul.
Gate blocks inside the stacked 3H weight matrices are ordered (z, r, n).
A layer's forward cache holds its inputs, hidden states h, gates z, r, n and
the recurrent candidate term ghn, one entry per step; backward reads the
previous state as h[t-1] (zeros at t = 0).
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function, output in (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below it,
    # the same expressions a masked two-branch version evaluates
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def uniform_init(rng, rows, cols, fan_in=None):
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); fan_in defaults to cols."""
    if fan_in is None:
        fan_in = cols
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))


class GruLayerParams:
    """One GRU layer: stacked (z, r, n) input/hidden weights and biases."""

    def __init__(self, in_dim, hidden, rng=None):
        self.in_dim = in_dim
        self.hidden = hidden
        if rng is None:
            self.wx = np.zeros((3 * hidden, in_dim))
            self.wh = np.zeros((3 * hidden, hidden))
        else:
            self.wx = uniform_init(rng, 3 * hidden, in_dim)
            self.wh = uniform_init(rng, 3 * hidden, hidden)
        self.bx = np.zeros(3 * hidden)
        self.bh = np.zeros(3 * hidden)

    def tensors(self):
        return {"wx": self.wx, "wh": self.wh, "bx": self.bx, "bh": self.bh}


class GruStack:
    """Stack of GRU layers sharing hidden size; layer 0 consumes in_dim."""

    def __init__(self, in_dim, hidden, layers, rng=None):
        self.layers = [
            GruLayerParams(in_dim if i == 0 else hidden, hidden, rng)
            for i in range(layers)
        ]
        self.hidden = hidden

    def forward(self, inputs):
        """Run the stack over inputs (steps, batch, in_dim).

        Returns (outputs, cache): outputs are the top layer's hidden states,
        cache holds per-layer gate activations needed for backward.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3:
            raise ValueError("gru forward expects (steps, batch, dim) input")
        if inputs.shape[0] < 1:
            raise ValueError("sequence length must be >= 1")
        if inputs.shape[2] != self.layers[0].in_dim:
            raise ValueError(
                f"input dim {inputs.shape[2]} != layer-0 in_dim {self.layers[0].in_dim}"
            )
        cache = []
        x = inputs
        for layer in self.layers:
            x, layer_cache = _gru_layer_forward(layer, x)
            cache.append(layer_cache)
        return x, cache

    def backward(self, cache, grad_outputs):
        """Backprop through time for the whole stack.

        grad_outputs matches the forward outputs (steps, batch, hidden).
        Returns (grad_inputs, grads) where grads is a list of per-layer
        dicts keyed like GruLayerParams.tensors().
        """
        if len(cache) != len(self.layers):
            raise ValueError("cache depth does not match layer count")
        grads = [None] * len(self.layers)
        d = np.asarray(grad_outputs, dtype=np.float64)
        for i in range(len(self.layers) - 1, -1, -1):
            d, grads[i] = _gru_layer_backward(self.layers[i], cache[i], d)
        return d, grads

    def tensors(self, prefix):
        out = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.tensors().items():
                out[f"{prefix}.l{i}.{k}"] = v
        return out


def _gru_layer_forward(layer, inputs):
    steps, batch, _ = inputs.shape
    hdim = layer.hidden
    h = np.zeros((batch, hdim))
    hs = np.empty((steps, batch, hdim))
    zs = np.empty((steps, batch, hdim))
    rs = np.empty((steps, batch, hdim))
    ns = np.empty((steps, batch, hdim))
    ghns = np.empty((steps, batch, hdim))
    for t in range(steps):
        gx = inputs[t] @ layer.wx.T + layer.bx
        gh = h @ layer.wh.T + layer.bh
        z = sigmoid(gx[:, :hdim] + gh[:, :hdim])
        r = sigmoid(gx[:, hdim:2 * hdim] + gh[:, hdim:2 * hdim])
        ghn = gh[:, 2 * hdim:]
        n = np.tanh(gx[:, 2 * hdim:] + r * ghn)
        h = (1.0 - z) * n + z * h
        hs[t], zs[t], rs[t], ns[t], ghns[t] = h, z, r, n, ghn
    cache = {"inputs": inputs, "h": hs, "z": zs, "r": rs, "n": ns, "ghn": ghns}
    return hs, cache


def _gru_layer_backward(layer, cache, grad_outputs):
    inputs = cache["inputs"]
    steps, batch, _ = inputs.shape
    hdim = layer.hidden
    if grad_outputs.shape != (steps, batch, hdim):
        raise ValueError("grad_outputs shape does not match cached forward")
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


class AdamState:
    """First/second moment buffers plus step counter for one tensor set."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params, grads, state, lr):
    """In-place bias-corrected Adam update over a dict of tensors."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {k}: {g.shape} vs {p.shape}")
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def grad_check(loss_fn, params, analytic_grads, h=1e-5, names=None):
    """Compare analytic gradients against central finite differences.

    loss_fn() must be deterministic and read the tensors in `params` by
    reference. Returns {name: max relative error} per tensor.
    """
    report = {}
    for name in (names if names is not None else params):
        p = params[name]
        g = analytic_grads[name]
        worst = 0.0
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            num = (up - down) / (2.0 * h)
            # floor keeps fp cancellation on near-zero entries from dominating
            denom = max(abs(num), abs(g[idx]), 1e-6)
            worst = max(worst, abs(num - g[idx]) / denom)
        report[name] = worst
    return report
