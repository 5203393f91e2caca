"""Dense numerical substrate: a stable sigmoid, stacked GRU forward/backward,
Adam updates, and a finite-difference gradient checker.

Everything runs in float64. Sequences are laid out (steps, batch, dim) so the
recurrence loops over the leading axis. Gate blocks inside the stacked 3H
weight matrices are ordered (z, r, n).

The GRU step loop computes one sigmoid over the stacked z|r block. A layer's
forward cache holds its inputs, hidden states h, gates z, r, n and the
recurrent candidate term ghn, one entry per step; with keep_cache=False
(inference) no gate buffers are allocated and no cache is returned. Backward
walks the steps in reverse, storing the gate pre-activation gradients of
every step, and then forms the input, weight and bias gradients with one
matmul or sum each; the previous state is h[t-1], zeros at t = 0.

The input projection stays inside the step loop. Hoisting it into one
(steps, batch, 3H) matmul before the loop made the forward about 20 % slower
on a 2-vCPU VM at T = 200 and T = 2000: the hoisted buffer is read back after
it has left the cache, and page faults on a fresh megabyte-sized allocation
cost ~4 us each there. The matmuls after the backward loop are stacked over
steps, so NumPy runs one small BLAS product per step, which stays
single-threaded; one product over all steps x batch rows is split across
BLAS threads and took 7-8 ms instead of 0.5 ms on that VM whenever the
second thread had gone idle.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function, output in (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below it,
    # the same expressions a masked two-branch version evaluates:
    # exp(min(x, 0)) is exactly 1 for x >= 0 and exp(-|x|) below it
    e = np.exp(-np.abs(x))
    return np.exp(np.minimum(x, 0.0)) / (1.0 + e)


def uniform_init(rng, rows, cols, fan_in=None):
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); fan_in defaults to cols."""
    if fan_in is None:
        fan_in = cols
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))


class GruLayerParams:
    """One GRU layer: stacked (z, r, n) input/hidden weights and biases,
    input and hidden size both `hidden`."""

    def __init__(self, hidden, rng):
        self.hidden = hidden
        self.wx = uniform_init(rng, 3 * hidden, hidden)
        self.wh = uniform_init(rng, 3 * hidden, hidden)
        self.bx = np.zeros(3 * hidden)
        self.bh = np.zeros(3 * hidden)

    def tensors(self):
        return {"wx": self.wx, "wh": self.wh, "bx": self.bx, "bh": self.bh}


class GruStack:
    """Stack of GRU layers whose inputs and states all have size hidden."""

    def __init__(self, hidden, layers, rng):
        self.layers = [GruLayerParams(hidden, rng) for _ in range(layers)]
        self.hidden = hidden

    def forward(self, inputs, keep_cache=True):
        """Run the stack over inputs (steps, batch, hidden).

        Returns (outputs, cache): outputs are the top layer's hidden states,
        cache holds per-layer gate activations needed for backward, or is
        None when keep_cache is false.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 3:
            raise ValueError("gru forward expects (steps, batch, dim) input")
        if inputs.shape[0] < 1:
            raise ValueError("sequence length must be >= 1")
        if inputs.shape[2] != self.hidden:
            raise ValueError(f"input dim {inputs.shape[2]} != hidden {self.hidden}")
        cache = [] if keep_cache else None
        x = inputs
        for layer in self.layers:
            x, layer_cache = _gru_layer_forward(layer, x, keep_cache)
            if keep_cache:
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


def _gru_layer_forward(layer, inputs, keep_cache=True):
    steps, batch, _ = inputs.shape
    hdim = layer.hidden
    h = np.zeros((batch, hdim))
    hs = np.empty((steps, batch, hdim))
    if keep_cache:
        zs, rs, ns, ghns = (np.empty((steps, batch, hdim)) for _ in range(4))
    for t in range(steps):
        gx = inputs[t] @ layer.wx.T + layer.bx
        gh = h @ layer.wh.T + layer.bh
        zr = sigmoid(gx[:, :2 * hdim] + gh[:, :2 * hdim])
        z, r = zr[:, :hdim], zr[:, hdim:]
        ghn = gh[:, 2 * hdim:]
        n = np.tanh(gx[:, 2 * hdim:] + r * ghn)
        h = (1.0 - z) * n + z * h
        hs[t] = h
        if keep_cache:
            zs[t], rs[t], ns[t], ghns[t] = z, r, n, ghn
    cache = None
    if keep_cache:
        cache = {"inputs": inputs, "h": hs, "z": zs, "r": rs, "n": ns, "ghn": ghns}
    return hs, cache


def _gru_layer_backward(layer, cache, grad_outputs):
    inputs = cache["inputs"]
    steps, batch, _ = inputs.shape
    hdim = layer.hidden
    if grad_outputs.shape != (steps, batch, hdim):
        raise ValueError("grad_outputs shape does not match cached forward")
    # gate pre-activation gradients of every step: dgh feeds wh, bh and the
    # recurrence; dgx (same z|r block, n block not scaled by r) feeds wx, bx
    # and the inputs
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
        dh_next = dh_prev + dg @ layer.wh
    dgx[:, :, :2 * hdim] = dgh[:, :, :2 * hdim]
    # h[t-1] is zero at t = 0, so the first step adds nothing to dwh
    dwx = np.matmul(dgx.transpose(0, 2, 1), inputs).sum(axis=0)
    dwh = np.matmul(dgh[1:].transpose(0, 2, 1), cache["h"][:-1]).sum(axis=0)
    grads = {"wx": dwx, "wh": dwh,
             "bx": dgx.sum(axis=(0, 1)), "bh": dgh.sum(axis=(0, 1))}
    return dgx @ layer.wx, grads


class AdamState:
    """First/second moment buffers plus step counter for one tensor set."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the same for every tensor set

    def __init__(self, params):
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


def grad_check(loss_fn, params, analytic_grads, h=1e-5):
    """Compare analytic gradients against central finite differences.

    loss_fn() must be deterministic and read the tensors in `params` by
    reference. Returns {name: max relative error} per tensor.
    """
    report = {}
    for name in params:
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
