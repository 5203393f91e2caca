"""Dense numerical substrate: a stable sigmoid, stacked GRU forward/backward,
Adam updates, and a finite-difference gradient checker.

Sequences are laid out (steps, batch, dim). Gate blocks inside the stacked
3H weight matrices are ordered (z, r, n). A training pass (keep_cache=True)
runs in float64; an inference pass runs each recurrence in float32 and
returns the top layer's states as float64.

A `GruStack` runs as a layer wavefront (Appleyard et al. 2016, arXiv
1604.01946): at wave step s every active layer l, a lane, runs its time
step s - l, so a stack of L layers over T steps takes T + L - 1 wave steps
instead of L * T layer steps. One stacked matmul applies every lane's
(wx.T, wh.T) pair to its (input, previous state) pair, and one call per
ufunc advances all lanes. Each lane's operands are the ones the per-layer
loop gives that layer at that step, and every operation keeps the operands
and order of the plain expressions (gx = x @ wx.T + bx, ..., h = (1 - z)
* n + z * h), so outputs, caches and gradients have the same bytes.

A stack owns its weights stacked per lane: w (layers, 2, 3H, H) holds
each layer's (wx, wh), drawn in one call in the order of per-layer draws,
and b (layers, 2, 3H) its (bx, bh). The forward uses w as transposed views,
as a per-layer loop uses wx.T: a contiguous copy of the transpose takes
another BLAS path and, on a one-row batch (gemv), rounds differently.
Per layer, `GruStack.layers` holds views of w and b keyed wx, wh, bx and
bh, and `GruStack.tensors` names them ``<stack>.l<i>.<key>``, the one place
those names are made: the model collects its tensors from it, and the
backward adds each layer's gradients into the model's gradient dict under
the same names.

A training forward keeps its states in one buffer, each layer's inputs
and states contiguous with a zero initial state in front, and writes them
through a skewed view whose [s, l] is layer l's step s - l. Its gates are
written per wave step into (wave step, lane) buffers, so every step reads
and writes contiguous blocks. The cache is a `StackCache`: per layer a
dict of (steps, batch, H) views (inputs, h, z, r, n, ghn, indexable by
step) plus the buffers, which the backward walks lane by lane in reverse,
top layer first; each lane's input gradient is one product per step that
feeds the lane below at the next one. The backward keeps each layer's
input-gate gradients dgx and forms the weight and bias gradients after the
loop in ascending time, one layer at a time: those of wx and bx, then,
with the n block scaled by r in place, which makes dgx the state-gate
gradients dgh, those of wh and bh. The top layer's states are returned as
a view of the state buffer.

An inference pass keeps two wave rows, casts each step's float64 input
row into its row and writes the top layer's states straight into the
float64 output, so besides the output it holds only (layers, batch, 3H)
sized buffers.

Per wave step the lanes share one call per operation, which pays at small
batches, where calls cost more than the arithmetic. Matmuls after the
backward loop stay stacked over steps, so NumPy runs one small BLAS
product per step, which stays single-threaded; one product over all steps
x batch rows is split across BLAS threads and is many times slower
whenever the second thread has gone idle.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function, output in (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid_into(x, np.empty_like(x), np.empty_like(x))


def _sigmoid_into(x, out, tmp):
    """The stable sigmoid of x written into out (which may be x), with tmp
    (x's shape) as scratch; returns out."""
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below it,
    # the same expressions a masked two-branch version evaluates:
    # exp(min(x, 0)) is exactly 1 for x >= 0 and exp(-|x|) below it
    np.abs(x, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.add(1.0, tmp, out=tmp)
    np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    return np.divide(out, tmp, out=out)


def uniform_init(rng, rows, cols, fan_in=None):
    """uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)); fan_in defaults to cols."""
    if fan_in is None:
        fan_in = cols
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))


class GruStack:
    """Stack of GRU layers whose inputs and states all have size hidden,
    owning its weights w and b; `name` prefixes its tensor names."""

    def __init__(self, hidden, layers, rng, name):
        bound = 1.0 / np.sqrt(hidden)
        # one draw in the order of per-layer (wx, wh) draws, with their bytes
        self.w = rng.uniform(-bound, bound, size=(layers, 2, 3 * hidden, hidden))
        self.b = np.zeros((layers, 2, 3 * hidden))
        self.name = name

    @property
    def layers(self):
        """Per layer a dict of views of w and b keyed wx, wh, bx and bh."""
        return [{"wx": w[0], "wh": w[1], "bx": b[0], "bh": b[1]}
                for w, b in zip(self.w, self.b)]

    def _key(self, layer, k):
        return f"{self.name}.l{layer}.{k}"

    def tensors(self):
        """Every layer's views by name, layer by layer, keys in order."""
        return {self._key(i, k): v for i, layer in enumerate(self.layers)
                for k, v in layer.items()}

    def forward(self, inputs, keep_cache=True):
        """Run the stack over inputs (steps, batch, hidden).

        Returns (outputs, cache): outputs are the top layer's hidden states
        (steps, batch, hidden) as float64, cache the `StackCache` backward
        needs, or None when keep_cache is false; the recurrence then runs in
        float32.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        steps, batch, hdim = inputs.shape
        layers = len(self.w)
        dtype = np.float64 if keep_cache else np.float32
        waves = steps + layers - 1
        # per lane the pair (wx.T, wh.T) as transposed views, and the biases
        # (bx, bh) repeated over the batch, as a broadcast add is slower
        w = self.w.astype(dtype, copy=False).transpose(0, 1, 3, 2)
        b = np.repeat(self.b.astype(dtype, copy=False)[:, :, None], batch, axis=2)
        g = np.empty((layers, 2, batch, 3 * hdim), dtype)
        zr_tmp = np.empty((layers, 2, batch, hdim), dtype)
        blend = np.empty((layers, batch, hdim), dtype)
        if keep_cache:
            seq = np.zeros(((layers + 1) * (steps + 1), batch, hdim))
            seq[1:steps + 1] = inputs
            wave = _blocks(seq[1:], (waves + 1, layers + 1), (1, steps))
            pairs = _blocks(seq[1:], (waves, layers, 2), (1, steps, steps))
            zr_w = np.empty((waves, layers, 2, batch, hdim))
            n_w, ghn_w = (np.empty((waves, layers, batch, hdim)) for _ in range(2))
        else:
            flat = np.zeros((2 * (layers + 1), batch, hdim), dtype)
            wave = flat.reshape(2, layers + 1, batch, hdim)
            pairs = [_blocks(flat[i * (layers + 1):], (layers, 2), (1, 1)) for i in (0, 1)]
            zr_s = np.empty((layers, 2, batch, hdim), dtype)
            n_s = np.empty((layers, batch, hdim), dtype)
            out = np.empty((steps, batch, hdim))
        for s in range(waves):
            lo, hi = max(0, s - steps + 1), min(layers, s + 1)
            k = hi - lo
            g_s, bl = g[:k], blend[:k]
            if keep_cache:
                cur, nxt, pair = wave[s], wave[s + 1], pairs[s, lo:hi]
                zr, n, ghn = zr_w[s, lo:hi], n_w[s, lo:hi], ghn_w[s, lo:hi]
            else:
                cur, nxt, pair = wave[s % 2], wave[(s + 1) % 2], pairs[s % 2][lo:hi]
                if s < steps:
                    cur[0] = inputs[s]
                zr, n, ghn = zr_s[:k], n_s[:k], g_s[:, 1, :, 2 * hdim:]
            h, h_new = cur[lo + 1:hi + 1], nxt[lo + 1:hi + 1]
            z, r = zr[:, 0], zr[:, 1]
            # every operation below keeps the operands and order of
            # gx = x @ wx.T + bx; gh = h @ wh.T + bh; zr = sigmoid(gx + gh);
            # n = tanh(gx_n + r * ghn); h = (1 - z) * n + z * h, where pair
            # holds each lane's (x, h) and g_s its (gx, gh)
            np.matmul(pair, w[lo:hi], out=g_s)
            g_s += b[lo:hi]
            gates = g_s.reshape(k, 2, batch, 3, hdim)
            np.add(gates[:, 0, :, :2], gates[:, 1, :, :2], out=zr.transpose(0, 2, 1, 3))
            _sigmoid_into(zr, zr, zr_tmp[:k])
            if keep_cache:
                ghn[...] = g_s[:, 1, :, 2 * hdim:]
            np.multiply(r, ghn, out=n)
            np.tanh(np.add(g_s[:, 0, :, 2 * hdim:], n, out=n), out=n)
            np.subtract(1.0, z, out=bl)
            bl *= n
            np.multiply(z, h, out=h_new)
            np.add(bl, h_new, out=h_new)
            if not keep_cache and hi == layers:
                out[s - layers + 1] = h_new[-1]
        if not keep_cache:
            return out, None
        span = steps + 1
        cache = StackCache(
            [{"inputs": seq[l * span + 1:(l + 1) * span],
              "h": seq[(l + 1) * span + 1:(l + 2) * span],
              "z": zr_w[l:l + steps, l, 0], "r": zr_w[l:l + steps, l, 1],
              "n": n_w[l:l + steps, l], "ghn": ghn_w[l:l + steps, l]}
             for l in range(layers)],
            wave, zr_w, n_w, ghn_w)
        return cache[-1]["h"], cache

    def backward(self, cache, grad_outputs, grads):
        """Backprop through time for the whole stack.

        grad_outputs matches the forward outputs (steps, batch, hidden).
        Adds each layer's weight and bias gradients into grads under the
        names `tensors` gives and returns the input gradients.
        """
        layers = len(self.w)
        d = np.asarray(grad_outputs, dtype=np.float64)
        steps, batch, hdim = cache[0]["inputs"].shape
        wx, wh = self.w[:, 0], self.w[:, 1]
        # the input-gate gradients of every layer and step, contiguous per
        # layer for the reductions after the loop, and their wave view
        dgx_l = np.empty((layers * steps, batch, 3 * hdim))
        dgx_w = _blocks(dgx_l, (steps + layers - 1, layers), (1, steps - 1))
        dgh = np.empty((layers, batch, 3 * hdim))
        dzr, omzr = (np.empty((layers, 2, batch, hdim)) for _ in range(2))
        dn, nn = (np.empty((layers, batch, hdim)) for _ in range(2))
        # d_up[l + 1] is the gradient reaching lane l's output at its step;
        # dh_next holds each lane's dh, then dh_prev, then the next dh_next
        d_up = np.empty((layers + 1, batch, hdim))
        dh_next = np.zeros((layers, batch, hdim))
        dx = np.empty((steps, batch, hdim))
        for s in range(steps + layers - 2, -1, -1):
            lo, hi = max(0, s - steps + 1), min(layers, s + 1)
            k = hi - lo
            if hi == layers:
                d_up[layers] = d[s - layers + 1]
            zr, n, ghn = cache.zr[s, lo:hi], cache.n[s, lo:hi], cache.ghn[s, lo:hi]
            z, r = zr[:, 0], zr[:, 1]
            hprev = cache.wave[s, lo + 1:hi + 1]
            dg_x, dg_h, d_zr, om_zr = dgx_w[s, lo:hi], dgh[:k], dzr[:k], omzr[:k]
            dz, dr = d_zr[:, 0], d_zr[:, 1]
            # every operation below keeps the operands and order of
            # dh = g + dh_next; dz = dh * (hprev - n); dn = dh * (1 - z);
            # dh_prev = dh * z; dn_pre = dn * (1 - n * n); dr = dn_pre * ghn;
            # dgx = [dz * z * (1 - z) | dr * r * (1 - r) | dn_pre];
            # dgh = [same z|r block | dn_pre * r]; dh_next = dh_prev + dgh @ wh
            d_h = np.add(d_up[lo + 1:hi + 1], dh_next[lo:hi], out=dh_next[lo:hi])
            np.subtract(1.0, zr, out=om_zr)
            np.subtract(hprev, n, out=dz)
            np.multiply(d_h, dz, out=dz)
            dn_pre = np.multiply(d_h, om_zr[:, 0], out=dn[:k])  # dn, until scaled
            dh_prev = np.multiply(d_h, z, out=d_h)
            n_n = np.multiply(n, n, out=nn[:k])
            np.subtract(1.0, n_n, out=n_n)
            dn_pre *= n_n
            np.multiply(dn_pre, ghn, out=dr)
            d_zr *= zr
            d_zr *= om_zr
            dg_x[..., :hdim] = dz
            dg_x[..., hdim:2 * hdim] = dr
            dg_x[..., 2 * hdim:] = dn_pre
            dg_h[..., :2 * hdim] = dg_x[..., :2 * hdim]
            dg_h[..., 2 * hdim:] = np.multiply(dn_pre, r, out=dn_pre)
            np.matmul(dg_x, wx[lo:hi], out=d_up[lo:hi])
            dh_prev += np.matmul(dg_h, wh[lo:hi], out=n_n)  # the lanes' next dh_next
            if lo == 0:
                dx[s] = d_up[0]
        for l, lc in enumerate(cache):
            dg = dgx_l[l * steps:(l + 1) * steps]
            dwx = np.matmul(dg.transpose(0, 2, 1), lc["inputs"]).sum(axis=0)
            dbx = dg.sum(axis=(0, 1))
            dg[..., 2 * hdim:] *= lc["r"]  # dgx becomes dgh: dn_pre * r
            # h[t-1] is zero at t = 0, so the first step adds nothing to dwh
            dwh = np.matmul(dg[1:].transpose(0, 2, 1), lc["h"][:-1]).sum(axis=0)
            dbh = dg.sum(axis=(0, 1))
            for k, g in (("wx", dwx), ("wh", dwh), ("bx", dbx), ("bh", dbh)):
                grads[self._key(l, k)] += g
        return dx


class StackCache(list):
    """A training forward's cache: one dict per layer, whose inputs, h, z,
    r, n and ghn are (steps, batch, .) views into the flat wave buffers
    this object also holds for the backward to walk lane by lane."""

    def __init__(self, layer_caches, wave, zr, n, ghn):
        super().__init__(layer_caches)
        self.wave, self.zr, self.n, self.ghn = wave, zr, n, ghn


def _blocks(buf, counts, steps):
    """A view of buf (blocks, ...) with leading axes `counts` whose index
    (i, j, ...) is block i * steps[0] + j * steps[1] + ...; indices may
    share a block. Callers keep every index inside buf."""
    return np.lib.stride_tricks.as_strided(
        buf, shape=tuple(counts) + buf.shape[1:],
        strides=tuple(n * buf.strides[0] for n in steps) + buf.strides[1:])


class AdamState:
    """First/second moment buffers plus step counter for one tensor set."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the same for every tensor set

    def __init__(self, params):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params, grads, state, lr):
    """In-place bias-corrected Adam update over a dict of tensors; grads
    holds a gradient of each tensor's shape under its name."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for k, p in params.items():
        g = grads[k]
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
