"""Cooperative detector: patch-level time/frequency classification guiding a
soft-masked reconstruction autoencoder, plus residual classification.

Forward and backward are written by hand over the numerics module. All
sequence tensors are (N patches, B windows, dim). A window and its
reconstruction go through one encode path (`_encode`/`_encode_backward`):
the residual pass re-encodes the reconstruction with the same time and
frequency encoders. Both classification stages go through one two-head
path (`_two_heads`/`_two_heads_backward`): the first on the encoded window,
the second, with the shared head_resid at patch granularity and max fusion,
on the difference between the window's and the reconstruction's encodings.
Either way it yields (A_t, A_f, A) and, under max fusion, which head won.
A forward with keep_cache=True is a training pass and runs in float64. An
inference pass runs the five GRU recurrences in float32 (`GruStack.forward`)
and everything around them in float64; its scores differ from a float64
pass by about 1e-8 on an untrained model and by up to 1.7e-7 after the
100-epoch acceptance fit. The analysis window is
always boxcar. Ablation behavior is selected by four config flags: masking
strategy, classification granularity, branch fusion and scoring; the
default configuration is soft masking, patch granularity, max fusion,
joint scoring. Hard masking thresholds at the mean plus three standard
deviations of the fused probabilities of the last training batch; an
inference forward of a hard-masking model that was never trained raises,
as there is no calibrated threshold. `CoopConfig` is the one place that decides whether
the settings are valid; nothing downstream checks them again.

The frequency branch reads per-patch STFT features framed straight from
each window (`spectral.stft_apply` with the model's patch kernel). The
backward pass maps their gradient to the reconstruction through the dense
operator's transpose, `stft_mat`, its only use. The model builds that
operator on its first backward and keeps it, so construction, checkpoint
loading and detect never allocate it (256 MB at T = 2000).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import spectral
from .numerics import GruStack, sigmoid, uniform_init

MASKINGS = ("soft", "hard", "random", "grating")
GRANULARITIES = ("patch", "step", "window")
FUSIONS = ("max", "mean", "feat_add", "feat_gate")
SCORINGS = ("joint", "recon_only", "class_only")
RANDOM_MASK_RATE = 0.25  # share of patches the "random" masking ablation masks


@dataclass
class CoopConfig:
    T: int
    P: int = 8
    H: int = 24
    K: int = 4
    layers: int = 3
    lam: float = 10.0
    frame_len: int = 8
    masking: str = "soft"
    granularity: str = "patch"
    fusion: str = "max"
    scoring: str = "joint"
    smooth_window: int = 0  # 0 -> use P

    def __post_init__(self):
        for name in ("T", "P", "H", "K", "layers", "frame_len", "smooth_window"):
            value = getattr(self, name)
            least = 0 if name == "smooth_window" else 1
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
                    or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
        if self.T % self.P != 0:
            raise ValueError(f"T={self.T} must be a multiple of P={self.P}")
        if self.frame_len % 2 != 0 or self.frame_len > self.T:
            raise ValueError(f"frame_len={self.frame_len} must be even and at most "
                             f"T={self.T}")
        if self.K > self.frame_len // 2 + 1:
            raise ValueError(f"K={self.K} exceeds frame_len//2+1={self.frame_len // 2 + 1}")
        if not isinstance(self.lam, numbers.Real) or isinstance(self.lam, bool) \
                or not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be a finite number >= 0, not {self.lam!r}")
        if self.masking not in MASKINGS:
            raise ValueError(f"masking must be one of {MASKINGS}")
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"granularity must be one of {GRANULARITIES}")
        if self.fusion not in FUSIONS:
            raise ValueError(f"fusion must be one of {FUSIONS}")
        if self.scoring not in SCORINGS:
            raise ValueError(f"scoring must be one of {SCORINGS}")

    @property
    def N(self):
        return self.T // self.P

    def block(self):
        """(T, P, H, K, layers, lam): the config block a checkpoint stores."""
        return (self.T, self.P, self.H, self.K, self.layers, self.lam)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise TypeError(f"model settings must be an object, not {type(d).__name__}")
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        return cls(**known)

    @classmethod
    def for_period(cls, period, **overrides):
        """Window = 4 dominant periods rounded up to a patch multiple,
        STFT frame tied to the period."""
        p = overrides.pop("P", cls.P)
        t = ((4 * period + p - 1) // p) * p
        return cls(T=t, P=p, frame_len=min(spectral.frame_len_for_period(period), t),
                   smooth_window=period + 1,  # odd periods: smooth() widens to period + 2
                   **overrides)


@dataclass
class PatchProbabilities:
    time: np.ndarray       # A_t, (N, B)
    freq: np.ndarray       # A_f
    fused: np.ndarray      # A
    resid: np.ndarray      # A^r
    combined: np.ndarray   # A_c = (A + A^r) / 2


@dataclass
class ForwardResult:
    probs: PatchProbabilities
    x_r: np.ndarray         # (B, T)
    cache: dict | None = field(default=None, repr=False)


def hard_mask_threshold(probs):
    """Hard-mask cutoff: mean plus three (population) standard deviations."""
    probs = np.asarray(probs, dtype=np.float64)
    return float(probs.mean() + 3.0 * probs.std())


def mask_coefficients(fused_probs, config, rng=None, threshold=None):
    """Per-patch mask weights for the reconstruction blend.

    Returns (coefficients, grad_flows): gradient flows back into the
    classifier only in soft mode; the binary variants are constants. Hard
    masking needs the threshold training calibrated (ValueError without it).
    """
    a = fused_probs
    mode = config.masking
    if mode == "soft":
        return a, True
    if mode == "hard":
        if threshold is None:
            raise ValueError("hard masking needs the threshold training calibrates")
        return (a > threshold).astype(np.float64), False
    if mode == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        return (rng.random(a.shape) < RANDOM_MASK_RATE).astype(np.float64), False
    if mode == "grating":
        phase = int(rng.integers(2)) if rng is not None else 0
        coeff = np.zeros_like(a)
        coeff[phase::2] = 1.0
        return coeff, False
    raise ValueError(f"unknown masking mode {mode!r}")


class CoopModel:
    """Holds all learnable tensors and implements forward/backward."""

    def __init__(self, config: CoopConfig, seed=0):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config
        fdim = 2 * c.K * c.P
        self.tensors = {}
        t = self.tensors
        t["w_time_patch"] = uniform_init(rng, c.H, c.P)
        t["w_freq_patch"] = uniform_init(rng, c.H, fdim)
        t["w_mask_proj"] = uniform_init(rng, c.H, c.P)
        t["e_mask"] = uniform_init(rng, c.H, c.N, fan_in=c.H)
        self.gru_time = GruStack(c.H, c.layers, rng)
        self.gru_freq = GruStack(c.H, c.layers, rng)
        self.gru_recon = GruStack(c.H, c.layers, rng)
        t.update(self.gru_time.tensors("gru_time"))
        t.update(self.gru_freq.tensors("gru_freq"))
        t.update(self.gru_recon.tensors("gru_recon"))
        t["head_time"] = uniform_init(rng, 1, c.H)
        t["head_freq"] = uniform_init(rng, 1, c.H)
        t["head_resid"] = uniform_init(rng, 1, c.H)
        t["w_out"] = uniform_init(rng, c.P, c.H)
        if c.granularity == "step":
            t["head_step_time"] = uniform_init(rng, c.P, c.H)
            t["head_step_freq"] = uniform_init(rng, c.P, c.H)
        if c.fusion == "feat_gate":
            t["w_gate"] = uniform_init(rng, c.H, 2 * c.H)
            t["b_gate"] = np.zeros(c.H)
        self.stft_kernel = spectral.stft_patch_kernel(c.P, c.frame_len, c.K)
        self.hard_threshold = None  # calibrated during training

    @functools.cached_property
    def stft_mat(self):
        """Dense (2K*T, T) STFT operator whose transpose product is the
        backward pass's adjoint of the frequency features; built on the
        first backward, so inference never allocates it."""
        c = self.config
        return spectral.stft_matrix(c.T, c.frame_len, c.K)

    def num_params(self):
        return int(sum(v.size for v in self.tensors.values()))

    def zero_grads(self):
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    # -- forward ----------------------------------------------------------

    def forward(self, xb, rng=None, keep_cache=False):
        """Run the full pipeline on a batch of windows xb (B, T).

        keep_cache=True marks a training pass: the result carries what
        backward needs, and hard masking calibrates its threshold on it.
        Otherwise the GRU recurrences run in float32.
        """
        c = self.config
        t = self.tensors
        xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
        B = xb.shape[0]
        if xb.shape[1] != c.T:
            raise ValueError(f"window length {xb.shape[1]} != T={c.T}")
        ht_tilde, hf_tilde, enc = self._encode(xb, keep_cache)

        a_t, a_f, a_fused, cls_cache = self._classify(ht_tilde, hf_tilde)

        if keep_cache and c.masking == "hard":
            self.hard_threshold = hard_mask_threshold(a_fused)
        coeff, grad_through_mask = mask_coefficients(a_fused, c, rng=rng,
                                                     threshold=self.hard_threshold)

        z = enc["patches"] @ t["w_mask_proj"].T                     # (N,B,H)
        em_cols = t["e_mask"].T[:, None, :]                         # (N,1,H)
        e_m = coeff[..., None] * em_cols + (1.0 - coeff)[..., None] * z

        r_out, cache_r = self.gru_recon.forward(e_m, keep_cache=keep_cache)
        xr_p = r_out @ t["w_out"].T                                 # (N,B,P)
        x_r = xr_p.transpose(1, 0, 2).reshape(B, c.T)

        # residual pass: encode the reconstruction with the same encoders,
        # classify the differences with one shared patch head, max-fused
        h_t, h_f, enc_r = self._encode(x_r, keep_cache)
        _, _, a_r, resid_cache = self._two_heads(
            ht_tilde - h_t, hf_tilde - h_f, ("resid", "resid"), "patch", "max")
        a_c = 0.5 * (a_fused + a_r)

        probs = PatchProbabilities(time=a_t, freq=a_f, fused=a_fused,
                                   resid=a_r, combined=a_c)
        cache = None
        if keep_cache:
            cache = {
                "enc": enc, "enc_r": enc_r, "cache_r": cache_r,
                "h_t": h_t, "h_f": h_f, "r_out": r_out,
                "cls": cls_cache, "resid": resid_cache, "coeff": coeff,
                "grad_through_mask": grad_through_mask, "z": z,
            }
        return ForwardResult(probs=probs, x_r=x_r, cache=cache)

    def _encode(self, x, keep_cache=True):
        """Time and frequency branch encoders over windows x (B, T).

        Returns (h_t, h_f, cache): top-layer GRU states (N, B, H) of each
        branch, and what _encode_backward needs. The frequency features come
        from the patch windows through the STFT patch kernel; when
        keep_cache is false the cache holds neither them nor GRU caches.
        """
        c = self.config
        t = self.tensors
        patches = x.reshape(x.shape[0], c.N, c.P).transpose(1, 0, 2)  # (N,B,P)
        fpat = spectral.stft_apply(self.stft_kernel, x, c.P)          # (N,B,2KP)
        h_t, gru_t = self.gru_time.forward(patches @ t["w_time_patch"].T,
                                           keep_cache=keep_cache)
        h_f, gru_f = self.gru_freq.forward(fpat @ t["w_freq_patch"].T,
                                           keep_cache=keep_cache)
        cache = {"patches": patches, "gru_t": gru_t, "gru_f": gru_f}
        if keep_cache:
            cache["fpat"] = fpat
        return h_t, h_f, cache

    def _classify(self, ht_tilde, hf_tilde):
        """Branch heads + fusion. Returns (A_t, A_f, A, cache)."""
        c = self.config
        t = self.tensors
        if c.fusion in ("max", "mean"):
            return self._two_heads(ht_tilde, hf_tilde, ("time", "freq"),
                                   c.granularity, c.fusion)
        cache = {}
        if c.fusion == "feat_add":
            hc = ht_tilde + hf_tilde
        else:
            cat = np.concatenate([ht_tilde, hf_tilde], axis=-1)
            g = sigmoid(cat @ t["w_gate"].T + t["b_gate"])
            hc = g * ht_tilde + (1.0 - g) * hf_tilde
            cache["g"], cache["cat"] = g, cat
        a, cache["head_c"] = self._head(hc, "time", c.granularity)
        return a, a, a, cache

    def _two_heads(self, f_t, f_f, names, granularity, fusion):
        """A time and a frequency head over features (N, B, H), fused by the
        max or the mean of their probabilities. Returns (A_t, A_f, A, cache);
        under max fusion cache["take_f"] marks where the frequency head won."""
        a_t, head_t = self._head(f_t, names[0], granularity)
        a_f, head_f = self._head(f_f, names[1], granularity)
        cache = {"fusion": fusion, "head_t": head_t, "head_f": head_f}
        if fusion == "max":
            take_f = cache["take_f"] = a_f >= a_t
            return a_t, a_f, np.where(take_f, a_f, a_t), cache
        return a_t, a_f, 0.5 * (a_t + a_f), cache

    def _two_heads_backward(self, d_a, cache, grads):
        """Backward of _two_heads; returns the feature gradients (d_f_t, d_f_f)."""
        if cache["fusion"] == "max":
            take_f = cache["take_f"]
            d_af = np.where(take_f, d_a, 0.0)
            d_at = np.where(take_f, 0.0, d_a)
        else:
            d_af = d_at = 0.5 * d_a
        return (self._head_backward(d_at, cache["head_t"], grads),
                self._head_backward(d_af, cache["head_f"], grads))

    def _head(self, feats, name, granularity):
        """Per-patch probabilities (N, B) from features (N, B, H) through the
        weight head_<name> (head_step_<name> at step granularity). The cache
        keeps the weight's name and the sigmoid outputs for _head_backward."""
        w = f"head_step_{name}" if granularity == "step" else f"head_{name}"
        weight = self.tensors[w]
        cache = {"granularity": granularity, "w": w, "feats": feats}
        if granularity == "patch":
            a = cache["a"] = sigmoid(np.squeeze(feats @ weight.T, axis=-1))
            return a, cache
        if granularity == "step":
            s = cache["s"] = sigmoid(feats @ weight.T)                # (N,B,P)
            return s.mean(axis=-1), cache
        # window: pool over patches, single probability broadcast to N
        pool = cache["pool"] = feats.mean(axis=0)                   # (B,H)
        aw = cache["aw"] = sigmoid(np.squeeze(pool @ weight.T, axis=-1))  # (B,)
        return np.broadcast_to(aw, (self.config.N, aw.shape[0])).copy(), cache

    def _head_backward(self, d_a, head_cache, grads):
        """Backward of _head; returns gradient w.r.t. the features."""
        c = self.config
        w = head_cache["w"]
        weight = self.tensors[w]
        feats = head_cache["feats"]
        if head_cache["granularity"] == "patch":
            a = head_cache["a"]
            dlog = d_a * a * (1.0 - a)
            grads[w] += np.einsum("nb,nbh->h", dlog, feats)[None, :]
            return dlog[..., None] * weight[0]
        if head_cache["granularity"] == "step":
            s = head_cache["s"]
            dlog = (d_a[..., None] / c.P) * s * (1.0 - s)     # (N,B,P)
            grads[w] += np.einsum("nbp,nbh->ph", dlog, feats)
            return dlog @ weight
        pool, aw = head_cache["pool"], head_cache["aw"]
        d_aw = d_a.sum(axis=0)                                # (B,)
        dlog = d_aw * aw * (1.0 - aw)
        grads[w] += np.einsum("b,bh->h", dlog, pool)[None, :]
        dpool = dlog[:, None] * weight[0]
        return np.broadcast_to(dpool / c.N, feats.shape).copy()

    # -- backward ---------------------------------------------------------

    def backward(self, cache, d_ac, d_xr_ext):
        """Full reverse pass.

        d_ac: gradient of the loss w.r.t. the combined probabilities (N, B);
        d_xr_ext: gradient w.r.t. the reconstruction (B, T), e.g. from MSE.
        Returns a grads dict keyed like self.tensors.
        """
        c = self.config
        t = self.tensors
        grads = self.zero_grads()
        B = d_ac.shape[1]
        n, p = c.N, c.P

        # residual heads, then the residual encoders -> gradient w.r.t. the
        # reconstruction; the first-stage paths add into d_ht/hf_tilde below
        d_ht_tilde, d_hf_tilde = self._two_heads_backward(0.5 * d_ac, cache["resid"], grads)
        du_t2, du_f2 = self._encode_backward(cache["enc_r"], -d_ht_tilde, -d_hf_tilde,
                                             grads)
        d_xr = (du_t2 @ t["w_time_patch"]).transpose(1, 0, 2).reshape(B, c.T)
        d_fpat_r = du_f2 @ t["w_freq_patch"]                        # (N,B,2KP)
        d_spec_r = d_fpat_r.reshape(n, B, p, 2 * c.K).transpose(1, 3, 0, 2) \
                           .reshape(B, 2 * c.K * c.T)
        d_xr += d_spec_r @ self.stft_mat
        d_xr += d_xr_ext

        # reconstruction decoder + GRU
        d_xrp = d_xr.reshape(B, n, p).transpose(1, 0, 2)
        grads["w_out"] += np.einsum("nbp,nbh->ph", d_xrp, cache["r_out"])
        d_rout = d_xrp @ t["w_out"]
        d_em, g_list = self.gru_recon.backward(cache["cache_r"], d_rout)
        self._add_stack_grads(grads, g_list, "gru_recon")

        # soft-mask blend
        coeff = cache["coeff"]
        z = cache["z"]
        em_cols = t["e_mask"].T[:, None, :]
        grads["e_mask"] += np.einsum("nbh->nh", coeff[..., None] * d_em).T
        d_z = (1.0 - coeff)[..., None] * d_em
        grads["w_mask_proj"] += np.einsum("nbh,nbp->hp", d_z, cache["enc"]["patches"])

        # fusion + branch heads
        d_a = 0.5 * d_ac
        if cache["grad_through_mask"]:
            d_a = d_a + ((em_cols - z) * d_em).sum(axis=-1)
        cls = cache["cls"]
        if c.fusion in ("max", "mean"):
            d_t, d_f = self._two_heads_backward(d_a, cls, grads)
            d_ht_tilde += d_t
            d_hf_tilde += d_f
        else:
            d_hc = self._head_backward(d_a, cls["head_c"], grads)
            if c.fusion == "feat_add":
                d_ht_tilde += d_hc
                d_hf_tilde += d_hc
            else:
                g, cat = cls["g"], cls["cat"]
                d_ht_tilde += d_hc * g
                d_hf_tilde += d_hc * (1.0 - g)
                d_g = d_hc * (cat[..., :c.H] - cat[..., c.H:])  # ht_tilde - hf_tilde
                d_gpre = d_g * g * (1.0 - g)
                grads["w_gate"] += np.einsum("nbh,nbj->hj", d_gpre, cat)
                grads["b_gate"] += d_gpre.sum(axis=(0, 1))
                d_cat = d_gpre @ t["w_gate"]
                d_ht_tilde += d_cat[..., :c.H]
                d_hf_tilde += d_cat[..., c.H:]

        # first-pass encoders
        self._encode_backward(cache["enc"], d_ht_tilde, d_hf_tilde, grads)
        return grads

    def _encode_backward(self, enc, d_h_t, d_h_f, grads):
        """Backward of _encode: accumulates encoder gradients into grads and
        returns the gradients w.r.t. the projected inputs (du_t, du_f)."""
        t = self.tensors
        du_t, g_list = self.gru_time.backward(enc["gru_t"], d_h_t)
        self._add_stack_grads(grads, g_list, "gru_time")
        grads["w_time_patch"] += np.einsum("nbh,nbp->hp", du_t, enc["patches"])
        du_f, g_list = self.gru_freq.backward(enc["gru_f"], d_h_f)
        self._add_stack_grads(grads, g_list, "gru_freq")
        grads["w_freq_patch"] += np.einsum("nbh,nbf->hf", du_f, enc["fpat"])
        return du_t, du_f

    @staticmethod
    def _add_stack_grads(grads, g_list, prefix):
        for i, g in enumerate(g_list):
            for k, v in g.items():
                grads[f"{prefix}.l{i}.{k}"] += v

    # -- persistence ------------------------------------------------------

    def config_block(self):
        return self.config.block()

    def load_tensors(self, tensors):
        """Copy loaded values into the live tensors.

        The names must match exactly (KeyError otherwise) and each shape must
        equal the live one, except that a 1-D tensor may arrive as the (1, n)
        row a checkpoint stores it as (ValueError otherwise). Nothing is
        copied unless every tensor passes.
        """
        missing = sorted(self.tensors.keys() - tensors.keys())
        extra = sorted(tensors.keys() - self.tensors.keys())
        if missing or extra:
            raise KeyError(f"checkpoint tensor names differ: missing {missing}, "
                           f"extra {extra}")
        for k, live in self.tensors.items():
            shape = tensors[k].shape
            if shape != live.shape and not (live.ndim == 1 and shape == (1, live.size)):
                raise ValueError(f"checkpoint tensor {k} has shape {shape}, "
                                 f"model expects {live.shape}")
        for k, live in self.tensors.items():
            live[...] = tensors[k].reshape(live.shape)
