"""Cooperative detector: patch-level time/frequency classification guiding a
soft-masked reconstruction autoencoder, plus residual classification.

Forward and backward are written by hand over the numerics module. All
sequence tensors are (N patches, B windows, dim). A window and its
reconstruction go through one encode path (`_encode`/`_encode_backward`):
the residual pass re-encodes the reconstruction with the same time and
frequency encoders. The analysis window is always boxcar. Ablation behavior
is selected by four config flags: masking strategy, classification
granularity, branch fusion and scoring; the default configuration is soft
masking, patch granularity, max fusion, joint scoring.
"""

from __future__ import annotations

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
        if self.T % self.P != 0:
            raise ValueError(f"T={self.T} must be a multiple of P={self.P}")
        if self.H < 1 or self.layers < 1 or self.lam < 0:
            raise ValueError("H >= 1, layers >= 1, lam >= 0 required")
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

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        return cls(**known)

    @classmethod
    def for_period(cls, period, **overrides):
        """Window = 4 dominant periods rounded up to a patch multiple,
        STFT frame tied to the period."""
        p = overrides.pop("P", 8)
        t = ((4 * period + p - 1) // p) * p
        return cls(T=t, P=p, frame_len=min(spectral.frame_len_for_period(period), t),
                   smooth_window=period + 1,  # one period, odd width
                   **overrides)


@dataclass
class PatchProbabilities:
    time: np.ndarray       # A_t, (N, B)
    freq: np.ndarray       # A_f
    fused: np.ndarray      # A
    resid_time: np.ndarray
    resid_freq: np.ndarray
    resid: np.ndarray      # A^r
    combined: np.ndarray   # A_c = (A + A^r) / 2


@dataclass
class ForwardResult:
    probs: PatchProbabilities
    x_r: np.ndarray         # (B, T)
    e_m: np.ndarray         # (N, B, H) soft-masked embeddings
    cache: dict | None = field(default=None, repr=False)


def hard_mask_threshold(probs):
    """Hard-mask cutoff: mean plus three (population) standard deviations."""
    probs = np.asarray(probs, dtype=np.float64)
    return float(probs.mean() + 3.0 * probs.std())


def mask_coefficients(fused_probs, config, rng=None, threshold=None):
    """Per-patch mask weights for the reconstruction blend.

    Returns (coefficients, grad_flows): gradient flows back into the
    classifier only in soft mode; the binary variants are constants.
    """
    a = fused_probs
    mode = config.masking
    if mode == "soft":
        return a, True
    if mode == "hard":
        thr = hard_mask_threshold(a) if threshold is None else threshold
        return (a > thr).astype(np.float64), False
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
        self.gru_time = GruStack(c.H, c.H, c.layers, rng)
        self.gru_freq = GruStack(c.H, c.H, c.layers, rng)
        self.gru_recon = GruStack(c.H, c.H, c.layers, rng)
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
        self.stft_mat = spectral.stft_matrix(c.T, c.frame_len, c.K)
        self.hard_threshold = None  # calibrated during training

    def num_params(self):
        return int(sum(v.size for v in self.tensors.values()))

    def zero_grads(self):
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    # -- forward ----------------------------------------------------------

    def forward(self, xb, rng=None, training=False, keep_cache=False):
        """Run the full pipeline on a batch of windows xb (B, T)."""
        c = self.config
        t = self.tensors
        xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
        B = xb.shape[0]
        if xb.shape[1] != c.T:
            raise ValueError(f"window length {xb.shape[1]} != T={c.T}")
        ht_tilde, hf_tilde, enc = self._encode(xb, keep_cache)

        a_t, a_f, a_fused, cls_cache = self._classify(ht_tilde, hf_tilde)

        if training and c.masking == "hard":
            thr = hard_mask_threshold(a_fused)
            self.hard_threshold = thr
        else:
            thr = self.hard_threshold
        coeff, grad_through_mask = mask_coefficients(a_fused, c, rng=rng, threshold=thr)

        z = enc["patches"] @ t["w_mask_proj"].T                     # (N,B,H)
        em_cols = t["e_mask"].T[:, None, :]                         # (N,1,H)
        e_m = coeff[..., None] * em_cols + (1.0 - coeff)[..., None] * z

        r_out, cache_r = self.gru_recon.forward(e_m, keep_cache=keep_cache)
        xr_p = r_out @ t["w_out"].T                                 # (N,B,P)
        x_r = xr_p.transpose(1, 0, 2).reshape(B, c.T)

        # residual pass: encode the reconstruction with the same encoders
        h_t, h_f, enc_r = self._encode(x_r, keep_cache)
        d_t = ht_tilde - h_t
        d_f = hf_tilde - h_f
        a_tr = sigmoid(np.squeeze(d_t @ t["head_resid"].T, axis=-1))
        a_fr = sigmoid(np.squeeze(d_f @ t["head_resid"].T, axis=-1))
        take_fr = a_fr >= a_tr
        a_r = np.where(take_fr, a_fr, a_tr)
        a_c = 0.5 * (a_fused + a_r)

        probs = PatchProbabilities(time=a_t, freq=a_f, fused=a_fused,
                                   resid_time=a_tr, resid_freq=a_fr,
                                   resid=a_r, combined=a_c)
        cache = None
        if keep_cache:
            cache = {
                "enc": enc, "enc_r": enc_r, "cache_r": cache_r,
                "ht_tilde": ht_tilde, "hf_tilde": hf_tilde,
                "h_t": h_t, "h_f": h_f, "r_out": r_out,
                "cls": cls_cache, "coeff": coeff,
                "grad_through_mask": grad_through_mask, "z": z,
                "a_tr": a_tr, "a_fr": a_fr, "take_fr": take_fr,
                "B": B,
            }
        return ForwardResult(probs=probs, x_r=x_r, e_m=e_m, cache=cache)

    def _encode(self, x, keep_cache=True):
        """Time and frequency branch encoders over windows x (B, T).

        Returns (h_t, h_f, cache): top-layer GRU states (N, B, H) of each
        branch, and what _encode_backward needs (GRU caches are None when
        keep_cache is false).
        """
        c = self.config
        t = self.tensors
        B = x.shape[0]
        n, p = c.N, c.P
        patches = x.reshape(B, n, p).transpose(1, 0, 2)             # (N,B,P)
        spec = spectral.stft_apply(self.stft_mat, x, c.K)           # (B,2K,T)
        fpat = spec.reshape(B, 2 * c.K, n, p).transpose(2, 0, 3, 1) \
                   .reshape(n, B, p * 2 * c.K)                      # (N,B,2KP)
        h_t, gru_t = self.gru_time.forward(patches @ t["w_time_patch"].T,
                                           keep_cache=keep_cache)
        h_f, gru_f = self.gru_freq.forward(fpat @ t["w_freq_patch"].T,
                                           keep_cache=keep_cache)
        return h_t, h_f, {"patches": patches, "fpat": fpat,
                          "gru_t": gru_t, "gru_f": gru_f}

    def _classify(self, ht_tilde, hf_tilde):
        """Branch heads + fusion. Returns (A_t, A_f, A, cache)."""
        c = self.config
        t = self.tensors
        cache = {}
        if c.fusion in ("feat_add", "feat_gate"):
            if c.fusion == "feat_add":
                hc = ht_tilde + hf_tilde
            else:
                cat = np.concatenate([ht_tilde, hf_tilde], axis=-1)
                g = sigmoid(cat @ t["w_gate"].T + t["b_gate"])
                hc = g * ht_tilde + (1.0 - g) * hf_tilde
                cache["g"], cache["cat"] = g, cat
            a, head_cache = self._head(hc, "time")
            cache["hc"], cache["head_c"] = hc, head_cache
            return a, a, a, cache
        a_t, cache["head_t"] = self._head(ht_tilde, "time")
        a_f, cache["head_f"] = self._head(hf_tilde, "freq")
        if c.fusion == "max":
            take_f = a_f >= a_t
            cache["take_f"] = take_f
            a = np.where(take_f, a_f, a_t)
        else:  # mean
            a = 0.5 * (a_t + a_f)
        return a_t, a_f, a, cache

    def _head(self, feats, branch):
        """Per-patch probability from features (N, B, H), per granularity."""
        c = self.config
        t = self.tensors
        if c.granularity == "patch":
            a = sigmoid(np.squeeze(feats @ t[f"head_{branch}"].T, axis=-1))
            return a, {"feats": feats}
        if c.granularity == "step":
            s = sigmoid(feats @ t[f"head_step_{branch}"].T)  # (N,B,P)
            return s.mean(axis=-1), {"feats": feats, "s": s}
        # window: pool over patches, single probability broadcast to N
        pool = feats.mean(axis=0)                             # (B,H)
        aw = sigmoid(np.squeeze(pool @ t[f"head_{branch}"].T, axis=-1))  # (B,)
        a = np.broadcast_to(aw, (c.N, aw.shape[0])).copy()
        return a, {"feats": feats, "pool": pool, "aw": aw}

    def _head_backward(self, d_a, head_cache, branch, grads):
        """Backward of _head; returns gradient w.r.t. the features."""
        c = self.config
        t = self.tensors
        feats = head_cache["feats"]
        if c.granularity == "patch":
            a = sigmoid(np.squeeze(feats @ t[f"head_{branch}"].T, axis=-1))
            dlog = d_a * a * (1.0 - a)
            grads[f"head_{branch}"] += np.einsum("nb,nbh->h", dlog, feats)[None, :]
            return dlog[..., None] * t[f"head_{branch}"][0]
        if c.granularity == "step":
            s = head_cache["s"]
            dlog = (d_a[..., None] / c.P) * s * (1.0 - s)     # (N,B,P)
            grads[f"head_step_{branch}"] += np.einsum("nbp,nbh->ph", dlog, feats)
            return dlog @ t[f"head_step_{branch}"]
        pool, aw = head_cache["pool"], head_cache["aw"]
        d_aw = d_a.sum(axis=0)                                # (B,)
        dlog = d_aw * aw * (1.0 - aw)
        grads[f"head_{branch}"] += np.einsum("b,bh->h", dlog, pool)[None, :]
        dpool = dlog[:, None] * t[f"head_{branch}"][0]
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
        B = cache["B"]
        n, p = c.N, c.P

        d_a = 0.5 * d_ac
        d_ar = 0.5 * d_ac

        # residual heads: max routing, shared head_resid
        take_fr = cache["take_fr"]
        a_fr, a_tr = cache["a_fr"], cache["a_tr"]
        d_afr = np.where(take_fr, d_ar, 0.0)
        d_atr = np.where(take_fr, 0.0, d_ar)
        dlog_fr = d_afr * a_fr * (1.0 - a_fr)
        dlog_tr = d_atr * a_tr * (1.0 - a_tr)
        ht_tilde, hf_tilde = cache["ht_tilde"], cache["hf_tilde"]
        d_t = ht_tilde - cache["h_t"]
        d_f = hf_tilde - cache["h_f"]
        grads["head_resid"] += (np.einsum("nb,nbh->h", dlog_fr, d_f)
                                + np.einsum("nb,nbh->h", dlog_tr, d_t))[None, :]
        dd_f = dlog_fr[..., None] * t["head_resid"][0]
        dd_t = dlog_tr[..., None] * t["head_resid"][0]
        d_ht_tilde = dd_t.copy()
        d_hf_tilde = dd_f.copy()

        # residual encoders -> gradient w.r.t. the reconstruction
        du_t2, du_f2 = self._encode_backward(cache["enc_r"], -dd_t, -dd_f, grads)
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
        if cache["grad_through_mask"]:
            d_a = d_a + ((em_cols - z) * d_em).sum(axis=-1)

        # fusion + branch heads
        cls = cache["cls"]
        if c.fusion in ("feat_add", "feat_gate"):
            d_hc = self._head_backward(d_a, cls["head_c"], "time", grads)
            if c.fusion == "feat_add":
                d_ht_tilde += d_hc
                d_hf_tilde += d_hc
            else:
                g, cat = cls["g"], cls["cat"]
                d_ht_tilde += d_hc * g
                d_hf_tilde += d_hc * (1.0 - g)
                d_g = d_hc * (ht_tilde - hf_tilde)
                d_gpre = d_g * g * (1.0 - g)
                grads["w_gate"] += np.einsum("nbh,nbj->hj", d_gpre, cat)
                grads["b_gate"] += d_gpre.sum(axis=(0, 1))
                d_cat = d_gpre @ t["w_gate"]
                d_ht_tilde += d_cat[..., :c.H]
                d_hf_tilde += d_cat[..., c.H:]
        else:
            if c.fusion == "max":
                take_f = cls["take_f"]
                d_af = np.where(take_f, d_a, 0.0)
                d_at = np.where(take_f, 0.0, d_a)
            else:
                d_af = 0.5 * d_a
                d_at = 0.5 * d_a
            d_ht_tilde += self._head_backward(d_at, cls["head_t"], "time", grads)
            d_hf_tilde += self._head_backward(d_af, cls["head_f"], "freq", grads)

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
        c = self.config
        return (c.T, c.P, c.H, c.K, c.layers, c.lam)

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
