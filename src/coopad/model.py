"""Cooperative detector: patch-level time/frequency classification guiding a
soft-masked reconstruction autoencoder, plus residual classification.

Forward and backward are written by hand over the numerics module. All
sequence tensors are (N patches, B windows, dim). A window and its
reconstruction go through one encode path (`_encode`/`_encode_backward`):
the residual pass re-encodes the reconstruction with the same time and
frequency encoders. Both classification stages, under every fusion and
granularity, go through one path (`_classify`/`_classify_backward`): the
first on the encoded window, the second, with the shared head_resid at
patch granularity and max fusion, on the difference between the window's
and the reconstruction's encodings. Either way it yields (A_t, A_f, A) and,
under max fusion, which head won; its backward reads the fusion from the
forward's cache.
A forward with keep_cache=True is a training pass and runs in float64. An
inference pass runs the five GRU recurrences in float32 (`GruStack.forward`)
and everything around them in float64; its scores differ from a float64
pass by about 1e-8 on an untrained model and by up to 1.7e-7 after the
100-epoch acceptance fit. An inference pass keeps each tensor only until
its last read: the reconstruction's blend input, GRU states and per-patch
output die before the residual encode, and the residual encode subtracts
each branch's states from the window's encoding in place as soon as they
are formed, so at T = 2000 it peaks at ~4.6 (N, B, H) float64 tensors
(tracemalloc). A training pass caches no STFT features and not the
blend's patch projection z. Its backward drops each model-level gradient,
and the z it recomputes, at its last read, so none of them is held while
the first-pass encoders run backward, and each GRU backward writes its
gate gradients over its cache's gates (`GruStack.backward`); a training
step at T = 200, B = 128 peaks at ~62 MB besides the dense operator
(tracemalloc). The analysis window is always boxcar.
In every configuration an inference row has the same bytes in a batch of
any size: `forward` alone runs a one-window batch as two, and the heads'
and the feat_gate gate's products are einsums, which do not round by batch
shape as BLAS does.
Ablation behavior is selected by four config flags: masking strategy,
classification granularity, branch fusion and scoring; the default
configuration is soft masking, patch granularity, max fusion, joint
scoring. Granularity and fusion are read by `__init__`, for the head
shapes (P rows per head at step granularity; a feature fusion's one head is
head_time, and it has no head_freq), and by `forward`, which hands them to
`_classify`; the classification cache carries them to the backward.
Masking is read by `mask_coefficients`, by `forward` to calibrate hard
masking's threshold, and by `backward`, which alone passes the blend's
gradient back into the classifier, as only soft masking's weights are the
fused probabilities; it recomputes z for that. Scoring is read by
`score.detect`. Hard masking thresholds at the mean plus three standard
deviations of the fused probabilities of the last training batch; an
inference forward of a hard-masking model that was never trained raises,
as there is no calibrated threshold. `CoopConfig` is the one place that
decides whether the settings are valid; nothing downstream checks them
again.

The frequency branch's input is the per-patch STFT features times the
frequency projection, taken as one product of each window's reflect-padded
patch windows with the patch kernel folded into the projection
(`spectral.stft_apply`); the projection's gradient goes back through the
same windows (`spectral.stft_proj_grad`), so no pass forms or caches the
(N, B, 2KP) features. The backward maps the residual pass's feature
gradient to the reconstruction through the dense operator's transpose,
`stft_mat`, its only use. The model builds that operator on its first
backward and keeps it, so construction, checkpoint loading and detect never
allocate it (256 MB at T = 2000).
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
        unknown = [k for k in d if k not in cls.__dataclass_fields__]
        if unknown:
            raise ValueError(f"{unknown[0]} is not a model setting")
        return cls(**d)

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
    """Per-patch mask weights for the reconstruction blend: the fused
    probabilities themselves in soft mode, binary constants otherwise. Hard
    masking needs the threshold training calibrated (ValueError without it).
    """
    a = fused_probs
    mode = config.masking
    if mode == "soft":
        return a
    if mode == "hard":
        if threshold is None:
            raise ValueError("hard masking needs the threshold training calibrates")
        return (a > threshold).astype(np.float64)
    if mode == "random":
        if rng is None:  # one column for every window, so no row depends on its batch
            column = np.random.default_rng(0).random((a.shape[0], 1)) < RANDOM_MASK_RATE
            return np.broadcast_to(column, a.shape).astype(np.float64)
        return (rng.random(a.shape) < RANDOM_MASK_RATE).astype(np.float64)
    phase = int(rng.integers(2)) if rng is not None else 0  # grating
    coeff = np.zeros_like(a)
    coeff[phase::2] = 1.0
    return coeff


class CoopModel:
    """Holds all learnable tensors and implements forward/backward. The GRU
    entries of `tensors` are views of the weights each `GruStack` owns."""

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
        self.gru_time = GruStack(c.H, c.layers, rng, "gru_time")
        self.gru_freq = GruStack(c.H, c.layers, rng, "gru_freq")
        self.gru_recon = GruStack(c.H, c.layers, rng, "gru_recon")
        self._add_stack_tensors()
        rows = c.P if c.granularity == "step" else 1
        t["head_time"] = uniform_init(rng, rows, c.H)  # the one head a feature fusion runs
        if c.fusion in ("max", "mean"):
            t["head_freq"] = uniform_init(rng, rows, c.H)
        t["head_resid"] = uniform_init(rng, 1, c.H)
        t["w_out"] = uniform_init(rng, c.P, c.H)
        if c.fusion == "feat_gate":
            t["w_gate"] = uniform_init(rng, c.H, 2 * c.H)
            t["b_gate"] = np.zeros(c.H)
        self.stft_kernel = spectral.stft_patch_kernel(c.P, c.frame_len, c.K)
        self.hard_threshold = None  # calibrated during training

    def _add_stack_tensors(self):
        for stack in (self.gru_time, self.gru_freq, self.gru_recon):
            self.tensors.update(stack.tensors())  # a name there keeps its place

    def __setstate__(self, state):
        # a copy's GRU tensors must view its own stacks' weights: a copied
        # view is an array of its own, which in-place updates would miss
        self.__dict__.update(state)
        self._add_stack_tensors()

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
        Otherwise the GRU recurrences run in float32, and a one-window batch
        runs as two copies of the window and keeps the first: BLAS takes a
        one-row product through gemv, which rounds differently from the gemm
        every wider batch gets. This is the one place that keeps inference
        rows independent of their batch.
        """
        c = self.config
        xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
        if xb.shape[1] != c.T:
            raise ValueError(f"window length {xb.shape[1]} != T={c.T}")
        if not keep_cache and len(xb) == 1:
            two = self.forward(np.repeat(xb, 2, axis=0), rng)
            probs = PatchProbabilities(**{k: v[:, :1] for k, v in vars(two.probs).items()})
            return ForwardResult(probs=probs, x_r=two.x_r[:1])
        ht_tilde, hf_tilde, enc = self._encode(xb, keep_cache)

        a_t, a_f, a_fused, cls_cache = self._classify(ht_tilde, hf_tilde, ("time", "freq"),
                                                      c.granularity, c.fusion)

        if keep_cache and c.masking == "hard":
            self.hard_threshold = hard_mask_threshold(a_fused)
        coeff = mask_coefficients(a_fused, c, rng=rng, threshold=self.hard_threshold)

        x_r, recon_cache = self._reconstruct(enc["patches"], coeff, keep_cache)

        # residual pass: encode the reconstruction with the same encoders,
        # classify the differences with one shared patch head, max-fused
        d_t, d_f, enc_r = self._encode(x_r, keep_cache, minus=(ht_tilde, hf_tilde))
        _, _, a_r, resid_cache = self._classify(d_t, d_f, ("resid", "resid"),
                                                "patch", "max")
        a_c = 0.5 * (a_fused + a_r)

        probs = PatchProbabilities(time=a_t, freq=a_f, fused=a_fused,
                                   resid=a_r, combined=a_c)
        cache = None
        if keep_cache:
            cache = {
                "enc": enc, "enc_r": enc_r, "cls": cls_cache, "resid": resid_cache,
                "coeff": coeff, **recon_cache,
            }
        return ForwardResult(probs=probs, x_r=x_r, cache=cache)

    def _encode(self, x, keep_cache=True, minus=None):
        """Time and frequency branch encoders over windows x (B, T).

        Returns (h_t, h_f, cache): top-layer GRU states (N, B, H) of each
        branch, and what _encode_backward needs: the windows, their patches
        and, when keep_cache is true, the GRU caches. The frequency GRU's
        input is one product of the patch windows with the STFT patch kernel
        folded into the frequency projection (`spectral.stft_apply`), which
        never forms the STFT features. The branches run one after the
        other, each input made just before its GRU.

        With minus = (f_t, f_f), (f_t - h_t, f_f - h_f) are returned in
        place of the states. A training pass's states are its GRU caches, so
        it forms new arrays; an inference pass subtracts in place, into f_t
        and f_f, as soon as each branch's states are formed, and keeps
        neither states array.
        """
        c = self.config
        t = self.tensors
        patches = x.reshape(x.shape[0], c.N, c.P).transpose(1, 0, 2)  # (N,B,P)
        cache = {"x": x, "patches": patches}
        h_t, cache["gru_t"] = self.gru_time.forward(patches @ t["w_time_patch"].T,
                                                    keep_cache=keep_cache)
        if minus is not None:
            h_t = np.subtract(minus[0], h_t, out=None if keep_cache else minus[0])
        u_f = spectral.stft_apply(self.stft_kernel, x, c.P, t["w_freq_patch"])
        h_f, cache["gru_f"] = self.gru_freq.forward(u_f, keep_cache=keep_cache)
        if minus is not None:
            h_f = np.subtract(minus[1], h_f, out=None if keep_cache else minus[1])
        return h_t, h_f, cache

    def _reconstruct(self, patches, coeff, keep_cache):
        """Reconstruction (B, T) of the windows whose patches are `patches`
        (N, B, P): each patch's projection is blended with its learned mask
        embedding by the mask weights coeff (N, B), then run through the
        reconstruction GRU and the output projection.

        Returns (x_r, cache): the cache entries backward needs, or an empty
        dict when keep_cache is false; the blend, the GRU states and the
        per-patch output then die on return.
        """
        c = self.config
        t = self.tensors
        z = patches @ t["w_mask_proj"].T                            # (N,B,H)
        em_cols = t["e_mask"].T[:, None, :]                         # (N,1,H)
        # e_m = coeff * em_cols + (1 - coeff) * z, with z scaled in place:
        # nothing reads it again, and backward recomputes it
        e_m = coeff[..., None] * em_cols
        z *= (1.0 - coeff)[..., None]
        e_m += z
        del z
        r_out, cache_r = self.gru_recon.forward(e_m, keep_cache=keep_cache)
        del e_m
        xr_p = r_out @ t["w_out"].T                                 # (N,B,P)
        x_r = xr_p.transpose(1, 0, 2).reshape(patches.shape[1], c.T)
        if not keep_cache:
            return x_r, {}
        return x_r, {"r_out": r_out, "cache_r": cache_r}

    def _classify(self, f_t, f_f, names, granularity, fusion):
        """Time and frequency features (N, B, H) to patch probabilities
        (A_t, A_f, A, cache). Max and mean fusion run the heads head_<names>
        and fuse their probabilities; under max cache["take_f"] marks where
        the frequency head won. A feature fusion merges the features, by sum
        (feat_add) or by a learned sigmoid gate (feat_gate), and runs the one
        head head_<names[0]>, so A_t = A_f = A."""
        cache = {"fusion": fusion}
        if fusion in ("max", "mean"):
            a_t, cache["head_t"] = self._head(f_t, names[0], granularity)
            a_f, cache["head_f"] = self._head(f_f, names[1], granularity)
            if fusion == "max":
                take_f = cache["take_f"] = a_f >= a_t
                return a_t, a_f, np.where(take_f, a_f, a_t), cache
            return a_t, a_f, 0.5 * (a_t + a_f), cache
        if fusion == "feat_add":
            f_c = f_t + f_f
        else:
            t = self.tensors
            cat = cache["cat"] = np.concatenate([f_t, f_f], axis=-1)
            g = cache["g"] = sigmoid(np.einsum("nbj,hj->nbh", cat, t["w_gate"]) + t["b_gate"])
            f_c = g * f_t + (1.0 - g) * f_f
        a, cache["head_t"] = self._head(f_c, names[0], granularity)
        return a, a, a, cache

    def _classify_backward(self, d_a, cache, grads):
        """Backward of _classify, by the fusion its cache records; returns
        the feature gradients (d_f_t, d_f_f)."""
        fusion = cache["fusion"]
        if fusion in ("max", "mean"):
            if fusion == "max":
                take_f = cache["take_f"]
                d_at, d_af = np.where(take_f, 0.0, d_a), np.where(take_f, d_a, 0.0)
            else:
                d_at = d_af = 0.5 * d_a
            return (self._head_backward(d_at, cache["head_t"], grads),
                    self._head_backward(d_af, cache["head_f"], grads))
        d_c = self._head_backward(d_a, cache["head_t"], grads)
        if fusion == "feat_add":
            return d_c, d_c
        g, cat = cache["g"], cache["cat"]
        h = self.config.H
        d_gpre = d_c * (cat[..., :h] - cat[..., h:]) * g * (1.0 - g)  # f_t - f_f
        grads["w_gate"] += np.einsum("nbh,nbj->hj", d_gpre, cat)
        grads["b_gate"] += d_gpre.sum(axis=(0, 1))
        d_cat = d_gpre @ self.tensors["w_gate"]
        return d_c * g + d_cat[..., :h], d_c * (1.0 - g) + d_cat[..., h:]

    def _head(self, feats, name, granularity):
        """Per-patch probabilities (N, B) from features (N, B, H) through the
        weight head_<name>: the mean of sigmoid(feats @ weight.T) over the
        weight's rows (one, or P at step granularity), by einsum: a BLAS gemv
        rounds by batch shape. At window granularity the features are pooled
        over patches first and the window's probability repeated over them.
        The cache keeps what _head_backward reads."""
        w = f"head_{name}"
        if granularity == "window":
            feats = feats.mean(axis=0, keepdims=True)                # (1,B,H)
        s = sigmoid(np.einsum("nbh,kh->nbk", feats, self.tensors[w]))  # (n,B,k)
        a = s.mean(axis=-1)
        if granularity == "window":
            a = np.repeat(a, self.config.N, axis=0)
        return a, {"granularity": granularity, "w": w, "feats": feats, "s": s}

    def _head_backward(self, d_a, head_cache, grads):
        """Backward of _head; returns gradient w.r.t. the features."""
        w, feats, s = head_cache["w"], head_cache["feats"], head_cache["s"]
        window = head_cache["granularity"] == "window"
        if window:
            d_a = d_a.sum(axis=0, keepdims=True)
        dlog = (d_a[..., None] / s.shape[-1]) * s * (1.0 - s)      # (n,B,k)
        grads[w] += np.einsum("nbk,nbh->kh", dlog, feats)
        d_feats = dlog @ self.tensors[w]
        if window:
            return np.repeat(d_feats / self.config.N, self.config.N, axis=0)
        return d_feats

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
        d_ht_tilde, d_hf_tilde = self._classify_backward(0.5 * d_ac, cache["resid"], grads)
        du_t2, du_f2 = self._encode_backward(cache["enc_r"], -d_ht_tilde, -d_hf_tilde,
                                             grads)
        d_xr = (du_t2 @ t["w_time_patch"]).transpose(1, 0, 2).reshape(B, c.T)
        del du_t2
        d_fpat_r = du_f2 @ t["w_freq_patch"]                        # (N,B,2KP)
        del du_f2
        d_spec_r = d_fpat_r.reshape(n, B, p, 2 * c.K).transpose(1, 3, 0, 2) \
                           .reshape(B, 2 * c.K * c.T)
        del d_fpat_r
        d_xr += d_spec_r @ self.stft_mat
        del d_spec_r
        d_xr += d_xr_ext

        # reconstruction decoder + GRU
        d_xrp = d_xr.reshape(B, n, p).transpose(1, 0, 2)
        grads["w_out"] += np.einsum("nbp,nbh->ph", d_xrp, cache["r_out"])
        d_rout = d_xrp @ t["w_out"]
        del d_xr, d_xrp
        d_em = self.gru_recon.backward(cache["cache_r"], d_rout, grads)
        del d_rout

        # mask blend
        coeff = cache["coeff"]
        grads["e_mask"] += np.einsum("nbh->nh", coeff[..., None] * d_em).T
        d_z = (1.0 - coeff)[..., None] * d_em
        grads["w_mask_proj"] += np.einsum("nbh,nbp->hp", d_z, cache["enc"]["patches"])
        del d_z

        # fusion + branch heads
        d_a = 0.5 * d_ac
        if c.masking == "soft":  # the mask weights are the fused probabilities
            z = cache["enc"]["patches"] @ t["w_mask_proj"].T
            d_a = d_a + ((t["e_mask"].T[:, None, :] - z) * d_em).sum(axis=-1)
            del z
        del d_em
        d_t, d_f = self._classify_backward(d_a, cache["cls"], grads)
        d_ht_tilde += d_t
        d_hf_tilde += d_f
        del d_t, d_f

        # first-pass encoders
        self._encode_backward(cache["enc"], d_ht_tilde, d_hf_tilde, grads)
        return grads

    def _encode_backward(self, enc, d_h_t, d_h_f, grads):
        """Backward of _encode: accumulates encoder gradients into grads and
        returns the gradients w.r.t. the projected inputs (du_t, du_f)."""
        t = self.tensors
        du_t = self.gru_time.backward(enc["gru_t"], d_h_t, grads)
        grads["w_time_patch"] += np.einsum("nbh,nbp->hp", du_t, enc["patches"])
        du_f = self.gru_freq.backward(enc["gru_f"], d_h_f, grads)
        grads["w_freq_patch"] += spectral.stft_proj_grad(self.stft_kernel, enc["x"],
                                                         self.config.P, du_f)
        return du_t, du_f

    # -- persistence ------------------------------------------------------

    def load_tensors(self, tensors):
        """Copy loaded values into the live tensors, in place.

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
