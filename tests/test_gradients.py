"""Directional gradient checks of the full backward at production shapes.

Per-entry finite differences cost two forwards per parameter, so they only
run at toy shapes (`TestAblationGradients`). Here a random direction v over
all tensors at once is drawn, and the analytic directional derivative
sum(g * v) is compared with the central difference of the loss along v,
(L(theta + h v) - L(theta - h v)) / 2h, for a few directions. This is the
projection trick of PyTorch's fast gradcheck. It reaches what only real
shapes have: reflect folding where frame_len/2 > P, 250-step recurrences,
and odd periods.

The bound was fixed before the first run: a relative error of 1e-6. The
backward measures 1e-10 to 5e-8 here. A zeroed STFT adjoint, a `dwh` that
pairs step t's gate gradients with h[t] instead of h[t-1], and a symmetric
instead of reflect fold in the adjoint each measure 1e-6 to 0.9 in some
direction of every case. The one exception is B = 1 under the two adjoint
mutations: in that batch the frequency head never wins a residual patch,
so no gradient reaches the STFT adjoint.
"""

import numpy as np
import pytest

from coopad.model import CoopConfig, CoopModel
from coopad.train import loss_and_grads

H_STEP = 1e-6
BOUND = 1e-6
DIRECTIONS = 3


def directional_errors(model, B, seed=0):
    """Relative errors |g.v - fd| / max(|g.v|, |fd|), one per direction,
    of the loss on B random windows with random patch labels."""
    c = model.config
    rng = np.random.default_rng(seed)
    t = np.arange(c.T)
    x_clean = np.sin(2 * np.pi * (t[None, :] + rng.integers(0, c.T, size=(B, 1)))
                     / (c.T // 4)) + rng.normal(0, 0.1, size=(B, c.T))
    x_dist = x_clean + rng.normal(0, 0.3, size=(B, c.T))
    labels = (rng.random((B, c.N)) < 0.3).astype(np.int8)

    def loss():
        return loss_and_grads(model, x_dist, x_clean, labels)[0].total

    _, grads = loss_and_grads(model, x_dist, x_clean, labels)
    theta = {k: v.copy() for k, v in model.tensors.items()}
    errors = []
    for _ in range(DIRECTIONS):
        v = {k: rng.normal(size=p.shape) for k, p in theta.items()}
        analytic = sum(float((grads[k] * v[k]).sum()) for k in theta)
        sides = []
        for sign in (1.0, -1.0):
            for k, p in model.tensors.items():
                p[...] = theta[k] + sign * H_STEP * v[k]
            sides.append(loss())
        for k, p in model.tensors.items():
            p[...] = theta[k]
        numeric = (sides[0] - sides[1]) / (2.0 * H_STEP)
        errors.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric)))
    return errors


CASES = [
    ("period50", 50, {}, 4),
    ("period500", 500, {}, 2),
    ("period37", 37, {}, 3),
    ("period50-B1", 50, {}, 1),
] + [(f"period50-{f}", 50, {"fusion": f}, 4) for f in ("mean", "feat_add", "feat_gate")]


@pytest.mark.parametrize("period, overrides, B", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_directional_derivatives_match(period, overrides, B):
    model = CoopModel(CoopConfig.for_period(period, **overrides), seed=1)
    errors = directional_errors(model, B)
    assert max(errors) < BOUND, errors
