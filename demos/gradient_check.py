"""Certify the hand-written backward pass with finite differences.

Every gradient in this library is derived and coded by hand (no autodiff),
so the load-bearing correctness test is a finite-difference comparison:
perturb each parameter, re-evaluate the loss, and compare the numerical
slope against the analytic gradient. This script runs that check on a tiny
configuration and prints the worst relative error per tensor.

Run:  python3 demos/gradient_check.py
"""

import numpy as np

from coopad.model import CoopConfig, CoopModel
from coopad.numerics import grad_check
from coopad.train import loss_and_grads

config = CoopConfig(T=16, P=4, H=3, K=2, layers=1, frame_len=8)
model = CoopModel(config, seed=0)

rng = np.random.default_rng(0)
x_clean = rng.normal(size=(2, 16))
x_distorted = x_clean + rng.normal(0, 0.3, size=(2, 16))
patch_labels = np.array([[0, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int8)


def loss():
    breakdown, _ = loss_and_grads(model, x_distorted, x_clean, patch_labels)
    return breakdown.total


breakdown, grads = loss_and_grads(model, x_distorted, x_clean, patch_labels)
print(f"loss = {breakdown.total:.6f} "
      f"(bce {breakdown.bce:.6f} + lam*mse {config.lam * breakdown.mse:.6f})")
print(f"checking {model.num_params()} parameters across "
      f"{len(model.tensors)} tensors...\n")

report = grad_check(loss, model.tensors, grads, h=1e-5)
for name in sorted(report, key=report.get, reverse=True):
    print(f"  {name:<24} max rel err {report[name]:.3e}")

worst = max(report.values())
print(f"\nworst tensor: {worst:.3e} "
      f"({'OK, below 1e-3' if worst < 1e-3 else 'FAILED'})")
