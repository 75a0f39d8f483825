"""The smooth localization machinery.

The solver switches the equation off when the driving path is too rough, via
a smooth cutoff applied to a norm power. Two norms are available: the
Sobolev-type double integral over the square and the wedge-restricted Garsia
functional. Both are differentiable in the path; the derivative pairs a
per-point kernel against increments of the direction, and this script checks
that pairing against central finite differences of the cutoff.
"""

import numpy as np

from ellipticsde import (
    CutoffSpec,
    GridFunction,
    cutoff_prime,
    cutoff_value,
    garsia_functional,
    norm_power,
    smooth_cutoff,
    sobolev_norm,
    young_integral,
)
from ellipticsde.cutoff import norm_power_grad_kernel

print("== The smooth cutoff profile (level M = 2) ==")
for r in (1.0, 2.0, 2.25, 2.5, 2.75, 3.0, 4.0):
    print(f"  phi({r}) = {smooth_cutoff(r, 2.0):.4f}")

n = 256
x = GridFunction.from_callable(lambda u: u, n)
print("\n== Norm flavors on x(t) = t (gamma = 1/2, p = 2) ==")
print(f"  sobolev norm: {sobolev_norm(x, 0.5, 2):.5f}  (integrand == 1: value 1)")
print(f"  garsia functional: {garsia_functional(x, 0.5, 2):.5f}  ((3/8)^(1/4) = {(3/8)**0.25:.5f})")

spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
print("\n== Cutoff values along a family of scaled paths ==")
for scale in (0.5, 1.0, 1.2, 1.25, 1.3, 1.4):
    xs = GridFunction(n, scale * x.values)
    print(f"  scale {scale}: norm power {norm_power(xs, spec):8.4f} "
          f"-> cutoff {cutoff_value(xs, spec):.4f}")

print("\n== Frechet derivative of the cutoff, two evaluations ==")
ns = 512
A = (2.5 / (1 - 1 / ns)) ** 0.25  # puts the norm power mid-transition
xb = GridFunction.from_callable(lambda u: A * u, ns)
h = GridFunction.from_callable(lambda u: u, ns)
spec512 = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
eps = 1e-6
fd = (
    cutoff_value(GridFunction(ns, xb.values + eps * h.values), spec512)
    - cutoff_value(GridFunction(ns, xb.values - eps * h.values), spec512)
) / (2 * eps)
pairing = cutoff_prime(xb, spec512) * young_integral(
    norm_power_grad_kernel(xb, spec512), h, 0.0, 1.0
).value
print(f"  phi' at the norm power: {cutoff_prime(xb, spec512):.4f}")
print(f"  central difference:   {fd:.6f}")
print(f"  kernel pairing:       {pairing:.6f}")
print(f"  relative gap:         {abs(fd - pairing) / abs(fd):.2e}")
