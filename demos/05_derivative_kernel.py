"""The derivative of the solution in the driving path.

The kernel solves a linear elliptic equation (one tridiagonal system for all
columns at once); pairing rows
against increments of a direction gives directional derivatives (checked
against central finite differences of the full solve), and for fBm drivers
the rows are Malliavin derivatives whose |H|-norm and Skorohod/trace
decomposition follow.
"""

import numpy as np

from ellipticsde import (
    CutoffSpec,
    FbmConfig,
    GridFunction,
    SolverConfig,
    derivative_norm,
    directional_derivative,
    malliavin_kernel,
    sample_fbm,
    sign_pattern,
    solve_elliptic,
    stratonovich_decomposition,
    tanh_coefficient,
)

n, hurst = 256, 0.75
spec = CutoffSpec(level=50.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
cfg = SolverConfig(kappa=0.55, tol=1e-12, max_iters=100)
sigma = tanh_coefficient(0.05, 0.02)

x = GridFunction.from_callable(lambda u: u + 0.1 * np.sin(2 * np.pi * u), n)
sol = solve_elliptic(x, sigma, spec, cfg)
kernel = malliavin_kernel(sol, x, sigma, spec, cfg)
print(f"== Kernel assembled: {kernel.values.shape} entries, flavor {kernel.flavor} ==")

print("\n== Directional derivative vs central finite differences ==")
h = GridFunction.from_callable(lambda s: s + 0.2 * np.sin(np.pi * s), n)
dd = directional_derivative(kernel, h)
eps = 1e-4
plus = solve_elliptic(GridFunction(n, x.values + eps * h.values), sigma, spec, cfg)
minus = solve_elliptic(GridFunction(n, x.values - eps * h.values), sigma, spec, cfg)
fd = (plus.z.values - minus.z.values) / (2 * eps)
rel = np.max(np.abs(dd.values - fd) / np.maximum(np.abs(fd), 1e-12))
print(f"  max relative error {rel:.2e} at step {eps}")

print("\n== Malliavin norms and the Skorohod + trace split on an fBm driver ==")
B = sample_fbm(FbmConfig(hurst=hurst, n=n, seed=77))
solB = solve_elliptic(B, sigma, spec, cfg)
kB = malliavin_kernel(solB, B, sigma, spec, cfg)
for t in (0.25, 0.5, 0.75):
    norm = derivative_norm(kB, t, hurst)
    st = stratonovich_decomposition(solB, kB, B, sigma, spec, t, hurst)
    print(
        f"  t={t}: |D z_t|_H = {norm:.5f}; pathwise {st.pathwise:+.5f} "
        f"= skorohod {st.skorohod:+.5f} + trace {st.trace:+.2e}"
    )
print(f"  sign pattern of s -> Phi_s(0.5): {sign_pattern(kB, 0.5)}")
