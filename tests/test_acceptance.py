"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from ellipticsde import (
    CutoffSpec,
    ExperimentConfig,
    FbmConfig,
    GridFunction,
    SolverConfig,
    constant_coefficient,
    cutoff_prime,
    density_experiment,
    directional_derivative,
    fbm_covariance,
    fractional_inner_product,
    garsia_functional,
    garsia_grad_kernel,
    green_kernel,
    holder_norm,
    lacunary_path,
    malliavin_kernel,
    report_json,
    sample_fbm,
    sobolev_grad_kernel,
    solve_elliptic,
    stratonovich_decomposition,
    tanh_coefficient,
    young_integral,
)
from ellipticsde.fbm import _cholesky_factor
from oracles import cutoff_derivative_forms, green_weights


def _report(num: int, label: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num:2d} [{label}]: {detail}")
    assert passed, f"criterion {num} ({label}): {detail}"


def test_criterion_01_closed_form_solve():
    n, c = 256, 0.25
    spec = CutoffSpec(level=50.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
    cfg = SolverConfig(kappa=0.55, tol=1e-12, max_iters=50)
    x = GridFunction.from_callable(lambda t: t, n)
    start = time.perf_counter()
    sol = solve_elliptic(x, constant_coefficient(c), spec, cfg)
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(sol.z.values - c * x.nodes * (1 - x.nodes) / 2)))
    _report(
        1, "closed-form solve", err < 1e-3 and elapsed < 1.0,
        f"sup error {err:.2e} (< 1e-3), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_contraction_on_fbm_corpus():
    n, n_paths = 512, 20
    spec = CutoffSpec(level=30.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
    cfg = SolverConfig(kappa=0.55, tol=1e-12, max_iters=100)
    sigma = tanh_coefficient(0.02, 0.01)
    start = time.perf_counter()
    worst_res, worst_ratio = 0.0, 0.0
    for stream in range(n_paths):
        x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=7), stream=stream)
        sol = solve_elliptic(x, sigma, spec, cfg)
        worst_res = max(worst_res, sol.residual)
        worst_ratio = max(worst_ratio, sol.contraction_ratio)
    elapsed = time.perf_counter() - start
    _report(
        2, "fBm contraction", worst_ratio < 1.0 and worst_res < 1e-4 and elapsed < 30.0,
        f"worst ratio {worst_ratio:.3f} (< 1), worst residual {worst_res:.2e} (< 1e-4), "
        f"{elapsed:.1f}s for {n_paths} paths (< 30s)",
    )


def test_criterion_03_young_refinement_rate():
    sizes = (64, 128, 256, 512, 1024, 2048)
    pairs = ((0.75, 0.75), (0.8, 0.7), (0.85, 0.85))
    n_seeds = 24
    worst_gap = 0.0
    details = []
    for gamma, kappa in pairs:
        diffs = np.zeros(len(sizes) - 1)
        for s in range(n_seeds):
            vals = [
                young_integral(
                    lacunary_path(n, kappa, phase_seed=2 * s + 1),
                    lacunary_path(n, gamma, phase_seed=2 * s + 2),
                    0.0, 1.0,
                ).value
                for n in sizes
            ]
            diffs += np.abs(np.diff(vals))
        diffs /= n_seeds
        slope = float(np.polyfit(np.log(np.array(sizes[:-1], float)), np.log(diffs), 1)[0])
        gap = abs(slope + (gamma + kappa - 1))
        worst_gap = max(worst_gap, gap)
        details.append(f"({gamma},{kappa}): slope {slope:.3f} vs {-(gamma + kappa - 1):.2f}")
    _report(3, "young rate", worst_gap <= 0.25, "; ".join(details) + f"; worst gap {worst_gap:.3f}")


def test_criterion_04_derivative_consistency():
    n, eps = 256, 1e-4
    spec = CutoffSpec(level=50.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
    cfg = SolverConfig(kappa=0.55, tol=1e-12, max_iters=100)
    sigma = tanh_coefficient(0.05, 0.02)
    x = GridFunction.from_callable(lambda t: t + 0.1 * np.sin(2 * np.pi * t), n)
    h = GridFunction.from_callable(lambda s: s + 0.2 * np.sin(np.pi * s), n)
    sol = solve_elliptic(x, sigma, spec, cfg)
    kernel = malliavin_kernel(sol, x, sigma, spec, cfg)
    dd = directional_derivative(kernel, h)
    plus = solve_elliptic(GridFunction(n, x.values + eps * h.values), sigma, spec, cfg)
    minus = solve_elliptic(GridFunction(n, x.values - eps * h.values), sigma, spec, cfg)
    fd = (plus.z.values - minus.z.values) / (2 * eps)
    fd_rel = float(np.max(np.abs(dd.values - fd) / np.maximum(np.abs(fd), 1e-12)))
    # residual of the linear kernel equation at every (s, t) node
    G = sol.cutoff_value
    W = green_weights(x)
    sig1 = np.asarray(sigma.d1(sol.z.values))
    nodes = x.nodes
    psi = G * np.asarray(sigma.fn(sol.z.values))[:, None] * green_kernel(
        nodes[None, :], nodes[:, None]
    )
    rhs = psi + G * (sig1[:-1] * kernel.values[:, :-1]) @ W.T
    resid = float(np.max(np.abs(kernel.values - rhs)))
    _report(
        4, "derivative consistency", fd_rel <= 1e-3 and resid < 1e-4,
        f"FD relative error {fd_rel:.2e} (<= 1e-3), kernel-equation residual {resid:.2e} (< 1e-4)",
    )


def test_criterion_05_cutoff_derivative_dual_forms():
    n = 512
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
    A = (2.5 / (1 - 1 / n)) ** 0.25  # norm power mid-transition
    x = GridFunction.from_callable(lambda t: A * t, n)
    h = GridFunction.from_callable(lambda t: t, n)
    assert cutoff_prime(x, spec) != 0.0
    double, young = cutoff_derivative_forms(x, h, spec)
    gap = abs(double - young) / abs(double)
    _report(
        5, "cutoff derivative dual forms", gap <= 0.01,
        f"double {double:.6f} vs young {young:.6f}, relative gap {gap:.2e} (<= 1%)",
    )


def test_criterion_06_analytic_quadrature_anchors():
    x512 = GridFunction.from_callable(lambda t: t, 512)
    mu_half = sobolev_grad_kernel(x512, 0.5, 2)(0.5)
    mu_err = abs(mu_half + 4 * np.log(2)) / (4 * np.log(2))
    one = GridFunction(512, np.ones(513))
    ip_err = abs(fractional_inner_product(one, one, 0.75) - 1.0)
    x256 = GridFunction.from_callable(lambda t: t, 256)
    g_err = abs(garsia_functional(x256, 0.5, 2) - (3 / 8) ** 0.25) / (3 / 8) ** 0.25
    ok = mu_err <= 0.03 and ip_err <= 1e-4 and g_err <= 0.02
    _report(
        6, "analytic anchors", ok,
        f"mu(1/2) rel err {mu_err:.2e} (<= 3%), <1,1> err {ip_err:.2e} (<= 1e-4), "
        f"garsia rel err {g_err:.2e} (<= 2%)",
    )


def test_criterion_07_fbm_statistics():
    hurst, N = 0.75, 10_000
    cfg = FbmConfig(hurst=hurst, n=8, seed=11)
    vals = np.array([sample_fbm(cfg, stream=i)(0.5) for i in range(N)])
    target = 0.5 ** (2 * hurst)
    se = target * np.sqrt(2.0 / N)
    var_err_se = abs(vals.var(ddof=1) - target) / se
    n = 256
    L = _cholesky_factor(hurst, n)
    t = np.arange(1, n + 1) / n
    cov = fbm_covariance(t[:, None], t[None, :], hurst) + 1e-12 * np.eye(n)
    rec = float(np.max(np.abs(L @ L.T - cov)) / np.max(np.abs(cov)))
    _report(
        7, "fBm statistics", var_err_se <= 3.0 and rec < 1e-10,
        f"Var(B_0.5) off by {var_err_se:.2f} MC standard errors (<= 3), "
        f"Cholesky reconstruction {rec:.2e} (< 1e-10)",
    )


def test_criterion_08_garsia_inequality(path_corpus):
    gamma, p = 0.5, 2
    worst = 0.0
    count = 0
    for f in path_corpus.values():
        U = garsia_functional(f, gamma, p)
        if U > 0:
            worst = max(worst, holder_norm(f, gamma).seminorm / U)
            count += 1
    _report(
        8, "garsia inequality", count >= 20 and worst <= 10.0,
        f"corpus constant {worst:.3f} (<= 10) over {count} paths",
    )


def test_criterion_09_wedge_kernel_bound():
    gamma, eps, p, hurst, n = 0.3, 0.42, 5, 0.75, 256
    beta = (2 * p - 1) * eps - gamma
    worst = 0.0
    for stream in range(10):
        B = sample_fbm(FbmConfig(hurst=hurst, n=n, seed=123), stream=stream)
        mt = garsia_grad_kernel(B, gamma, p)
        bound = holder_norm(B, gamma + eps).norm ** (2 * p - 1)
        for k in range(1, n // 4):
            worst = max(worst, abs(mt.values[k]) / (bound * (k / n) ** beta))
    _report(
        9, "wedge kernel bound", worst <= 1.05,
        f"worst |mu~_s| / (|B|^(2p-1) s^beta) = {worst:.3f} (<= 1.05)",
    )


def test_criterion_10_density_property():
    cfg = ExperimentConfig(
        fbm=FbmConfig(hurst=0.75, n=256, seed=0),
        cutoff=CutoffSpec(level=2.0, gamma=0.3, p=5, epsilon=0.42, flavor="garsia"),
        sigma="tanh:0.05,0.02",
        solver=SolverConfig(kappa=0.75, tol=1e-10, max_iters=200),
        n_samples=200,
        t_eval=0.5,
        a=0.002,
    )
    start = time.perf_counter()
    rep = density_experiment(cfg)
    elapsed = time.perf_counter() - start
    ok = (
        rep.n_omega_a > 0
        and rep.positive_norm_fraction == 1.0
        and rep.min_h_norm_on_omega_a > 1e-8
        and elapsed < 600.0
    )
    _report(
        10, "density property", ok,
        f"omega_a {rep.n_omega_a}/{rep.n_total}, fraction {rep.positive_norm_fraction}, "
        f"min norm {rep.min_h_norm_on_omega_a:.2e} (> 1e-8), {elapsed:.0f}s (< 600s)",
    )


def test_criterion_11_stratonovich_decomposition():
    n = 256
    spec = CutoffSpec(level=1e4, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
    cfg = SolverConfig(kappa=0.55, tol=1e-12, max_iters=100)
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=21))
    # sigma' == 0: trace vanishes and skorohod equals pathwise exactly
    sigc = constant_coefficient(0.05)
    solc = solve_elliptic(x, sigc, spec, cfg)
    kc = malliavin_kernel(solc, x, sigc, spec, cfg)
    stc = stratonovich_decomposition(solc, kc, x, sigc, spec, 0.5, 0.75)
    const_ok = stc.trace == 0.0 and stc.skorohod == stc.pathwise
    # general case: finite trace, pathwise within the solver residual of z_t
    sig = tanh_coefficient(0.05, 0.02)
    sol = solve_elliptic(x, sig, spec, cfg)
    k = malliavin_kernel(sol, x, sig, spec, cfg)
    st = stratonovich_decomposition(sol, k, x, sig, spec, 0.5, 0.75)
    gen_ok = np.isfinite(st.trace) and abs(st.pathwise - sol.z(0.5)) <= sol.residual + 1e-14
    _report(
        11, "stratonovich decomposition", const_ok and gen_ok,
        f"const-sigma trace {stc.trace}, |pathwise - z_t| = {abs(st.pathwise - sol.z(0.5)):.2e} "
        f"(<= residual {sol.residual:.2e}), trace {st.trace:.3e} finite",
    )


def test_criterion_12_reproducibility():
    cfg = ExperimentConfig(
        fbm=FbmConfig(hurst=0.75, n=64, seed=5),
        cutoff=CutoffSpec(level=2.0, gamma=0.3, p=5, epsilon=0.42, flavor="garsia"),
        sigma="tanh:0.05,0.02",
        solver=SolverConfig(kappa=0.75, tol=1e-10, max_iters=200),
        n_samples=12,
        t_eval=0.5,
        a=0.001,
    )
    j1 = report_json(density_experiment(cfg), cfg)
    j2 = report_json(density_experiment(cfg), cfg)
    _report(
        12, "reproducibility", j1 == j2,
        f"two runs produced byte-identical {len(j1)}-byte JSON reports",
    )
