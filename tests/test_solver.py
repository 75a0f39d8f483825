import numpy as np
import pytest

from ellipticsde import (
    CutoffSpec,
    DivergenceError,
    FbmConfig,
    GridFunction,
    InvalidInputError,
    SolverConfig,
    constant_coefficient,
    cutoff_value,
    holder_norm,
    lacunary_path,
    picard_map,
    sample_fbm,
    solve_elliptic,
    solve_linear,
    tanh_coefficient,
    young_integral,
)
from ellipticsde.solver import _green_apply
from oracles import green_weights

INTERIOR = CutoffSpec(level=50.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
CFG = SolverConfig(kappa=0.55, tol=1e-12, max_iters=100)


def test_solver_config_validation():
    with pytest.raises(InvalidInputError):
        SolverConfig(kappa=1.2)
    with pytest.raises(InvalidInputError):
        SolverConfig(tol=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(ball_radius=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solver_config_rejects_non_finite(bad):
    with pytest.raises(InvalidInputError):
        SolverConfig(tol=bad)
    with pytest.raises(InvalidInputError):
        SolverConfig(ball_radius=bad)


def test_exponent_precondition():
    x = GridFunction.from_callable(lambda t: t, 32)
    sig = constant_coefficient(0.1)
    spec = CutoffSpec(level=2.0, gamma=0.4, p=2, epsilon=0.3)
    with pytest.raises(InvalidInputError):
        solve_elliptic(x, sig, spec, SolverConfig(kappa=0.5))


def test_picard_map_zero_coefficient():
    n = 64
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=1))
    z = GridFunction(n, np.ones(n + 1))
    out = picard_map(z, x, constant_coefficient(0.0), INTERIOR)
    np.testing.assert_array_equal(out.values, 0.0)


def test_picard_map_localized_to_zero():
    n = 64
    x = GridFunction.from_callable(lambda t: 50.0 * t, n)  # norm power >> level+1
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3)
    assert cutoff_value(x, spec) == 0.0
    z = GridFunction(n, np.ones(n + 1))
    out = picard_map(z, x, constant_coefficient(0.3), spec)
    np.testing.assert_array_equal(out.values, 0.0)


def test_picard_map_green_oracle():
    # sigma == c, x = t: Gamma(z)_t = c t(1-t)/2 for any z, up to O(1/n)
    n, c = 256, 1.0
    x = GridFunction.from_callable(lambda t: t, n)
    z = GridFunction(n, np.linspace(-1, 1, n + 1))
    out = picard_map(z, x, constant_coefficient(c), INTERIOR)
    assert abs(out(0.5) - c * 0.125) < 1e-3


def test_solve_zero_coefficient():
    n = 64
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=2))
    sol = solve_elliptic(x, constant_coefficient(0.0), INTERIOR, CFG)
    np.testing.assert_array_equal(sol.z.values, 0.0)
    assert sol.iterations == 1
    assert sol.residual == 0.0
    assert sol.contraction_ratio == 0.0


def test_solve_constant_coefficient_closed_form():
    # compact Green sum is exact for piecewise-linear K and x = t
    n, c = 256, 0.25
    x = GridFunction.from_callable(lambda t: t, n)
    sol = solve_elliptic(x, constant_coefficient(c), INTERIOR, CFG)
    exact = c * x.nodes * (1 - x.nodes) / 2
    assert np.max(np.abs(sol.z.values - exact)) < 1e-12
    assert sol.iterations == 2
    assert sol.cutoff_value == 1.0


def test_solve_fbm_contraction():
    sigma = tanh_coefficient(0.02, 0.01)
    spec = CutoffSpec(level=30.0, gamma=0.5, p=2, epsilon=0.3)
    for stream in range(5):
        x = sample_fbm(FbmConfig(hurst=0.75, n=256, seed=7), stream=stream)
        sol = solve_elliptic(x, sigma, spec, CFG)
        assert sol.contraction_ratio < 1.0
        assert sol.residual < 1e-10


def test_localization_gives_exact_zero():
    n = 128
    base = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=4))
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3)
    x = GridFunction(n, base.values * 50.0)  # norm power scales by 50^{2p}
    assert cutoff_value(x, spec) == 0.0
    sol = solve_elliptic(x, tanh_coefficient(0.05, 0.02), spec, CFG)
    np.testing.assert_array_equal(sol.z.values, 0.0)


def test_formulation_equivalence_identity():
    # incremental Picard map minus compact fixed point equals
    # (1/2n) * int_0^t sigma_M(z) dx, exactly up to solver tolerance
    n = 256
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=6))
    sigma = tanh_coefficient(0.05, 0.02)
    spec = CutoffSpec(level=1e5, gamma=0.5, p=2, epsilon=0.3)
    sol = solve_elliptic(x, sigma, spec, CFG)
    gamma_z = picard_map(sol.z, x, sigma, spec)
    w = GridFunction(n, sol.cutoff_value * np.asarray(sigma.fn(sol.z.values)))
    expected = np.array(
        [young_integral(w, x, 0.0, t).value for t in x.nodes]
    ) / (2 * n)
    np.testing.assert_allclose(gamma_z.values - sol.z.values, expected, atol=1e-10)
    # the two formulations agree within 2/n times the norm constants
    bound = 2.0 / n * max(1.0, np.max(np.abs(expected)) * n)
    assert np.max(np.abs(gamma_z.values - sol.z.values)) <= bound


def test_a_priori_bound_shape():
    # |z|_kappa <= C1 M |sigma|_inf / (1 - C1 M |sigma'|_inf), one corpus C1
    sigma = tanh_coefficient(0.02, 0.01)
    spec = CutoffSpec(level=30.0, gamma=0.5, p=2, epsilon=0.3)
    level = spec.level
    s0, s1 = sigma.sup_bounds[0], sigma.sup_bounds[1]
    c1_needed = []
    for stream in range(6):
        x = sample_fbm(FbmConfig(hurst=0.75, n=256, seed=7), stream=stream)
        sol = solve_elliptic(x, sigma, spec, CFG)
        zn = holder_norm(sol.z, CFG.kappa).norm
        c1_needed.append(zn / (level * (s0 + zn * s1)))
    c1 = max(c1_needed)
    assert 0 < c1 < 100.0
    for stream, need in enumerate(c1_needed):
        assert need <= c1  # bound holds corpus-wide with the fitted constant


def test_contraction_geometric_decay():
    # iterate distances decay log-linearly (R^2 > 0.95)
    n = 256
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=5))
    sigma = tanh_coefficient(0.1, 0.05)
    spec = CutoffSpec(level=1e5, gamma=0.45, p=2, epsilon=0.26)
    G = cutoff_value(x, spec)
    W = green_weights(x)
    z = np.zeros(n + 1)
    diffs = []
    for _ in range(60):
        z_new = G * (W @ np.asarray(sigma.fn(z[:-1])))
        d = holder_norm(GridFunction(n, z_new - z), 0.6).norm
        if d < 1e-13:
            break
        diffs.append(d)
        z = z_new
    assert len(diffs) >= 4
    logd = np.log(diffs)
    k = np.arange(len(logd))
    fit = np.polyfit(k, logd, 1)
    resid = logd - np.polyval(fit, k)
    r2 = 1 - np.sum(resid**2) / np.sum((logd - logd.mean()) ** 2)
    assert fit[0] < 0
    assert r2 > 0.95


def test_grid_stability_refinement():
    # sup-norm gaps between n and 2n decay at least at the Young order
    sigma = tanh_coefficient(0.05, 0.02)
    spec = CutoffSpec(level=1e6, gamma=0.45, p=2, epsilon=0.26)
    cfg = SolverConfig(kappa=0.6, tol=1e-12, max_iters=100)
    sols = {}
    for n in (128, 256, 512, 1024):
        x = lacunary_path(n, 0.75, phase_seed=9)
        sols[n] = solve_elliptic(x, sigma, spec, cfg)
    diffs = [
        np.max(np.abs(sols[n].z.values - sols[2 * n].z.values[::2])) for n in (128, 256, 512)
    ]
    slope = np.polyfit(np.log([128.0, 256.0, 512.0]), np.log(diffs), 1)[0]
    order = spec.gamma + cfg.kappa - 1
    # rates beat the worst-case bound on generic paths; assert the guaranteed
    # order within the band, one-sided
    assert slope <= -order + 0.3
    assert diffs[-1] < diffs[0]


def test_divergence_raises_with_history():
    x = sample_fbm(FbmConfig(hurst=0.75, n=256, seed=21))
    big = tanh_coefficient(1.0, 30.0)
    spec = CutoffSpec(level=1e6, gamma=0.45, p=2, epsilon=0.3)
    with pytest.raises(DivergenceError) as err:
        solve_elliptic(x, big, spec, SolverConfig(kappa=0.6, tol=1e-10, max_iters=60))
    assert len(err.value.ratio_history) >= 2
    assert err.value.ratio_history[-1] >= 1.0


def test_solve_linear_identity_cases():
    n = 64
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=3))
    w = GridFunction.from_callable(lambda t: np.cos(np.pi * t), n)
    zero = GridFunction(n, np.zeros(n + 1))
    spec = CutoffSpec(level=1e5, gamma=0.5, p=2, epsilon=0.3)
    y = solve_linear(w, zero, x, spec, CFG)
    np.testing.assert_array_equal(y.values, w.values)  # R == 0: one application
    y0 = solve_linear(zero, GridFunction(n, np.full(n + 1, 0.05)), x, spec, CFG)
    np.testing.assert_array_equal(y0.values, 0.0)


def test_solve_linear_dense_oracle():
    # against the dense system (I + G A) y = w with Young-sum kernel weights
    n = 128
    x = GridFunction.from_callable(lambda t: t + 0.2 * np.sin(2 * np.pi * t), n)
    w = GridFunction.from_callable(lambda t: np.cos(np.pi * t), n)
    R = GridFunction(n, np.full(n + 1, 0.01))
    spec = CutoffSpec(level=5.0, gamma=0.5, p=2, epsilon=0.3)
    cfg = SolverConfig(kappa=0.55, tol=1e-13, max_iters=200)
    y = solve_linear(w, R, x, spec, cfg)
    G = cutoff_value(x, spec)
    nodes = x.nodes
    A = np.zeros((n + 1, n + 1))
    A[:, :-1] = (
        (np.minimum(nodes[:, None], nodes[None, :-1]) - nodes[:, None] * nodes[None, :-1])
        * np.diff(x.values)[None, :]
        * R.values[None, :-1]
    )
    dense = np.linalg.solve(np.eye(n + 1) + G * A, w.values)
    assert np.max(np.abs(y.values - dense)) < 1e-6


def test_solve_linear_grid_mismatch():
    w = GridFunction.from_callable(lambda t: t, 32)
    R = GridFunction.from_callable(lambda t: t, 64)
    x = GridFunction.from_callable(lambda t: t, 32)
    with pytest.raises(InvalidInputError):
        solve_linear(w, R, x, INTERIOR, CFG)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_green_apply_matches_dense_weights(n):
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=17))
    f = np.asarray(tanh_coefficient(0.05, 0.02).fn(np.sin(3 * x.nodes[:-1])))
    dense = green_weights(x) @ f
    fast = _green_apply(x, f)
    assert fast[0] == fast[-1] == 0.0
    assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_solve_linear_non_spd_raises():
    # y = w - K(R y) with R = -20 on x = t: nT - 20/n I has a negative
    # eigenvalue (the smallest of nT is about pi^2/n), so a pivot fails
    n = 64
    x = GridFunction.from_callable(lambda t: t, n)
    w = GridFunction.from_callable(lambda t: np.sin(np.pi * t), n)
    with pytest.raises(DivergenceError, match="not positive definite"):
        solve_linear(w, GridFunction(n, np.full(n + 1, -20.0)), x, INTERIOR, CFG)
    # below the threshold the same system is positive definite and solves
    y = solve_linear(w, GridFunction(n, np.full(n + 1, -5.0)), x, INTERIOR, CFG)
    assert np.all(np.isfinite(y.values))
