import numpy as np
import pytest
from scipy.optimize import brentq

from ellipticsde import (
    CutoffSpec,
    DerivativeKernel,
    FbmConfig,
    GridFunction,
    InvalidInputError,
    SolverConfig,
    constant_coefficient,
    cutoff_prime,
    derivative_norm,
    directional_derivative,
    green_kernel,
    kernel_cell_masses,
    malliavin_kernel,
    norm_power,
    sample_fbm,
    sign_pattern,
    smooth_cutoff,
    solve_elliptic,
    solve_linear,
    stratonovich_decomposition,
    tanh_coefficient,
)
from ellipticsde.malliavin import _forcing_matrix
from oracles import green_weights, picard_kernel

INTERIOR = CutoffSpec(level=50.0, gamma=0.5, p=2, epsilon=0.3, flavor="sobolev")
CFG = SolverConfig(kappa=0.55, tol=1e-12, max_iters=100)


def _interior_setup(n=128, c=0.25):
    x = GridFunction.from_callable(lambda t: t, n)
    sigma = constant_coefficient(c)
    sol = solve_elliptic(x, sigma, INTERIOR, CFG)
    return x, sigma, sol


def test_kernel_validation():
    with pytest.raises(InvalidInputError):
        DerivativeKernel(n=4, values=np.zeros((4, 4)))
    k = DerivativeKernel(n=4, values=np.arange(25.0).reshape(5, 5))
    with pytest.raises(InvalidInputError):
        k.row(0.3)
    with pytest.raises(ValueError):
        k.values[0, 0] = 1.0


def test_forcing_kernel_boundary_and_interior():
    # _forcing_matrix(...)[i_s, j_t] is the forcing term at (s, t) = (i_s/n, j_t/n)
    x, sigma, sol = _interior_setup()
    n = x.n
    psi = _forcing_matrix(sol, x, sigma, INTERIOR)
    assert psi[n // 4, 0] == pytest.approx(0.0, abs=1e-15)
    # interior constant sigma: G sigma(z_s) K(t,s) with G = 1
    assert psi[n // 2, n // 2] == pytest.approx(0.25 * 0.25)
    _, sig0, sol0 = _interior_setup(c=0.0)
    assert _forcing_matrix(sol0, x, sig0, INTERIOR)[n // 2, n // 2] == 0.0


def test_kernel_constant_sigma_closed_form():
    # sigma' == 0 and phi' == 0: Phi_s(t) = c G K(t,s), one linear application
    n, c = 128, 0.25
    x, sigma, sol = _interior_setup(n, c)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    nodes = x.nodes
    expected = c * green_kernel(nodes[None, :], nodes[:, None])
    assert np.max(np.abs(kernel.values - expected)) < 1e-12
    assert kernel.flavor == "sobolev"


def test_kernel_zero_sigma():
    n = 64
    x, sigma, sol = _interior_setup(n, 0.0)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    np.testing.assert_array_equal(kernel.values, 0.0)


def test_kernel_self_consistency_residual():
    # residual of the linear kernel equation at every (s, t) node
    n = 256
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=31))
    sigma = tanh_coefficient(0.05, 0.02)
    spec = CutoffSpec(level=1e4, gamma=0.5, p=2, epsilon=0.3)
    sol = solve_elliptic(x, sigma, spec, CFG)
    kernel = malliavin_kernel(sol, x, sigma, spec, CFG)
    G = sol.cutoff_value
    W = green_weights(x)
    sig1 = np.asarray(sigma.d1(sol.z.values))
    nodes = x.nodes
    psi = G * np.asarray(sigma.fn(sol.z.values))[:, None] * green_kernel(
        nodes[None, :], nodes[:, None]
    )
    rhs = psi + G * (sig1[:-1] * kernel.values[:, :-1]) @ W.T
    assert np.max(np.abs(kernel.values - rhs)) < 1e-4


def test_directional_derivative_constant_direction():
    n = 64
    x, sigma, sol = _interior_setup(n)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    const = GridFunction(n, np.full(n + 1, 2.0))
    np.testing.assert_array_equal(directional_derivative(kernel, const).values, 0.0)


def test_directional_derivative_closed_form():
    # interior constant sigma, h(s) = s: (Dz.h)_t = c int K(t,s) ds = c t(1-t)/2
    n, c = 256, 1.0
    x, sigma, sol = _interior_setup(n, c)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    h = GridFunction.from_callable(lambda s: s, n)
    dd = directional_derivative(kernel, h)
    assert abs(dd(0.5) - c * 0.125) < 1e-3


def test_directional_derivative_linearity():
    n = 64
    x, sigma, sol = _interior_setup(n)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    h1 = GridFunction.from_callable(lambda s: np.sin(2 * s), n)
    h2 = GridFunction.from_callable(lambda s: s**3, n)
    combo = GridFunction(n, 2.0 * h1.values - 0.5 * h2.values)
    lhs = directional_derivative(kernel, combo).values
    rhs = 2.0 * directional_derivative(kernel, h1).values - 0.5 * directional_derivative(
        kernel, h2
    ).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_finite_difference_consistency():
    # central differences of the full solve against the kernel pairing
    n, eps = 256, 1e-4
    x = GridFunction.from_callable(lambda t: t + 0.1 * np.sin(2 * np.pi * t), n)
    h = GridFunction.from_callable(lambda s: s + 0.2 * np.sin(np.pi * s), n)
    sigma = tanh_coefficient(0.05, 0.02)
    sol = solve_elliptic(x, sigma, INTERIOR, CFG)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    dd = directional_derivative(kernel, h)
    plus = solve_elliptic(GridFunction(n, x.values + eps * h.values), sigma, INTERIOR, CFG)
    minus = solve_elliptic(GridFunction(n, x.values - eps * h.values), sigma, INTERIOR, CFG)
    fd = (plus.z.values - minus.z.values) / (2 * eps)
    rel = np.abs(dd.values - fd) / np.maximum(np.abs(fd), 1e-12)
    assert np.max(rel) <= 1e-3


def test_finite_difference_error_curve():
    # errors stay below tolerance across step sizes (quadratic term + floor)
    n = 128
    x = GridFunction.from_callable(lambda t: t + 0.1 * np.sin(2 * np.pi * t), n)
    h = GridFunction.from_callable(lambda s: s, n)
    sigma = tanh_coefficient(0.05, 0.02)
    sol = solve_elliptic(x, sigma, INTERIOR, CFG)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    dd = directional_derivative(kernel, h)
    errs = []
    for eps in (1e-3, 1e-4, 1e-5):
        plus = solve_elliptic(GridFunction(n, x.values + eps * h.values), sigma, INTERIOR, CFG)
        minus = solve_elliptic(GridFunction(n, x.values - eps * h.values), sigma, INTERIOR, CFG)
        fd = (plus.z.values - minus.z.values) / (2 * eps)
        rel = np.abs(dd.values - fd) / np.maximum(np.abs(fd), 1e-12)
        errs.append(np.max(rel))
    assert max(errs) <= 1e-3


def test_derivative_norm_zero_and_positive():
    n = 64
    zero = DerivativeKernel(n=n, values=np.zeros((n + 1, n + 1)))
    assert derivative_norm(zero, 0.5, 0.75) == 0.0
    x, sigma, sol = _interior_setup(n)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    assert derivative_norm(kernel, 0.5, 0.75) > 0.0


def test_derivative_norm_refined_quadrature():
    # interior c=1: row is K(0.5, .); rebuild its norm on a 4096-cell grid
    n, hurst, t = 256, 0.75, 0.5
    x, sigma, sol = _interior_setup(n, 1.0)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    val = derivative_norm(kernel, t, hurst)
    m = 4096
    centers = (np.arange(m) + 0.5) / m
    v = np.minimum(t, centers) - t * centers
    lag = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    ref = np.sqrt(hurst * (2 * hurst - 1) * v @ kernel_cell_masses(m, hurst)[lag] @ v)
    assert val == pytest.approx(ref, rel=0.01)


def test_strato_constant_sigma_trace_vanishes():
    n = 128
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=31))
    sigma = constant_coefficient(0.05)
    spec = CutoffSpec(level=1e4, gamma=0.5, p=2, epsilon=0.3)
    sol = solve_elliptic(x, sigma, spec, CFG)
    kernel = malliavin_kernel(sol, x, sigma, spec, CFG)
    st = stratonovich_decomposition(sol, kernel, x, sigma, spec, 0.5, 0.75)
    assert st.trace == 0.0
    assert st.skorohod == st.pathwise
    assert abs(st.pathwise - sol.z(0.5)) <= sol.residual + 1e-14


def test_strato_zero_sigma_all_zero():
    n = 64
    x, sigma, sol = _interior_setup(n, 0.0)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    st = stratonovich_decomposition(sol, kernel, x, sigma, INTERIOR, 0.5, 0.75)
    assert st.pathwise == st.trace == st.skorohod == 0.0


def test_strato_general_case():
    n = 256
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=21))
    sigma = tanh_coefficient(0.05, 0.02)
    spec = CutoffSpec(level=1e4, gamma=0.5, p=2, epsilon=0.3)
    sol = solve_elliptic(x, sigma, spec, CFG)
    kernel = malliavin_kernel(sol, x, sigma, spec, CFG)
    st = stratonovich_decomposition(sol, kernel, x, sigma, spec, 0.5, 0.75)
    assert np.isfinite(st.trace)
    assert abs(st.pathwise - sol.z(0.5)) <= sol.residual + 1e-14
    assert st.skorohod == st.pathwise - st.trace


def test_trace_integrability_condition():
    # int int |D_s u_t| |t-s|^{2H-2} ds dt is finite on the assembled kernel
    n = 128
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=21))
    sigma = tanh_coefficient(0.05, 0.02)
    spec = CutoffSpec(level=1e4, gamma=0.5, p=2, epsilon=0.3)
    sol = solve_elliptic(x, sigma, spec, CFG)
    kernel = malliavin_kernel(sol, x, sigma, spec, CFG)
    phim = 0.25 * (
        kernel.values[:-1, :-1]
        + kernel.values[1:, :-1]
        + kernel.values[:-1, 1:]
        + kernel.values[1:, 1:]
    )
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    total = np.sum(np.abs(phim) * kernel_cell_masses(n, 0.75)[lag])
    assert np.isfinite(total)


def test_linear_solve_increment_bound_harness():
    # forcing with |dw_{t1 t2}| <= c1 |t2-t1| eta propagates to the solution
    n, c1 = 256, 0.5
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=13))
    spec = CutoffSpec(level=1e5, gamma=0.45, p=2, epsilon=0.26)
    cfg = SolverConfig(kappa=0.6, tol=1e-12, max_iters=100)
    R = GridFunction(n, np.full(n + 1, 0.05))
    for k_eta in (8, 64, 128):
        eta = k_eta / n
        w = GridFunction.from_callable(lambda t: c1 * eta * t, n)
        y = solve_linear(w, R, x, spec, cfg)
        tail = y.values[k_eta:]
        m = len(tail)
        gaps = np.abs(np.arange(m)[None, :] - np.arange(m)[:, None]) / n
        viol = np.abs(tail[None, :] - tail[:, None]) - gaps * eta
        np.fill_diagonal(viol, -1.0)
        assert viol.max() <= 1e-12


def test_sign_pattern_reporting():
    n = 64
    x, sigma, sol = _interior_setup(n)
    kernel = malliavin_kernel(sol, x, sigma, INTERIOR, CFG)
    info = sign_pattern(kernel, 0.5)
    assert 0.0 <= info["fraction_negative"] <= 1.0
    assert 0.0 <= info["fraction_positive"] <= 1.0
    assert info["longest_negative_interval"] is None or len(info["longest_negative_interval"]) == 2


def _kernel_cases(flavor, n=128):
    """(path, cutoff, kappa): an fBm path under the flavor's benchmark
    problem (the malliavin CLI's sobolev one, the density study's garsia
    one), and the path A t with the norm power mid-transition at level 2
    (phi' != 0, so the rank-one forcing term and the boundary rows s=0, s=1
    are exercised)."""
    x = sample_fbm(FbmConfig(hurst=0.75, n=n, seed=31))
    if flavor == "sobolev":
        yield x, CutoffSpec(level=1e3, gamma=0.5, p=2, epsilon=0.3, flavor=flavor), 0.55
    else:
        yield x, CutoffSpec(level=2.0, gamma=0.3, p=5, epsilon=0.42, flavor=flavor), 0.75
    A = (2.5 / (1 - 1 / n)) ** 0.25 if flavor == "sobolev" else (2.5 / 0.375) ** 0.25
    band = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor=flavor)
    x = GridFunction.from_callable(lambda t: A * t, n)
    assert cutoff_prime(x, band) != 0.0
    yield x, band, 0.55


@pytest.mark.parametrize("flavor", ["sobolev", "garsia"])
def test_kernel_matches_picard_oracle(flavor):
    sigma = tanh_coefficient(0.05, 0.02)
    for x, spec, kappa in _kernel_cases(flavor):
        cfg = SolverConfig(kappa=kappa, tol=1e-10, max_iters=200)
        sol = solve_elliptic(x, sigma, spec, cfg)
        kernel = malliavin_kernel(sol, x, sigma, spec, cfg)
        oracle = picard_kernel(sol, x, sigma, spec, cfg)
        assert np.max(np.abs(kernel.values - oracle)) <= cfg.tol


@pytest.mark.parametrize("flavor", ["sobolev", "garsia"])
def test_kernel_equation_residual_relative(flavor):
    # the direct solve satisfies the dense kernel equation to rounding
    sigma = tanh_coefficient(0.05, 0.02)
    for x, spec, kappa in _kernel_cases(flavor):
        cfg = SolverConfig(kappa=kappa, tol=1e-12, max_iters=100)
        sol = solve_elliptic(x, sigma, spec, cfg)
        kernel = malliavin_kernel(sol, x, sigma, spec, cfg).values
        sig1 = np.asarray(sigma.d1(sol.z.values))
        rhs = _forcing_matrix(sol, x, sigma, spec) + sol.cutoff_value * (
            sig1[:-1] * kernel[:, :-1]
        ) @ green_weights(x).T
        assert np.max(np.abs(kernel - rhs)) <= 1e-12 * np.max(np.abs(kernel))


@pytest.mark.parametrize("flavor", ["sobolev", "garsia"])
@pytest.mark.parametrize("G", [0.02, 0.5, 0.98])
def test_band_path_kernel_matches_central_fd(flavor, G):
    # in the cutoff band (phi' != 0) the kernel's directional derivative is
    # the derivative of the solve, whatever the cutoff value G
    n, eps = 256, 1e-6
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor=flavor)
    cfg = SolverConfig(kappa=0.55, tol=1e-13, max_iters=200)
    sigma = tanh_coefficient(0.05, 0.02)
    base = GridFunction.from_callable(lambda t: t + 0.3 * np.sin(3 * np.pi * t), n)
    # scale the path by A so that its norm power U = A^{2p} U(base) has cutoff G
    a = brentq(lambda a: smooth_cutoff(spec.level + a, spec.level) - G, 1e-9, 1 - 1e-9)
    A = ((spec.level + a) / norm_power(base, spec)) ** (1 / (2 * spec.p))
    x = GridFunction(n, A * base.values)
    h = GridFunction.from_callable(lambda t: t * np.cos(2 * np.pi * t), n)
    sol = solve_elliptic(x, sigma, spec, cfg)
    assert sol.cutoff_value == pytest.approx(G, rel=1e-9)
    dd = directional_derivative(malliavin_kernel(sol, x, sigma, spec, cfg), h).values
    plus = solve_elliptic(GridFunction(n, x.values + eps * h.values), sigma, spec, cfg)
    minus = solve_elliptic(GridFunction(n, x.values - eps * h.values), sigma, spec, cfg)
    fd = (plus.z.values - minus.z.values) / (2 * eps)
    assert np.max(np.abs(dd - fd)) <= 1e-6 * np.max(np.abs(fd))
