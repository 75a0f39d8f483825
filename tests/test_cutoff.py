import numpy as np
import pytest

from ellipticsde import (
    CutoffSpec,
    GridFunction,
    InvalidInputError,
    cutoff_prime,
    cutoff_value,
    garsia_functional,
    garsia_grad_kernel,
    holder_norm,
    lacunary_path,
    norm_power,
    smooth_cutoff,
    smooth_cutoff_prime,
    sobolev_grad_kernel,
    sobolev_norm,
)
from ellipticsde.cutoff import norm_power_grad_kernel

import oracles
from oracles import cutoff_derivative_forms


def test_smooth_cutoff_plateaus_and_midpoint():
    assert smooth_cutoff(1.0, 2.0) == 1.0
    assert smooth_cutoff(4.0, 2.0) == 0.0
    assert smooth_cutoff(2.5, 2.0) == pytest.approx(0.5, abs=1e-15)
    r = np.linspace(0, 4, 401)
    v = smooth_cutoff(r, 2.0)
    assert np.all(v >= 0) and np.all(v <= 1)
    assert np.all(np.diff(v) <= 1e-15)  # nonincreasing profile


def test_smooth_cutoff_rejects_negative():
    with pytest.raises(InvalidInputError):
        smooth_cutoff(-0.1, 2.0)
    with pytest.raises(InvalidInputError):
        smooth_cutoff_prime(-0.1, 2.0).item()


def test_cutoff_prime_matches_finite_differences():
    level, eps = 2.0, 1e-6
    for r in (2.1, 2.3, 2.5, 2.8, 2.95):
        fd = (smooth_cutoff(r + eps, level) - smooth_cutoff(r - eps, level)) / (2 * eps)
        assert smooth_cutoff_prime(r, level) == pytest.approx(fd, rel=1e-5, abs=1e-8)
    assert smooth_cutoff_prime(1.5, level) == 0.0
    assert smooth_cutoff_prime(3.5, level) == 0.0


def test_cutoff_finite_differences_bounded():
    # smoothness proxy: centered differences stay bounded, vanish off the band
    level, h = 2.0, 1e-4
    r = np.linspace(0.5, 4.0, 2000)
    fd = (smooth_cutoff(r + h, level) - smooth_cutoff(r - h, level)) / (2 * h)
    assert np.max(np.abs(fd)) < 10.0
    off_band = (r < level - 0.01) | (r > level + 1.01)
    assert np.max(np.abs(fd[off_band])) == 0.0


def test_cutoff_spec_validation():
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=0.0, gamma=0.5, p=2, epsilon=0.3)
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=2.0, gamma=1.2, p=2, epsilon=0.3)
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=2.0, gamma=0.5, p=0, epsilon=0.3)
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.2)  # needs eps > 1/(2p)
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor="other")
    spec = CutoffSpec(level=2.0, gamma=0.3, p=5, epsilon=0.42, flavor="garsia")
    spec.require_malliavin_regime()
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3).require_malliavin_regime()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cutoff_spec_rejects_non_finite(bad):
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=bad, gamma=0.5, p=2, epsilon=0.3)
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=bad)
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=2.0, gamma=0.5, p=bad, epsilon=0.3)


def test_cutoff_spec_integral_float_p_is_stored_as_int():
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2.0, epsilon=0.3)
    assert type(spec.p) is int
    x = lacunary_path(64, 0.6, phase_seed=1)
    assert norm_power(x, spec) == norm_power(x, CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3))
    with pytest.raises(InvalidInputError):
        CutoffSpec(level=2.0, gamma=0.5, p=2.5, epsilon=0.3)


def test_sobolev_norm_constant_is_zero():
    f = GridFunction(64, np.full(65, 1.3))
    assert sobolev_norm(f, 0.5, 2) == 0.0


def test_sobolev_norm_linear_oracle():
    # integrand == 1 for f=t, gamma=1/2, p=2: double integral 1, fourth root 1
    f = GridFunction.from_callable(lambda t: t, 256)
    assert sobolev_norm(f, 0.5, 2) == pytest.approx(1.0, rel=0.02)


def test_sobolev_norm_divergent_regime_grows():
    # gamma=3/4, p=2 puts f=t at the logarithmically divergent exponent
    f128 = GridFunction.from_callable(lambda t: t, 128)
    f512 = GridFunction.from_callable(lambda t: t, 512)
    assert sobolev_norm(f512, 0.75, 2) > sobolev_norm(f128, 0.75, 2)


def test_fita_stability_under_refinement():
    # paths in C^{gamma+eps} with eps > 1/(2p): norm settles under refinement
    for make in (
        lambda n: lacunary_path(n, 0.85, phase_seed=5),
        lambda n: lacunary_path(n, 0.95, phase_seed=5),
        lambda n: GridFunction.from_callable(lambda t: np.sin(2 * np.pi * t), n),
    ):
        v256 = sobolev_norm(make(256), 0.5, 2)
        v512 = sobolev_norm(make(512), 0.5, 2)
        assert abs(v512 - v256) / v256 < 0.05


def test_garsia_functional_constant_is_zero():
    f = GridFunction(64, np.full(65, -0.4))
    assert garsia_functional(f, 0.5, 2) == 0.0


def test_garsia_functional_linear_oracle():
    # integrand == 1 over the wedge of area int_0^1 (4v^1 - v) dv = 3/8
    f = GridFunction.from_callable(lambda t: t, 256)
    assert garsia_functional(f, 0.5, 2) == pytest.approx((3.0 / 8.0) ** 0.25, rel=0.02)


def test_garsia_below_full_square(path_corpus):
    # wedge domain is contained in the square with the same integrand
    for f in list(path_corpus.values())[:10]:
        assert garsia_functional(f, 0.5, 2) <= sobolev_norm(f, 0.5, 2) + 1e-12


def test_cutoff_value_cases():
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3)
    zero = GridFunction(64, np.zeros(65))
    assert cutoff_value(zero, spec) == 1.0
    big = GridFunction.from_callable(lambda t: 10.0 * t, 64)
    assert cutoff_value(big, spec) == 0.0
    unit = GridFunction.from_callable(lambda t: t, 256)
    # sobolev norm ~1 so the power ~1 < level=2
    assert cutoff_value(unit, spec) == 1.0
    assert cutoff_prime(unit, spec) == 0.0


def test_sobolev_grad_kernel_boundaries_and_anchor():
    n = 512
    x = GridFunction.from_callable(lambda t: t, n)
    mu = sobolev_grad_kernel(x, 0.5, 2)
    assert mu.values[0] == 0.0 and mu.values[n] == 0.0
    # analytic oracle: rho = -4/(eta-zeta), mu(1/2) = -4 ln 2
    assert mu(0.5) == pytest.approx(-4 * np.log(2), rel=0.03)


def test_garsia_grad_kernel_empty_domain_and_bound():
    n = 256
    x = lacunary_path(n, 0.8, phase_seed=11)
    mt = garsia_grad_kernel(x, 0.5, 2)
    assert mt.values[0] == 0.0
    # domain inclusion: |mu~_s| under the wedge integral of |rho|
    c = (np.arange(n) + 0.5) / n
    xm = 0.5 * (x.values[:-1] + x.values[1:])
    for k in (32, 100, 200):
        s = k / n
        total = 0.0
        for j in np.where((c > s / 4) & (c < s))[0]:
            sel = (c > s) & (c < min(4 * c[j], 1.0))
            total += np.sum(
                np.abs(4 * (xm[sel] - xm[j]) ** 3) / np.abs(c[sel] - c[j]) ** 4
            )
        assert abs(mt.values[k]) <= total / n**2 + 1e-12


def test_garsia_grad_kernel_brute_force_oracle():
    # x = t, p = 2, gamma = 1/2, s = 0.1; refined 10^6-cell midpoint quadrature
    n, p, g, s = 500, 2, 0.5, 0.1
    x = GridFunction.from_callable(lambda t: t, n)
    prod = garsia_grad_kernel(x, g, p)(s)
    m = 1000
    eta = s / 4 + (np.arange(m) + 0.5) * (s - s / 4) / m
    brute = 0.0
    for e in eta:
        hi = min(4 * e, 1.0)
        z = s + (np.arange(m) + 0.5) * (hi - s) / m
        brute += (
            np.sum(2 * p * (z - e) ** (2 * p - 1) / np.abs(z - e) ** (2 * g * p + 2))
            * (hi - s) / m * (s - s / 4) / m
        )
    assert prod == pytest.approx(brute, rel=0.01)


def test_wedge_kernel_small_s_bound():
    # |mu~_s| <= |B|_{gamma+eps}^{2p-1} s^beta for grid s < 1/4, 10 fBm samples
    from ellipticsde import FbmConfig, sample_fbm

    gamma, eps, p, hurst, n = 0.3, 0.42, 5, 0.75, 256
    beta = (2 * p - 1) * eps - gamma
    for stream in range(10):
        B = sample_fbm(FbmConfig(hurst=hurst, n=n, seed=123), stream=stream)
        mt = garsia_grad_kernel(B, gamma, p)
        bound = holder_norm(B, gamma + eps).norm ** (2 * p - 1)
        for k in range(1, n // 4):
            assert abs(mt.values[k]) <= 1.05 * bound * (k / n) ** beta


def _random_walk(n):
    return GridFunction(n, np.cumsum(np.random.default_rng(n).standard_normal(n + 1)) / n**0.5)


@pytest.mark.parametrize("flavor", ["sobolev", "garsia"])
@pytest.mark.parametrize("n", [2, 3, 5, 7, 64, 255, 256, 1024])
def test_pair_sweep_matches_dense_oracles(n, flavor):
    # the lag sweep selects pairs by integer lag, so non-power-of-two n keep
    # their adjacent-cell pairs; the dense oracles select them by index too
    x = _random_walk(n)
    norm, norm_ref, kernel, kernel_ref = {
        "sobolev": (
            sobolev_norm, oracles.sobolev_norm, sobolev_grad_kernel, oracles.sobolev_grad_kernel
        ),
        "garsia": (
            garsia_functional, oracles.garsia_functional, garsia_grad_kernel, oracles.garsia_grad_kernel
        ),
    }[flavor]
    for p in (1, 2, 5):
        expected = norm_ref(x, 0.3, p)
        assert abs(norm(x, 0.3, p) - expected) <= 1e-12 * expected
        mu = kernel(x, 0.3, p).values
        ref = kernel_ref(x, 0.3, p).values
        assert np.max(np.abs(mu - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert mu[0] == 0.0 and mu[n] == 0.0
        spec = CutoffSpec(level=2.0, gamma=0.3, p=p, epsilon=0.9, flavor=flavor)
        assert norm_power(x, spec) == pytest.approx(expected ** (2 * p), rel=1e-12)
        assert norm_power_grad_kernel(x, spec).values[n] == 0.0


@pytest.mark.parametrize("flavor", ["sobolev", "garsia"])
@pytest.mark.parametrize("n", [255, 256])
def test_norm_power_grad_kernel_is_exact_gradient(n, flavor):
    # DU[h] = sum_k m_k (h_{k+1} - h_k) holds for the discrete norm power
    eps = 1e-6
    x = GridFunction.from_callable(lambda t: t + 0.3 * np.sin(3 * np.pi * t), n)
    h = GridFunction.from_callable(lambda t: t * np.cos(2 * np.pi * t), n)
    for gamma, p in ((0.5, 2), (0.3, 5)):
        spec = CutoffSpec(level=2.0, gamma=gamma, p=p, epsilon=0.9, flavor=flavor)
        fd = (
            norm_power(GridFunction(n, x.values + eps * h.values), spec)
            - norm_power(GridFunction(n, x.values - eps * h.values), spec)
        ) / (2 * eps)
        pairing = float(norm_power_grad_kernel(x, spec).values[:-1] @ np.diff(h.values))
        assert abs(pairing - fd) <= 1e-6 * abs(fd)


def _band_path(n, flavor):
    # scale t -> A t so the norm power sits mid-transition at level 2
    if flavor == "sobolev":
        A = (2.5 / (1 - 1 / n)) ** 0.25
    else:
        A = (2.5 / 0.375) ** 0.25
    return GridFunction.from_callable(lambda t: A * t, n)


@pytest.mark.parametrize("flavor", ["sobolev", "garsia"])
def test_dual_derivative_forms_agree(flavor):
    n = 512
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor=flavor)
    x = _band_path(n, flavor)
    assert cutoff_prime(x, spec) != 0.0
    h = GridFunction.from_callable(lambda t: t, n)
    double, young = cutoff_derivative_forms(x, h, spec)
    assert double == pytest.approx(young, rel=0.01)
    assert cutoff_derivative_forms(x, h, spec)[0] == double


@pytest.mark.parametrize("flavor", ["sobolev", "garsia"])
def test_dual_derivative_forms_curved_direction(flavor):
    # node-increment pairing vs midpoint double integral: looser band
    n = 512
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3, flavor=flavor)
    x = _band_path(n, flavor)
    h = GridFunction.from_callable(lambda t: np.sin(np.pi * t) + 0.5 * t**2, n)
    double, young = cutoff_derivative_forms(x, h, spec)
    assert double == pytest.approx(young, rel=0.05)


def test_derivative_pairing_degenerate_cases():
    n = 128
    spec = CutoffSpec(level=2.0, gamma=0.5, p=2, epsilon=0.3)
    interior = GridFunction.from_callable(lambda t: 0.5 * t, n)
    h = GridFunction.from_callable(lambda t: t, n)
    assert cutoff_derivative_forms(interior, h, spec)[0] == 0.0  # phi' = 0
    banded = _band_path(n, "sobolev")
    const = GridFunction(n, np.full(n + 1, 2.0))
    d, y = cutoff_derivative_forms(banded, const, spec)
    assert d == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


def test_garsia_inequality_corpus(path_corpus):
    # seminorm_gamma(f) <= c * U_{gamma,p}(f) with one corpus-wide c <= 10
    gamma, p = 0.5, 2
    worst = 0.0
    for f in path_corpus.values():
        U = garsia_functional(f, gamma, p)
        semi = holder_norm(f, gamma).seminorm
        if U > 0:
            worst = max(worst, semi / U)
    assert 0 < worst <= 10.0
