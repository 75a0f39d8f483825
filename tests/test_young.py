import numpy as np
import pytest

from ellipticsde import (
    GridFunction,
    InvalidInputError,
    green_kernel,
    holder_norm,
    kernel_integral,
    lacunary_path,
    young_integral,
)
from oracles import fubini_check


def test_telescoping_constant_integrand():
    f = GridFunction.from_callable(lambda t: np.sin(3 * t), 64)
    one = GridFunction(64, np.ones(65))
    res = young_integral(one, f, 0.25, 0.75)
    assert res.value == pytest.approx(f(0.75) - f(0.25), abs=1e-15)
    assert res.integrand_start == 1.0
    assert res.mesh == 1.0 / 64


def test_arithmetic_series_exact():
    # sum_{j<n} (j/n)(1/n) = 1/2 - 1/(2n) exactly
    for n in (10, 128):
        f = GridFunction.from_callable(lambda t: t, n)
        v = young_integral(f, f, 0.0, 1.0).value
        assert v == pytest.approx(0.5 - 1.0 / (2 * n), abs=1e-14)


def test_quadratic_integrator_oracle():
    # closed form int_0^1 u d(u^2) = int_0^1 2u^2 du = 2/3
    n = 200
    g = GridFunction.from_callable(lambda t: t, n)
    f = GridFunction.from_callable(lambda t: t**2, n)
    assert abs(young_integral(g, f, 0.0, 1.0).value - 2.0 / 3.0) < 1e-2


def test_additivity_exact():
    rng = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
    g = GridFunction(48, rng.standard_normal(49))
    f = GridFunction(48, rng.standard_normal(49))
    whole = young_integral(g, f, 0.0, 1.0).value
    for m in (0.25, 0.5, 0.9375):
        a = young_integral(g, f, 0.0, m).value
        b = young_integral(g, f, m, 1.0).value
        assert a + b == whole


def test_linearity():
    n = 32
    g1 = GridFunction.from_callable(lambda t: np.sin(t), n)
    g2 = GridFunction.from_callable(lambda t: t**3, n)
    f = GridFunction.from_callable(lambda t: np.cos(t), n)
    lhs = young_integral(GridFunction(n, 2 * g1.values - 3 * g2.values), f, 0.0, 1.0).value
    rhs = 2 * young_integral(g1, f, 0.0, 1.0).value - 3 * young_integral(g2, f, 0.0, 1.0).value
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_grid_mismatch_and_interval_errors():
    g = GridFunction.from_callable(lambda t: t, 16)
    f = GridFunction.from_callable(lambda t: t, 32)
    with pytest.raises(InvalidInputError):
        young_integral(g, f, 0.0, 1.0)
    with pytest.raises(InvalidInputError):
        young_integral(g, g, 0.75, 0.25)


def test_green_kernel_values():
    xi = np.linspace(0, 1, 9)
    np.testing.assert_allclose(green_kernel(0.0, xi), 0.0, atol=1e-15)
    np.testing.assert_allclose(green_kernel(1.0, xi), 0.0, atol=1e-15)
    assert green_kernel(0.5, 0.5) == pytest.approx(0.25)
    assert green_kernel(0.3, 0.7) == pytest.approx(0.09)
    assert green_kernel(0.7, 0.3) == pytest.approx(green_kernel(0.3, 0.7))
    with pytest.raises(InvalidInputError):
        green_kernel(1.2, 0.5)


def test_kernel_integral_boundary_and_oracle():
    n = 256
    w = GridFunction(n, np.ones(n + 1))
    x = GridFunction.from_callable(lambda t: t, n)
    assert kernel_integral(0.0, w, x).value == pytest.approx(0.0, abs=1e-15)
    assert kernel_integral(1.0, w, x).value == pytest.approx(0.0, abs=1e-15)
    # int_0^1 K(t,xi) dxi = t(1-t)/2
    assert abs(kernel_integral(0.5, w, x).value - 0.125) < 1e-3
    zero = GridFunction(n, np.zeros(n + 1))
    assert kernel_integral(0.5, zero, x).value == 0.0


def test_fubini_zero_integrand():
    n = 32
    f = GridFunction.from_callable(lambda t: t, n)
    assert fubini_check(np.zeros((n + 1, n + 1)), f, f, 0.0, 1.0) == 0.0


def test_fubini_constant_integrand():
    n = 64
    f = GridFunction.from_callable(lambda t: t, n)
    gap = fubini_check(np.ones((n + 1, n + 1)), f, f, 0.0, 1.0)
    assert gap <= 2.0 / n


def test_fubini_green_kernel_integrand():
    n = 256
    nodes = np.linspace(0, 1, n + 1)
    h = green_kernel(nodes[:, None], nodes[None, :])
    f = GridFunction.from_callable(lambda t: t + 0.2 * np.sin(2 * np.pi * t), n)
    g = GridFunction.from_callable(lambda t: np.cos(np.pi * t), n)
    assert fubini_check(h, f, g, 0.0, 1.0) <= 1e-2


def test_young_bound_shape(path_corpus):
    # |int g df| <= C |f|_gamma |g|_kappa |t-s|^gamma with one corpus constant
    gamma = kappa = 0.6
    worst = 0.0
    names = sorted(path_corpus)
    for a, b in zip(names, names[5:] + names[:5]):
        g, f = path_corpus[a], path_corpus[b]
        nf = holder_norm(f, gamma).norm
        ng = holder_norm(g, kappa).norm
        if nf == 0 or ng == 0:
            continue
        for s, t in ((0.0, 1.0), (0.25, 0.75), (0.5, 0.625)):
            v = abs(young_integral(g, f, s, t).value)
            worst = max(worst, v / (nf * ng * (t - s) ** gamma))
    assert 0 < worst <= 20.0


def test_refinement_gap_shrinks_on_average():
    # small-ensemble sanity: refinement gaps decay under grid doubling
    sizes = (128, 256, 512, 1024)
    diffs = np.zeros(len(sizes) - 1)
    for s in range(6):
        vals = [
            young_integral(
                lacunary_path(n, 0.75, phase_seed=2 * s + 1),
                lacunary_path(n, 0.75, phase_seed=2 * s + 2),
                0.0,
                1.0,
            ).value
            for n in sizes
        ]
        diffs += np.abs(np.diff(vals))
    assert diffs[-1] < diffs[0]
