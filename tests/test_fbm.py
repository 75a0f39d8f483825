import numpy as np
import pytest

from ellipticsde import (
    FbmConfig,
    GridFunction,
    InvalidInputError,
    UnsupportedParameterError,
    fbm_covariance,
    fractional_inner_product,
    green_kernel,
    kernel_cell_masses,
    sample_fbm,
)
from ellipticsde.fbm import _cholesky_factor

import oracles
from oracles import ORACLE_SIZES, PATH_KINDS, oracle_path


def test_covariance_closed_form():
    assert fbm_covariance(1.0, 1.0, 0.6) == pytest.approx(1.0)
    assert fbm_covariance(0.0, 0.7, 0.8) == pytest.approx(0.0)
    assert fbm_covariance(0.25, 1.0, 0.75) == pytest.approx(
        0.5 * (0.25**1.5 + 1.0 - 0.75**1.5)
    )
    t = np.linspace(0, 1, 5)
    np.testing.assert_allclose(fbm_covariance(t, t, 0.75), t**1.5)
    with pytest.raises(InvalidInputError):
        fbm_covariance(-0.1, 0.5, 0.75)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        FbmConfig(hurst=1.0, n=16, seed=0)
    with pytest.raises(InvalidInputError):
        FbmConfig(hurst=0.5, n=1, seed=0)


def test_sampling_determinism_and_anchoring():
    cfg = FbmConfig(hurst=0.75, n=64, seed=99)
    a = sample_fbm(cfg)
    b = sample_fbm(cfg)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values[0] == 0.0
    c = sample_fbm(cfg, stream=1)
    assert not np.array_equal(a.values, c.values)
    d = sample_fbm(FbmConfig(hurst=0.75, n=64, seed=100))
    assert not np.array_equal(a.values, d.values)


def test_cholesky_reconstruction():
    hurst, n = 0.75, 256
    L = _cholesky_factor(hurst, n)
    t = np.arange(1, n + 1) / n
    cov = fbm_covariance(t[:, None], t[None, :], hurst) + 1e-12 * np.eye(n)
    err = np.max(np.abs(L @ L.T - cov)) / np.max(np.abs(cov))
    assert err < 1e-10


def test_stationary_increments_monte_carlo():
    # Var(B_t - B_s) = |t-s|^{2H} within 3 MC standard errors at N = 10^4
    hurst, n, N = 0.75, 8, 10_000
    cfg = FbmConfig(hurst=hurst, n=n, seed=17)
    samples = np.array([sample_fbm(cfg, stream=i).values for i in range(N)])
    for i, j in ((0, 4), (2, 6), (1, 7)):
        inc = samples[:, j] - samples[:, i]
        target = (abs(j - i) / n) ** (2 * hurst)
        se = target * np.sqrt(2.0 / N)
        assert abs(inc.var(ddof=1) - target) <= 3 * se


def test_inner_product_of_ones_is_one():
    one = GridFunction(512, np.ones(513))
    assert fractional_inner_product(one, one, 0.75) == pytest.approx(1.0, abs=1e-4)
    # alpha_H cancels against the kernel mass for every admissible H
    one64 = GridFunction(64, np.ones(65))
    for hurst in (0.6, 0.9):
        assert fractional_inner_product(one64, one64, hurst) == pytest.approx(1.0, abs=1e-8)


def test_inner_product_symmetry_and_zero():
    n = 64
    phi = GridFunction.from_callable(lambda t: np.sin(2 * np.pi * t), n)
    psi = GridFunction.from_callable(lambda t: t**2, n)
    assert fractional_inner_product(phi, psi, 0.75) == fractional_inner_product(psi, phi, 0.75)
    zero = GridFunction(n, np.zeros(n + 1))
    assert fractional_inner_product(zero, phi, 0.75) == 0.0


def test_inner_product_positive_semidefinite(path_corpus):
    for f in path_corpus.values():
        assert fractional_inner_product(f, f, 0.75) >= -1e-10


def test_inner_product_rejects_low_hurst():
    one = GridFunction(16, np.ones(17))
    with pytest.raises(UnsupportedParameterError):
        fractional_inner_product(one, one, 0.5)
    with pytest.raises(UnsupportedParameterError):
        kernel_cell_masses(16, 0.4)


def test_green_kernel_row_norm_continuous_in_t():
    # <K(t,.), K(t,.)> is nonnegative and its node-to-node changes shrink with n
    def max_adjacent_change(n):
        vals = []
        for j in range(n + 1):
            row = GridFunction(n, green_kernel(j / n, np.linspace(0, 1, n + 1)))
            vals.append(fractional_inner_product(row, row, 0.75))
        vals = np.array(vals)
        assert np.all(vals >= 0)
        return np.max(np.abs(np.diff(vals)))

    assert max_adjacent_change(128) < max_adjacent_change(32)


def test_kernel_cell_masses_sum():
    # total mass equals the closed-form integral of |r-u|^{2H-2} over the square
    n, hurst = 128, 0.7
    masses = kernel_cell_masses(n, hurst)
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    total = masses[lag].sum()
    h2 = 2 * hurst
    assert total == pytest.approx(2.0 / ((h2 - 1) * h2), rel=1e-12)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_inner_product_equals_gathered_mass_oracle(n):
    paths = [oracle_path(kind, n) for kind in PATH_KINDS]
    for hurst in (0.55, 0.75, 0.9):
        for phi in paths:
            for psi in paths:
                expected = oracles.fractional_inner_product(phi, psi, hurst)
                assert fractional_inner_product(phi, psi, hurst) == expected
