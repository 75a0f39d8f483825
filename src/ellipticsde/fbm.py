"""Exact fractional Brownian motion sampling and the |H|-space inner product.

Sampling is exact Gaussian: the covariance of the node vector (B_{1/n},...,B_1)
is factorized once per (hurst, n) by Cholesky (with a tiny diagonal jitter)
and cached; each sample multiplies the cached factor by standard normals
drawn from a counter-based Philox stream, so Monte Carlo runs are
reproducible and independent per sample index.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtri

from .errors import InvalidInputError, NumericalError, UnsupportedParameterError
from .grid import GridFunction

__all__ = [
    "FbmConfig",
    "fbm_covariance",
    "sample_fbm",
    "kernel_cell_masses",
    "fractional_inner_product",
]

_JITTER = 1e-12


@dataclass(frozen=True)
class FbmConfig:
    """Hurst parameter, grid resolution and base seed of a sampling run."""

    hurst: float
    n: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise InvalidInputError(f"hurst must lie in (0,1), got {self.hurst}")
        if self.n < 2:
            raise InvalidInputError(f"need n >= 2, got {self.n}")


def fbm_covariance(s, t, hurst: float):
    """Covariance (s^{2H} + t^{2H} - |t-s|^{2H}) / 2 of fBm; s,t in [0,1]."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(s > 1) or np.any(t < 0) or np.any(t > 1):
        raise InvalidInputError("covariance arguments must lie in [0,1]")
    h2 = 2.0 * hurst
    out = 0.5 * (s**h2 + t**h2 - np.abs(t - s) ** h2)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=2)
def _cholesky_factor(hurst: float, n: int) -> np.ndarray:
    """Cached lower-triangular factor of the node covariance (nodes 1/n..1)."""
    t = np.arange(1, n + 1) / n
    cov = fbm_covariance(t[:, None], t[None, :], hurst)
    cov = cov + _JITTER * np.eye(n)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"fBm covariance not positive definite after jitter (H={hurst}, n={n})"
        ) from exc
    L.flags.writeable = False
    return L


def _normal_stream(seed: int, stream: int, n: int) -> np.ndarray:
    """n standard normals from the Philox counter stream (seed, stream).

    Uniform draws are pushed through the inverse normal CDF, so the whole
    path from (seed, stream) to the sample is a fixed deterministic map.
    """
    key = np.array([np.uint64(seed % 2**64), np.uint64(stream % 2**64)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    u = rng.random(n)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return ndtri(u)


def sample_fbm(cfg: FbmConfig, stream: int = 0) -> GridFunction:
    """One exact fBm path on the grid; node 0 is exactly 0.

    Distinct ``stream`` values give independent samples under a common seed
    (used by Monte Carlo drivers); the default stream reproduces the single
    path attached to the config.
    """
    L = _cholesky_factor(cfg.hurst, cfg.n)
    z = _normal_stream(cfg.seed, stream, cfg.n)
    values = np.concatenate(([0.0], L @ z))
    return GridFunction(cfg.n, values)


def kernel_cell_masses(n: int, hurst: float) -> np.ndarray:
    """Exact integrals of |r-u|^{2H-2} over cell pairs, indexed by lag.

    Entry k is the integral over [0,h]x[kh,(k+1)h], computed from second
    differences of d -> d^{2H} / ((2H-1) 2H); these are exact for every lag,
    including the singular diagonal (integrable since 2H-2 > -1).
    """
    if hurst <= 0.5:
        raise UnsupportedParameterError(f"kernel masses need hurst > 1/2, got {hurst}")
    h2 = 2.0 * hurst
    d = np.arange(n + 1, dtype=float) / n
    F = d**h2 / ((h2 - 1.0) * h2)
    masses = np.empty(n)
    masses[0] = 2.0 * F[1]
    k = np.arange(1, n)
    masses[1:] = F[k + 1] - 2.0 * F[k] + F[k - 1]
    return masses


def fractional_inner_product(phi: GridFunction, psi: GridFunction, hurst: float) -> float:
    """Inner product H(2H-1) int int phi_r psi_u |r-u|^{2H-2} dr du, H > 1/2.

    Cell-midpoint values are paired with the exact kernel cell masses of
    :func:`kernel_cell_masses`, which keeps constant functions exact.
    """
    if hurst <= 0.5:
        raise UnsupportedParameterError(f"inner product needs hurst > 1/2, got {hurst}")
    if phi.n != psi.n:
        raise InvalidInputError(f"mismatched grids: n={phi.n} vs n={psi.n}")
    pm = 0.5 * (phi.values[:-1] + phi.values[1:])
    qm = 0.5 * (psi.values[:-1] + psi.values[1:])
    alpha = hurst * (2.0 * hurst - 1.0)
    return float(alpha * pm @ _cell_mass_matrix(phi.n, hurst) @ qm)


def _cell_mass_matrix(n: int, hurst: float) -> np.ndarray:
    """C-contiguous n x n matrix masses[|i - j|], row i a window of the
    mirrored masses; products with a strided view would round differently."""
    masses = kernel_cell_masses(n, hurst)
    mirrored = np.concatenate((masses[:0:-1], masses))
    return np.ascontiguousarray(sliding_window_view(mirrored, n)[::-1])
