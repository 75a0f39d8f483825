"""Smooth localization of the driving path's roughness.

The solver multiplies the diffusion coefficient by a smooth [0,1]-valued
functional of the driving path: 1 while the path's norm power stays below a
level M, 0 once it exceeds M+1. Two norm flavors are supported, the full
Sobolev-type double integral over the unit square ("sobolev") and the
wedge-restricted Garsia functional ("garsia"). This module also computes the
per-point kernels representing the Frechet derivative of the cutoff, which
feed the derivative-kernel assembly.

All singular double integrals use the cell-midpoint rule over pairs of
distinct cells (lo, hi = lo + k), so the cells on the singular diagonal are
excluded by integer index. One sweep over the lags k = 1..n-1 evaluates the
norm power and the derivative kernels together in O(n) memory: the square
counts each pair twice (its two orientations), the wedge hi <= 4 lo + 1
counts it once. The sweep order is fixed, so results are reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grid import GridFunction

__all__ = [
    "CutoffSpec",
    "smooth_cutoff",
    "smooth_cutoff_prime",
    "sobolev_norm",
    "garsia_functional",
    "norm_power",
    "cutoff_value",
    "cutoff_prime",
    "sobolev_grad_kernel",
    "garsia_grad_kernel",
    "norm_power_grad_kernel",
]

FLAVORS = ("sobolev", "garsia")


@dataclass(frozen=True)
class CutoffSpec:
    """Parameters of the localization functional.

    Attributes:
        level: localization level M > 0; the cutoff transitions on (M, M+1).
        gamma: Holder exponent of the norm, in (0,1).
        p: integer moment parameter >= 1 (the norm integrand carries power 2p).
        epsilon: extra regularity margin of admissible paths; must exceed
            1/(2p) for the sobolev flavor to be finite on them, and 2/p for
            Malliavin-derivative work (checked by require_malliavin_regime).
        flavor: "sobolev" or "garsia".
    """

    level: float
    gamma: float
    p: int
    epsilon: float
    flavor: str = "sobolev"

    def __post_init__(self):
        if self.level <= 0:
            raise InvalidInputError(f"level must be positive, got {self.level}")
        if not 0.0 < self.gamma < 1.0:
            raise InvalidInputError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.p < 1 or int(self.p) != self.p:
            raise InvalidInputError(f"p must be an integer >= 1, got {self.p}")
        if self.epsilon <= 0:
            raise InvalidInputError(f"epsilon must be positive, got {self.epsilon}")
        if self.flavor not in FLAVORS:
            raise InvalidInputError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")
        if self.flavor == "sobolev" and self.epsilon <= 1.0 / (2 * self.p):
            raise InvalidInputError(
                f"sobolev flavor needs epsilon > 1/(2p) = {1.0 / (2 * self.p)}, "
                f"got epsilon={self.epsilon}"
            )

    def require_malliavin_regime(self):
        """Raise unless epsilon > 2/p, the regime the derivative theory needs."""
        if self.epsilon <= 2.0 / self.p:
            raise InvalidInputError(
                f"Malliavin features need epsilon > 2/p = {2.0 / self.p}, "
                f"got epsilon={self.epsilon} (raise p or epsilon)"
            )


def _bump(u):
    """exp(-1/u) for u > 0, 0 otherwise; the classic partition-of-unity brick."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _bump_prime(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos]) / u[pos] ** 2
    return out


def smooth_cutoff(r, level: float):
    """C-infinity cutoff: 1 for r <= level, 0 for r >= level+1.

    On the transition band the value is b(level+1-r) / (b(level+1-r) + b(r-level))
    with b(u) = exp(-1/u) for u > 0, which is symmetric about the midpoint
    (value exactly 1/2 at r = level + 1/2).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidInputError("cutoff argument must be nonnegative")
    a = r - level
    hi = _bump(1.0 - a)
    lo = _bump(a)
    with np.errstate(invalid="ignore"):
        out = np.where(a <= 0, 1.0, np.where(a >= 1, 0.0, hi / np.where(a > 0, hi + lo, 1.0)))
    return float(out) if out.ndim == 0 else out


def smooth_cutoff_prime(r, level: float):
    """First derivative of :func:`smooth_cutoff`; zero outside (level, level+1)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidInputError("cutoff argument must be nonnegative")
    a = r - level
    inside = (a > 0) & (a < 1)
    out = np.zeros_like(a)
    if np.any(inside):
        ai = a[inside]
        hi, lo = _bump(1.0 - ai), _bump(ai)
        dhi, dlo = _bump_prime(1.0 - ai), _bump_prime(ai)
        out[inside] = -(dhi * lo + hi * dlo) / (hi + lo) ** 2
    return float(out) if out.ndim == 0 else out


def _midpoints(f: GridFunction) -> np.ndarray:
    """Cell-midpoint values of the piecewise-linear grid model."""
    return 0.5 * (f.values[:-1] + f.values[1:])


def _pair_sums(x: GridFunction, gamma: float, p: int, flavor: str):
    """The flavor's cell-pair sums (U, S), from one sweep over lags k = 1..n-1.

    With fm the cell midpoints and w(k) = (k/n)^{-(2p*gamma+2)} / n^2,
    U = sum mult w(k) (fm[hi] - fm[lo])^{2p} is the norm power, and the node
    values S_j = sum mult 2p w(k) (fm[hi] - fm[lo])^{2p-1} run over the
    pairs with lo < j <= hi (S_0 = S_n = 0: no pair straddles the ends).
    A flavor is its first lower cell and its pair multiplicity mult: the
    symmetric square starts every lag at lo = 0 and counts each pair twice;
    the wedge c_hi < 4 c_lo, i.e. hi <= 4 lo + 1, starts at lo = ceil((k-1)/3)
    and counts each pair once.
    """
    n = x.n
    fm = _midpoints(x)
    mult = 2.0 if flavor == "sobolev" else 1.0
    total = 0.0
    jumps = np.zeros(n + 1)  # difference array of S
    for k in range(1, n):
        lo0 = 0 if flavor == "sobolev" else (k + 1) // 3
        if lo0 >= n - k:
            break
        w = mult * (k / n) ** -(2 * p * gamma + 2) / n**2
        d = fm[lo0 + k :] - fm[lo0 : n - k]
        odd, sq = d.copy(), d * d  # d^{2p-1} by products: pow() is slow on d < 0
        for _ in range(p - 1):
            odd *= sq
        total += w * float(odd @ d)
        odd *= 2 * p * w
        jumps[lo0 + 1 : n - k + 1] += odd
        jumps[lo0 + k + 1 :] -= odd
    S = np.cumsum(jumps)
    S[0] = S[n] = 0.0
    return total, S


def sobolev_norm(f: GridFunction, gamma: float, p: int) -> float:
    """Discrete Sobolev-Holder norm: 2p-th root of the double integral of
    (f(zeta)-f(eta))^{2p} / |zeta-eta|^{2p*gamma+2} over the unit square,
    by the midpoint rule over pairs of distinct cells.
    """
    return _pair_sums(f, gamma, p, "sobolev")[0] ** (1.0 / (2 * p))


def garsia_functional(f: GridFunction, gamma: float, p: int) -> float:
    """Wedge-restricted variant of :func:`sobolev_norm`:
    ( int_0^1 dv int_v^{4v^1} |f_u - f_v|^{2p} / |v-u|^{2p*gamma+2} du )^{1/2p}.
    """
    return _pair_sums(f, gamma, p, "garsia")[0] ** (1.0 / (2 * p))


def norm_power(x: GridFunction, spec: CutoffSpec) -> float:
    """The cutoff's argument: the flavor norm raised to the power 2p."""
    return _pair_sums(x, spec.gamma, spec.p, spec.flavor)[0]


def cutoff_value(x: GridFunction, spec: CutoffSpec) -> float:
    """Localization factor in [0,1] applied to the diffusion coefficient."""
    return float(smooth_cutoff(norm_power(x, spec), spec.level))


def cutoff_prime(x: GridFunction, spec: CutoffSpec) -> float:
    """Derivative of the cutoff profile evaluated at the path's norm power."""
    return float(smooth_cutoff_prime(norm_power(x, spec), spec.level))


def sobolev_grad_kernel(x: GridFunction, gamma: float, p: int) -> GridFunction:
    """Kernel mu with node values int_0^s int_s^1 rho(zeta,eta) dzeta deta,
    rho = 2p (x_zeta - x_eta)^{2p-1} / |zeta-eta|^{2p*gamma+2}.

    Midpoint rule over the cell pairs zeta < s <= eta; mu vanishes at s = 0, 1.
    """
    _, S = _pair_sums(x, gamma, p, "sobolev")
    return GridFunction(x.n, -0.5 * S)


def garsia_grad_kernel(x: GridFunction, gamma: float, p: int) -> GridFunction:
    """Wedge analogue of :func:`sobolev_grad_kernel`: node values
    int_{s/4}^{s} deta int_s^{4*eta^1} dzeta rho(zeta,eta), with the same
    rho = 2p (x_zeta - x_eta)^{2p-1} / |zeta-eta|^{2p*gamma+2}.
    """
    return GridFunction(x.n, _pair_sums(x, gamma, p, "garsia")[1])


def norm_power_grad_kernel(x: GridFunction, spec: CutoffSpec) -> GridFunction:
    """Exact gradient of the discrete norm power U = norm_power(x, spec) as a
    kernel m with DU[h] = sum_k m_k (h_{k+1} - h_k), and m_n = 0.

    A cell midpoint moves with both nodes of its cell, so each pair's end
    cells carry half weight: m_k = (S_k + S_{k+1}) / 2.
    """
    _, S = _pair_sums(x, spec.gamma, spec.p, spec.flavor)
    m = np.zeros(x.n + 1)
    m[:-1] = 0.5 * (S[:-1] + S[1:])
    return GridFunction(x.n, m)
