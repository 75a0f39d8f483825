"""Smooth localization of the driving path's roughness.

The solver multiplies the diffusion coefficient by a smooth [0,1]-valued
functional of the driving path: 1 while the path's norm power stays below a
level M, 0 once it exceeds M+1. Two norm flavors are supported, the full
Sobolev-type double integral over the unit square ("sobolev") and the
wedge-restricted Garsia functional ("garsia"). This module also computes the
per-point kernels representing the Frechet derivative of the cutoff, which
feed the derivative-kernel assembly.

All singular double integrals use the cell-midpoint rule with cells touching
the singular diagonal/corner excluded at width one grid cell; numpy's
pairwise summation keeps the reduction order fixed and reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grid import GridFunction
from .young import young_integral

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
    "cutoff_derivative_forms",
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


def _cell_centers(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def sobolev_norm(f: GridFunction, gamma: float, p: int) -> float:
    """Discrete Sobolev-Holder norm: 2p-th root of the double integral of
    (f(zeta)-f(eta))^{2p} / |zeta-eta|^{2p*gamma+2} over the unit square.

    Cell-midpoint rule; cells closer to the diagonal than one grid cell
    (only zeta == eta cells, given midpoint spacing) are excluded.
    """
    n = f.n
    fm = _midpoints(f)
    c = _cell_centers(n)
    diff = fm[:, None] - fm[None, :]
    dist = np.abs(c[:, None] - c[None, :])
    off = dist >= 1.0 / n
    total = np.sum(diff[off] ** (2 * p) / dist[off] ** (2 * p * gamma + 2)) / n**2
    return float(total ** (1.0 / (2 * p)))


def garsia_functional(f: GridFunction, gamma: float, p: int) -> float:
    """Wedge-restricted variant of :func:`sobolev_norm`:
    ( int_0^1 dv int_v^{4v^1} |f_u - f_v|^{2p} / |v-u|^{2p*gamma+2} du )^{1/2p}.
    """
    n = f.n
    fm = _midpoints(f)
    c = _cell_centers(n)
    u = c[None, :]
    v = c[:, None]
    wedge = (u > v) & (u < np.minimum(4 * v, 1.0)) & (u - v >= 1.0 / n)
    diff = fm[None, :] - fm[:, None]
    dist = u - v
    total = np.sum(diff[wedge] ** (2 * p) / dist[wedge] ** (2 * p * gamma + 2)) / n**2
    return float(total ** (1.0 / (2 * p)))


def norm_power(x: GridFunction, spec: CutoffSpec) -> float:
    """The cutoff's argument: the flavor norm raised to the power 2p."""
    if spec.flavor == "sobolev":
        return sobolev_norm(x, spec.gamma, spec.p) ** (2 * spec.p)
    return garsia_functional(x, spec.gamma, spec.p) ** (2 * spec.p)


def cutoff_value(x: GridFunction, spec: CutoffSpec) -> float:
    """Localization factor in [0,1] applied to the diffusion coefficient."""
    return float(smooth_cutoff(norm_power(x, spec), spec.level))


def cutoff_prime(x: GridFunction, spec: CutoffSpec) -> float:
    """Derivative of the cutoff profile evaluated at the path's norm power."""
    return float(smooth_cutoff_prime(norm_power(x, spec), spec.level))


def _rho_matrix(x: GridFunction, gamma: float, p: int) -> np.ndarray:
    """Midpoint samples of 2p (x_zeta - x_eta)^{2p-1} / |zeta-eta|^{2p*gamma+2}.

    Row index is the zeta cell, column index the eta cell; the diagonal is
    zeroed (it is always excluded by the band rule).
    """
    n = x.n
    xm = _midpoints(x)
    c = _cell_centers(n)
    diff = xm[:, None] - xm[None, :]
    dist = np.abs(c[:, None] - c[None, :])
    np.fill_diagonal(dist, 1.0)  # avoid 0^negative; diagonal re-zeroed below
    rho = 2.0 * p * diff ** (2 * p - 1) / dist ** (2 * p * gamma + 2)
    np.fill_diagonal(rho, 0.0)
    return rho


def sobolev_grad_kernel(x: GridFunction, gamma: float, p: int) -> GridFunction:
    """Kernel mu with node values int_0^s int_s^1 rho(zeta,eta) dzeta deta,
    rho = 2p (x_zeta - x_eta)^{2p-1} / |zeta-eta|^{2p*gamma+2}.

    Pairing mu against increments of a direction h recovers the derivative
    of the sobolev norm power (see :func:`cutoff_derivative_forms`). Cells
    within width 1/n of the singular corner at (s,s) are excluded; with
    midpoint cells that is the same strict |zeta-eta| < 1/n band rule used
    everywhere (the nearest admissible pair sits at separation exactly 1/n).
    """
    n = x.n
    rho = _rho_matrix(x, gamma, p)
    # suffix[i, k] = sum_{j >= k} rho[i, j]
    suffix = np.cumsum(rho[:, ::-1], axis=1)[:, ::-1]
    # prefix over zeta: sum_{i < k} suffix[i, k]
    prefix = np.cumsum(suffix, axis=0)
    mu = np.zeros(n + 1)
    for k in range(1, n):
        mu[k] = prefix[k - 1, k]
    return GridFunction(n, mu / n**2)


def garsia_grad_kernel(x: GridFunction, gamma: float, p: int) -> GridFunction:
    """Wedge analogue of :func:`sobolev_grad_kernel`: node values
    int_{s/4}^{s} deta int_s^{4*eta^1} dzeta rho(zeta,eta), with the same
    rho = 2p (x_zeta - x_eta)^{2p-1} / |zeta-eta|^{2p*gamma+2}.

    Pairing the kernel against dh reproduces the derivative of the garsia
    norm power (see :func:`norm_power_grad_kernel`).
    """
    n = x.n
    rho = _rho_matrix(x, gamma, p)
    colsum = np.cumsum(rho, axis=0)  # colsum[i, j] = sum_{i' <= i} rho[i', j]
    c = _cell_centers(n)
    mu = np.zeros(n + 1)
    for k in range(1, n + 1):
        s = k / n
        j0 = int(np.searchsorted(c, s / 4, side="right"))
        js = np.arange(j0, k)  # eta cells with s/4 < c[j] < s
        if js.size == 0:
            continue
        # zeta cells i with s < c[i] < min(4*c[j], 1): k <= i <= min(4j+1, n-1)
        imax = np.minimum(4 * js + 1, n - 1)
        valid = imax >= k
        acc = float(np.sum(colsum[imax[valid], js[valid]] - colsum[k - 1, js[valid]]))
        mu[k] = acc / n**2
    return GridFunction(n, mu)


def norm_power_grad_kernel(x: GridFunction, spec: CutoffSpec) -> GridFunction:
    """The flavor's grad kernel times its pairing constant: a kernel m with
    DU[h] ~= int_0^1 m dh for the norm power U = norm_power(x, spec).

    The pairing constants are -2 for sobolev (the symmetric square counts each
    pair twice, and mu pairs it with the opposite orientation) and +1 for
    garsia; criterion 05 checks them against the double-integral form.
    """
    if spec.flavor == "sobolev":
        mu = sobolev_grad_kernel(x, spec.gamma, spec.p)
        return GridFunction(x.n, -2.0 * mu.values)
    return garsia_grad_kernel(x, spec.gamma, spec.p)


def cutoff_derivative_forms(x: GridFunction, h: GridFunction, spec: CutoffSpec):
    """Directional derivative of the cutoff along h, computed two ways.

    Returns (double_form, young_form):
      * double_form evaluates phi' times the double integral of
        rho * (h_zeta - h_eta) over the flavor's domain directly;
      * young_form is phi' int m dh, with m = :func:`norm_power_grad_kernel`.
    The two agree up to quadrature error; their gap is a consistency oracle.
    """
    if x.n != h.n:
        raise InvalidInputError(f"mismatched grids: n={x.n} vs n={h.n}")
    n = x.n
    phi_p = cutoff_prime(x, spec)
    hm = _midpoints(h)
    rho = _rho_matrix(x, spec.gamma, spec.p)
    hdiff = hm[:, None] - hm[None, :]
    if spec.flavor == "garsia":
        c = _cell_centers(n)
        u = c[:, None]  # zeta (upper) cell
        v = c[None, :]  # eta (lower) cell
        wedge = (u > v) & (u < np.minimum(4 * v, 1.0))
        rho, hdiff = rho[wedge], hdiff[wedge]
    double = phi_p * float(np.sum(rho * hdiff)) / n**2
    young = phi_p * young_integral(norm_power_grad_kernel(x, spec), h, 0.0, 1.0).value
    return double, young
