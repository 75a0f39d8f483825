"""Young integrals against Holder paths and the elliptic Green kernel.

Integrals of the form int g df are left-point Riemann sums over grid cells,
which is the discretization under which the pathwise theory is stated (the
integral exists as the limit of such sums when the Holder exponents of g and
f sum above 1). Prefix sums make additivity over adjacent intervals exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grid import GridFunction

__all__ = ["YoungResult", "young_integral", "green_kernel", "kernel_integral"]


@dataclass(frozen=True)
class YoungResult:
    """Value of a Young integral plus the context used by sharp bounds."""

    value: float
    mesh: float
    integrand_start: float


def _check_same_grid(g: GridFunction, f: GridFunction):
    if g.n != f.n:
        raise InvalidInputError(f"mismatched grids: n={g.n} vs n={f.n}")


def _young_prefix(g_values: np.ndarray, f_values: np.ndarray) -> np.ndarray:
    """Prefix sums of the left-point cell contributions g_i (f_{i+1}-f_i)."""
    cells = g_values[:-1] * np.diff(f_values)
    return np.concatenate(([0.0], np.cumsum(cells)))


def young_integral(g: GridFunction, f: GridFunction, s: float, t: float) -> YoungResult:
    """Left-point Riemann sum for int_s^t g df over grid cells.

    Args:
        g: integrand sampled on the grid.
        f: integrator sampled on the same grid.
        s, t: integration limits, grid nodes with s <= t.
    """
    _check_same_grid(g, f)
    i, j = f.node_index(s), f.node_index(t)
    if i > j:
        raise InvalidInputError(f"need s <= t, got s={s}, t={t}")
    prefix = _young_prefix(g.values, f.values)
    return YoungResult(
        value=float(prefix[j] - prefix[i]),
        mesh=f.mesh,
        integrand_start=float(g.values[i]),
    )


def green_kernel(t, xi):
    """Green kernel K(t,xi) = min(t,xi) - t*xi of the Dirichlet problem on [0,1].

    Accepts scalars or arrays; arguments must lie in [0,1].
    """
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.any(t < 0) or np.any(t > 1) or np.any(xi < 0) or np.any(xi > 1):
        raise InvalidInputError("green_kernel arguments must lie in [0,1]")
    out = np.minimum(t, xi) - t * xi
    return float(out) if out.ndim == 0 else out


def kernel_integral(t: float, w: GridFunction, x: GridFunction) -> YoungResult:
    """Young integral int_0^1 K(t,xi) w_xi dx_xi with the Green kernel weight."""
    _check_same_grid(w, x)
    x.node_index(t)  # validates t
    weighted = GridFunction(w.n, green_kernel(t, w.nodes) * w.values)
    return young_integral(weighted, x, 0.0, 1.0)

