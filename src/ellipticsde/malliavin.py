"""Derivative of the solution with respect to the driving path.

The Frechet/Malliavin derivative is represented by a two-parameter kernel
Phi_s(t): pairing the s-slot against increments of a direction h gives the
directional derivative of the solution map, and for fBm drivers the row
s -> Phi_s(t) is the Malliavin derivative of z_t, whose |H|-norm feeds the
density experiment. The kernel solves one linear elliptic equation, with
the forcing term built from the Green kernel and the cutoff's derivative
kernel; on the grid that equation is a single symmetric tridiagonal system
whose n+1 right-hand sides (one per node s) are solved together.
"""

from dataclasses import dataclass, field

import numpy as np

from .coefficients import Coefficient
from .cutoff import CutoffSpec, norm_power_grad_kernel, smooth_cutoff_prime
from .errors import InvalidInputError
from .fbm import _cell_mass_matrix, fractional_inner_product
from .grid import GridFunction, _node_index
from .solver import Solution, SolverConfig, _green_apply, _green_linear_solve
from .young import green_kernel, kernel_integral

__all__ = [
    "DerivativeKernel",
    "malliavin_kernel",
    "directional_derivative",
    "derivative_norm",
    "StratoDecomposition",
    "stratonovich_decomposition",
    "sign_pattern",
]


@dataclass(frozen=True)
class DerivativeKernel:
    """Dense derivative kernel: values[i, j] = Phi_{s=i/n}(t=j/n)."""

    n: int
    values: np.ndarray = field(repr=False)
    flavor: str = "sobolev"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.n + 1, self.n + 1):
            raise InvalidInputError(
                f"kernel must be ({self.n + 1},{self.n + 1}), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("kernel entries must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def row(self, t: float) -> GridFunction:
        """The Malliavin-derivative profile s -> Phi_s(t) at a fixed node t."""
        return GridFunction(self.n, self.values[:, _node_index(self.n, t)])


def _forcing_matrix(
    z: Solution, x: GridFunction, sigma: Coefficient, spec: CutoffSpec
) -> np.ndarray:
    """Forcing term Psi[i, j] = G sigma(z_{s_i}) K(t_j, s_i) + phi' m_{s_i} w_{t_j}.

    phi' is the cutoff's derivative at the norm power stored on z, which
    must be the solution for the driving path x; m is the exact gradient
    kernel of the norm power and w = int K sigma(z) dx, so that z = G w.
    The rank-one term is the derivative of G along h times w, and needs no
    division by G. The array is laid out with t along rows in memory (Psi.T
    is C-contiguous), the layout the kernel solve sweeps over.
    """
    nodes = x.nodes
    sig = np.asarray(sigma.fn(z.z.values), dtype=float)
    psi_t = green_kernel(nodes[:, None], nodes[None, :])  # symmetric: K(t_j, s_i)
    psi_t *= (z.cutoff_value * sig)[None, :]
    phi_p = smooth_cutoff_prime(z.norm_power, spec.level)
    if phi_p != 0.0:
        w = _green_apply(x, sig[:-1])
        psi_t += phi_p * np.outer(w, norm_power_grad_kernel(x, spec).values)
    return psi_t.T


def malliavin_kernel(
    z: Solution,
    x: GridFunction,
    sigma: Coefficient,
    spec: CutoffSpec,
    cfg: SolverConfig,
) -> DerivativeKernel:
    """Assemble Phi by solving, for every node s, the linear equation

        Phi_s(t) = Psi_s(t) + G * int_0^1 K(t,xi) sigma'(z_xi) Phi_s(xi) dx_xi.

    All n+1 equations share one tridiagonal system, factored once and solved
    for every s together; a system that is not positive definite raises
    :class:`DivergenceError`. The solve is direct, so cfg's tolerance and
    iteration limit do not enter.
    """
    psi = _forcing_matrix(z, x, sigma, spec)
    rate = np.asarray(sigma.d1(z.z.values), dtype=float)
    values = _green_linear_solve(psi.T, rate, x, z.cutoff_value).T
    return DerivativeKernel(n=x.n, values=values, flavor=spec.flavor)


def directional_derivative(kernel: DerivativeKernel, h: GridFunction) -> GridFunction:
    """Directional derivative t -> int_0^1 Phi_s(t) dh_s of the solution map."""
    if h.n != kernel.n:
        raise InvalidInputError(f"mismatched grids: n={h.n} vs n={kernel.n}")
    dh = np.diff(h.values)
    return GridFunction(kernel.n, dh @ kernel.values[:-1, :])


def derivative_norm(kernel: DerivativeKernel, t: float, hurst: float) -> float:
    """|H|-norm of the Malliavin derivative of z_t (clamped at 0)."""
    row = kernel.row(t)
    sq = fractional_inner_product(row, row, hurst)
    return float(np.sqrt(max(sq, 0.0)))


@dataclass(frozen=True)
class StratoDecomposition:
    """Pathwise integral split into Skorohod part plus trace correction."""

    pathwise: float
    trace: float
    skorohod: float


def stratonovich_decomposition(
    z: Solution,
    kernel: DerivativeKernel,
    x: GridFunction,
    sigma: Coefficient,
    spec: CutoffSpec,
    t: float,
    hurst: float,
) -> StratoDecomposition:
    """Decompose the solution's stochastic integral at time t.

    pathwise is the Young value G * int K(t,xi) sigma(z_xi) dx_xi (equal to
    z_t up to the solver residual); trace integrates the Malliavin derivative
    of the integrand against |xi - s|^{2H-2}, scaled by the cutoff, with
    leading constant 1 (the normalized-kernel convention would multiply it by
    H(2H-1)); skorohod is defined as their difference.
    """
    if kernel.n != x.n:
        raise InvalidInputError(f"mismatched grids: n={kernel.n} vs n={x.n}")
    G = z.cutoff_value
    sig = GridFunction(x.n, np.asarray(sigma.fn(z.z.values), dtype=float))
    pathwise = G * kernel_integral(t, sig, x).value

    n = x.n
    centers = (np.arange(n) + 0.5) / n
    zm = 0.5 * (z.z.values[:-1] + z.z.values[1:])
    phim = 0.25 * (
        kernel.values[:-1, :-1]
        + kernel.values[1:, :-1]
        + kernel.values[:-1, 1:]
        + kernel.values[1:, 1:]
    )
    col = green_kernel(t, centers) * np.asarray(sigma.d1(zm), dtype=float)
    trace = G * float(np.sum(phim * col[None, :] * _cell_mass_matrix(n, hurst)))
    return StratoDecomposition(pathwise=pathwise, trace=trace, skorohod=pathwise - trace)


def sign_pattern(kernel: DerivativeKernel, t: float) -> dict:
    """Observed sign structure of s -> Phi_s(t), for reporting only.

    Returns the fractions of strictly negative/positive values and the
    longest interval of consecutive strictly negative node values.
    """
    row = kernel.row(t).values
    neg = row < 0
    best_len, best_start, run, start = 0, 0, 0, 0
    for i, flag in enumerate(neg):
        if flag:
            if run == 0:
                start = i
            run += 1
            if run > best_len:
                best_len, best_start = run, start
        else:
            run = 0
    n = kernel.n
    interval = (
        (best_start / n, (best_start + best_len - 1) / n) if best_len else None
    )
    return {
        "fraction_negative": float(np.mean(neg)),
        "fraction_positive": float(np.mean(row > 0)),
        "longest_negative_interval": interval,
    }
