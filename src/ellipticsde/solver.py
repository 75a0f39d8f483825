"""Solvers for the localized elliptic equation and its linearization.

The nonlinear equation is solved as the fixed point of the Picard map of its
compact Green-kernel form z_t = G * int_0^1 K(t,xi) sigma(z_xi) dx_xi, with
all Young integrals as left-point sums. Iterations stop when the discrete
kappa-Holder norm of successive differences drops below tolerance;
persistent ratio >= 1 or iteration exhaustion raises
:class:`DivergenceError` carrying the ratio history. Each application of the
map costs O(n): the Green sum splits into two prefix sums.

The linear equation of the derivative theory, y = w + G K(rate y), needs no
iteration. On interior nodes the left-point Green weights equal (nT)^{-1},
T = tridiag(-1, 2, -1), so the equation is one symmetric tridiagonal system,
solved by an LDL^T sweep for any number of right-hand sides at once.

The incremental formulation of the Picard map (suffix-accumulated, O(n) per
application) is exposed as :func:`picard_map` and agrees with the compact
form up to (1/2n) * int_0^t sigma_M(z) dx, which the equivalence tests
exercise.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .coefficients import Coefficient
from .cutoff import CutoffSpec, cutoff_value, norm_power, smooth_cutoff
from .errors import DivergenceError, InvalidInputError
from .grid import GridFunction, _trapezoid_prefix, holder_norm

__all__ = ["SolverConfig", "Solution", "picard_map", "solve_elliptic", "solve_linear"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Target Holder exponent, stopping tolerance and iteration limits.

    ball_radius is the invariant-ball radius of the contraction argument,
    used only to report whether the solution stayed inside the ball.
    """

    kappa: float = 0.55
    tol: float = 1e-10
    max_iters: int = 200
    ball_radius: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise InvalidInputError(f"kappa must lie in (0,1), got {self.kappa}")
        if not 0.0 < self.tol < np.inf:
            raise InvalidInputError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
        if not 1.0 < self.ball_radius < np.inf:
            raise InvalidInputError(f"ball_radius must be finite and > 1, got {self.ball_radius}")


@dataclass(frozen=True)
class Solution:
    """Solution path plus convergence diagnostics.

    norm_power is the cutoff's argument for the driving path and
    cutoff_value = smooth_cutoff(norm_power, level).
    """

    z: GridFunction
    iterations: int
    contraction_ratio: float
    residual: float
    cutoff_value: float
    norm_power: float


def _check_exponents(spec: CutoffSpec, cfg: SolverConfig):
    if spec.gamma + cfg.kappa <= 1.0:
        raise InvalidInputError(
            f"need gamma + kappa > 1 for Young integrability, got "
            f"{spec.gamma} + {cfg.kappa}"
        )


def picard_map(
    z: GridFunction, x: GridFunction, sigma: Coefficient, spec: CutoffSpec
) -> GridFunction:
    """One application of the incremental Picard map

        Gamma(z)_t = int_0^t du (int_u^1 sigma_M(x, z_xi) dx_xi)
                     - t * int_0^1 xi sigma_M(x, z_xi) dx_xi,

    with sigma_M(x, .) = cutoff_value(x) * sigma(.). The inner integrals are
    accumulated in one backward pass, so the whole map costs O(n).
    """
    if z.n != x.n:
        raise InvalidInputError(f"mismatched grids: n={z.n} vs n={x.n}")
    G = cutoff_value(x, spec)
    w = G * np.asarray(sigma.fn(z.values), dtype=float)
    dx = np.diff(x.values)
    cells = w[:-1] * dx
    # inner[i] = int_{u_i}^1 sigma_M dx, inner[n] = 0
    inner = np.concatenate((np.cumsum(cells[::-1])[::-1], [0.0]))
    outer = _trapezoid_prefix(GridFunction(z.n, inner))
    drift = float(np.sum(z.nodes[:-1] * cells))
    return GridFunction(z.n, outer - z.nodes * drift)


def _green_apply(x: GridFunction, f: np.ndarray) -> np.ndarray:
    """int_0^1 K(t_i, xi) f_xi dx_xi at every node t_i, from the n left-point
    values f_0..f_{n-1}, in O(n) time and memory.

    With c_j = f_j (x_{j+1} - x_j), K(t_i, t_j) = t_j (1 - t_i) for j <= i
    and t_i (1 - t_j) for j > i give
    u_i = (1 - t_i) sum_{j<=i} t_j c_j + t_i sum_{j>i} (1 - t_j) c_j.
    """
    t = x.nodes
    c = f * np.diff(x.values)
    lower = np.concatenate((np.cumsum(t[:-1] * c), [0.0]))
    tail = np.cumsum(((1.0 - t[:-1]) * c)[::-1])[::-1]  # tail[i] = sum_{j>=i}
    upper = np.concatenate((tail[1:], [0.0, 0.0]))
    return (1.0 - t) * lower + t * upper


def _green_linear_solve(w: np.ndarray, rate: np.ndarray, x: GridFunction, G: float) -> np.ndarray:
    """Solve y_t = w_t + G * int_0^1 K(t,xi) rate_xi y_xi dx_xi directly.

    w holds node values along axis 0, one column per right-hand side. On
    interior nodes the left-point Green weights are K(t_i, t_j) = (nT)^{-1}
    with T = tridiag(-1, 2, -1), and K vanishes on the boundary, so with
    D = diag(G rate_j (x_{j+1} - x_j)) the correction delta = y - w solves
    the tridiagonal system (nT - D) delta = D w on interior nodes, while the
    boundary rows keep y = w. The LDL^T sweep runs without pivoting, which is
    stable for symmetric positive definite systems. A pivot <= 0 raises
    :class:`DivergenceError`: the system is then not positive definite, so
    (nT)^{-1} D has an eigenvalue >= 1 and the Picard iteration of the
    equation would not contract either.
    """
    n = x.n
    w = np.asarray(w, dtype=float)
    cols = w.reshape(n + 1, -1)
    d = G * rate[1:-1] * np.diff(x.values)[1:]
    pivots = []
    pivot = np.inf  # the first interior row has no coupling above it
    for k, dk in enumerate(d.tolist()):
        pivot = 2.0 * n - dk - n * n / pivot
        if not pivot > 0.0:
            raise DivergenceError(
                f"linear Green equation is not positive definite: pivot {pivot:.3g} "
                f"at node {(k + 1) / n}"
            )
        pivots.append(pivot)
    pivots = np.asarray(pivots)
    # nT - D = L P L^T, L unit lower bidiagonal with subdiagonal -n / p_{k-1}.
    # Forward, g = P^{-1} L^{-1} (D w): g_k = (D w)_k / p_k + (n / p_k) g_{k-1}.
    # Backward, delta = L^{-T} g: delta_k = g_k + (n / p_k) delta_{k+1}.
    # Both sweeps run over the rows in place, vectorised over the columns.
    delta = np.empty_like(cols, order="C")
    delta[[0, -1]] = 0.0
    np.multiply((d / pivots)[:, None], cols[1:-1], out=delta[1:-1])
    rows = list(delta[1:-1])
    scale = (n / pivots).tolist()
    carry = np.empty(cols.shape[1])
    for k in range(1, n - 1):
        np.multiply(rows[k - 1], scale[k], out=carry)
        rows[k] += carry
    for k in range(n - 3, -1, -1):
        np.multiply(rows[k + 1], scale[k], out=carry)
        rows[k] += carry
    delta += cols
    return delta.reshape(w.shape)


def solve_elliptic(
    x: GridFunction, sigma: Coefficient, spec: CutoffSpec, cfg: SolverConfig
) -> Solution:
    """Solve z_t = G * int_0^1 K(t,xi) sigma(z_xi) dx_xi by Picard iteration.

    Starts from z == 0, stops when the kappa-norm of successive differences
    falls below cfg.tol; persistent ratio >= 1 or iteration exhaustion raises
    :class:`DivergenceError` carrying the ratio history. The residual
    reported is the sup-norm defect of the compact equation at the returned
    iterate. The cutoff's norm power is evaluated once and kept on the
    solution, for the derivative kernel and reports.
    """
    _check_exponents(spec, cfg)
    report = sigma.smallness_report(spec.level)
    if not report["holds"]:
        logger.info(
            "smallness condition sup|sigma^(j)| <= 1/(M+1) not met "
            "(margins %s); relying on observed contraction",
            report["margins"],
        )
    U = norm_power(x, spec)
    G = float(smooth_cutoff(U, spec.level))

    def apply_map(zv):
        return G * _green_apply(x, np.asarray(sigma.fn(zv[:-1]), dtype=float))

    zv = np.zeros(x.n + 1)
    diffs: list[float] = []
    ratios: list[float] = []
    for iterations in range(1, cfg.max_iters + 1):
        z_new = apply_map(zv)
        d = holder_norm(GridFunction(x.n, z_new - zv), cfg.kappa).norm
        if diffs:
            ratios.append(d / diffs[-1])
        diffs.append(d)
        zv = z_new
        if d < cfg.tol:
            break
        if len(ratios) >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0:
            raise DivergenceError(
                f"solve_elliptic: successive differences stopped contracting "
                f"(ratios {ratios[-2]:.3g}, {ratios[-1]:.3g})",
                ratios,
            )
    else:
        raise DivergenceError(
            f"solve_elliptic: no convergence within {cfg.max_iters} iterations "
            f"(last difference {diffs[-1]:.3g})",
            ratios,
        )
    residual = float(np.max(np.abs(zv - apply_map(zv))))
    return Solution(
        z=GridFunction(x.n, zv),
        iterations=iterations,
        contraction_ratio=max(ratios) if ratios else 0.0,
        residual=residual,
        cutoff_value=G,
        norm_power=U,
    )


def solve_linear(
    w: GridFunction,
    R: GridFunction,
    x: GridFunction,
    spec: CutoffSpec,
    cfg: SolverConfig,
) -> GridFunction:
    """Solve the linear equation y_t = w_t - G * int_0^1 K(t,xi) R_xi y_xi dx_xi.

    Solved directly as one tridiagonal system; raises :class:`DivergenceError`
    when that system is not positive definite. The kappa-norm of R should sit
    below 1/(level+1) for the contraction argument; the check is logged, not
    enforced. The output satisfies the stability bound
    |y|_kappa <= c(level) |w|_kappa.
    """
    if not (w.n == R.n == x.n):
        raise InvalidInputError("w, R and x must share one grid")
    _check_exponents(spec, cfg)
    r_norm = holder_norm(R, cfg.kappa).norm
    if r_norm >= 1.0 / (spec.level + 1.0):
        logger.info(
            "linear smallness |R|_kappa=%.3g >= 1/(level+1)=%.3g; relying on observed contraction",
            r_norm,
            1.0 / (spec.level + 1.0),
        )
    G = cutoff_value(x, spec)
    return GridFunction(x.n, _green_linear_solve(w.values, -R.values, x, G))
