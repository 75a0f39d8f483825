"""Reference implementations the fast paths are checked against.

These are the dense and iterative formulations the library replaced: the
(n+1) x n matrix of left-point Green weights, and the column-by-column
Picard solve of the derivative-kernel equation with its kappa-norm stopping
rule. They are slow (O(n^2) memory, O(n^3) time for a kernel) and exist only
for the tests. The iterated-sum gap of a two-parameter Young integral checks
the exchange of integration order.
"""

import numpy as np

from ellipticsde import DivergenceError, GridFunction, InvalidInputError, green_kernel, holder_norm
from ellipticsde.cutoff import cutoff_prime, norm_power_grad_kernel


def green_weights(x: GridFunction) -> np.ndarray:
    """Matrix W[i,j] = K(t_i, xi_j) (x_{j+1} - x_j) of left-point Young weights.

    Applying W to the vector of integrand values at left nodes evaluates
    int_0^1 K(t_i, xi) v_xi dx_xi simultaneously for every node t_i.
    """
    nodes = x.nodes
    return green_kernel(nodes[:, None], nodes[None, :-1]) * np.diff(x.values)[None, :]


def _iterate(apply_map, z0, n, cfg, what):
    """Fixed-point driver with kappa-norm stopping and ratio tracking."""
    z = z0
    diffs, ratios = [], []
    for it in range(1, cfg.max_iters + 1):
        z_new = apply_map(z)
        d = holder_norm(GridFunction(n, z_new - z), cfg.kappa).norm
        if diffs:
            ratios.append(d / diffs[-1])
        diffs.append(d)
        z = z_new
        if d < cfg.tol:
            return z, it, ratios
        if len(ratios) >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0:
            raise DivergenceError(f"{what}: successive differences stopped contracting", ratios)
    raise DivergenceError(f"{what}: no convergence within {cfg.max_iters} iterations", ratios)


def picard_kernel(z, x, sigma, spec, cfg) -> np.ndarray:
    """Derivative kernel by n+1 independent Picard solves of
    Phi_s = Psi_s + G W (sigma'(z) Phi_s), one per node s, each started at
    Phi_s = Psi_s. The forcing term re-evaluates the cutoff's derivative on
    the path x; its rank-one part pairs the norm power's grad kernel m_s with
    w_t = (W sigma(z))_t, the solution before the cutoff factor G."""
    nodes = x.nodes
    G = z.cutoff_value
    sig = np.asarray(sigma.fn(z.z.values), dtype=float)
    psi = G * sig[:, None] * green_kernel(nodes[None, :], nodes[:, None])
    weights = green_weights(x)
    phi_p = cutoff_prime(x, spec)
    if phi_p != 0.0:
        m = norm_power_grad_kernel(x, spec)
        psi = psi + phi_p * np.outer(m.values, weights @ sig[:-1])
    r = -np.asarray(sigma.d1(z.z.values), dtype=float)
    values = np.empty_like(psi)
    for i in range(x.n + 1):

        def apply_map(yv, w=psi[i]):
            return w - G * (weights @ (r[:-1] * yv[:-1]))

        values[i], _, _ = _iterate(apply_map, psi[i].copy(), x.n, cfg, f"column s={i / x.n}")
    return values


def fubini_check(h: np.ndarray, f: GridFunction, g: GridFunction, s: float, t: float) -> float:
    """Gap between the two iterated Young sums of a two-parameter integrand.

    h is the (n+1)x(n+1) array h[i,j] = h(r=i/n, u=j/n). Returns
    |int_s^t int_s^r h(r,u) dg_u df_r - int_s^t int_u^t h(r,u) df_r dg_u|,
    both sides evaluated as left-point iterated sums.
    """
    if f.n != g.n:
        raise InvalidInputError(f"mismatched grids: n={f.n} vs n={g.n}")
    h = np.asarray(h, dtype=float)
    if h.shape != (f.n + 1, f.n + 1):
        raise InvalidInputError(f"h must be ({f.n + 1},{f.n + 1}), got {h.shape}")
    i0, i1 = f.node_index(s), f.node_index(t)
    if i0 > i1:
        raise InvalidInputError(f"need s <= t, got s={s}, t={t}")
    df = np.diff(f.values)[i0:i1]
    dg = np.diff(g.values)[i0:i1]
    hh = h[i0:i1, i0:i1]
    idx = np.arange(i1 - i0)
    # dg-inner order: u-cells strictly below the r-cell's left node.
    lower = idx[:, None] > idx[None, :]
    first = float(np.sum(hh * dg[None, :] * df[:, None] * lower))
    # df-inner order: r-cells at or above the u-cell's left node.
    upper = idx[:, None] >= idx[None, :]
    second = float(np.sum(hh * dg[None, :] * df[:, None] * upper))
    return abs(first - second)
