"""Reference implementations the fast paths are checked against.

These are the dense and iterative formulations the library replaced: the
(n+1) x n matrix of left-point Green weights, the column-by-column Picard
solve of the derivative-kernel equation with its kappa-norm stopping rule,
and the n x n cell-pair arrays of the cutoff norms, their grad kernels and
the double-integral form of the cutoff's derivative. They are slow (O(n^2)
memory, O(n^3) time for a kernel) and exist only for the tests. The
iterated-sum gap of a two-parameter Young integral checks the exchange of
integration order.
"""

import numpy as np

from ellipticsde import (
    DivergenceError,
    GridFunction,
    InvalidInputError,
    green_kernel,
    holder_norm,
    young_integral,
)
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


def _midpoints(f: GridFunction) -> np.ndarray:
    return 0.5 * (f.values[:-1] + f.values[1:])


def _cell_centers(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _wedge(n: int) -> np.ndarray:
    """wedge[i, j]: the lower cell i and the upper cell j satisfy
    c_i < c_j < 4 c_i, i.e. i < j <= 4 i + 1, selected by integer index."""
    i, j = np.indices((n, n))
    return (j > i) & (j <= 4 * i + 1)


def sobolev_norm(f: GridFunction, gamma: float, p: int) -> float:
    """Dense midpoint double sum over all ordered pairs of distinct cells."""
    n = f.n
    fm = _midpoints(f)
    c = _cell_centers(n)
    diff = fm[:, None] - fm[None, :]
    dist = np.abs(c[:, None] - c[None, :])
    off = ~np.eye(n, dtype=bool)
    total = np.sum(diff[off] ** (2 * p) / dist[off] ** (2 * p * gamma + 2)) / n**2
    return float(total ** (1.0 / (2 * p)))


def garsia_functional(f: GridFunction, gamma: float, p: int) -> float:
    """Dense midpoint double sum over the wedge pairs of cells."""
    n = f.n
    fm = _midpoints(f)
    c = _cell_centers(n)
    wedge = _wedge(n)
    diff = fm[None, :] - fm[:, None]
    dist = c[None, :] - c[:, None]
    total = np.sum(diff[wedge] ** (2 * p) / dist[wedge] ** (2 * p * gamma + 2)) / n**2
    return float(total ** (1.0 / (2 * p)))


def rho_matrix(x: GridFunction, gamma: float, p: int) -> np.ndarray:
    """Midpoint samples of 2p (x_zeta - x_eta)^{2p-1} / |zeta-eta|^{2p*gamma+2}.

    Row index is the zeta cell, column index the eta cell; the diagonal is
    zeroed (it is always excluded).
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
    """Node values sum_{i < k <= j} rho[i, j] / n^2 by dense prefix sums."""
    n = x.n
    rho = rho_matrix(x, gamma, p)
    # suffix[i, k] = sum_{j >= k} rho[i, j]
    suffix = np.cumsum(rho[:, ::-1], axis=1)[:, ::-1]
    # prefix over zeta: sum_{i < k} suffix[i, k]
    prefix = np.cumsum(suffix, axis=0)
    mu = np.zeros(n + 1)
    for k in range(1, n):
        mu[k] = prefix[k - 1, k]
    return GridFunction(n, mu / n**2)


def garsia_grad_kernel(x: GridFunction, gamma: float, p: int) -> GridFunction:
    """Node values: rho summed over the wedge pairs (eta cell j < k, zeta cell
    k <= i <= 4j + 1), one node at a time."""
    n = x.n
    rho = rho_matrix(x, gamma, p)
    colsum = np.cumsum(rho, axis=0)  # colsum[i, j] = sum_{i' <= i} rho[i', j]
    mu = np.zeros(n + 1)
    for k in range(1, n + 1):
        js = np.arange(k)
        imax = np.minimum(4 * js + 1, n - 1)
        valid = imax >= k
        acc = float(np.sum(colsum[imax[valid], js[valid]] - colsum[k - 1, js[valid]]))
        mu[k] = acc / n**2
    return GridFunction(n, mu)


def cutoff_derivative_forms(x: GridFunction, h: GridFunction, spec):
    """Directional derivative of the cutoff along h, computed two ways.

    Returns (double_form, young_form):
      * double_form evaluates phi' times the double sum of
        rho * (h_zeta - h_eta) over the flavor's pairs of cells directly;
      * young_form is phi' int m dh, with m = norm_power_grad_kernel.
    """
    if x.n != h.n:
        raise InvalidInputError(f"mismatched grids: n={x.n} vs n={h.n}")
    n = x.n
    phi_p = cutoff_prime(x, spec)
    hm = _midpoints(h)
    rho = rho_matrix(x, spec.gamma, spec.p)
    hdiff = hm[:, None] - hm[None, :]
    if spec.flavor == "garsia":
        wedge = _wedge(n).T  # rows: zeta (upper) cell, columns: eta (lower) cell
        rho, hdiff = rho[wedge], hdiff[wedge]
    double = phi_p * float(np.sum(rho * hdiff)) / n**2
    young = phi_p * young_integral(norm_power_grad_kernel(x, spec), h, 0.0, 1.0).value
    return double, young
