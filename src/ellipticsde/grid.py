"""Uniform-grid representation of paths on [0,1] and discrete Holder machinery.

Every path, solution and kernel column in this library is a real function
sampled at the n+1 nodes i/n of a uniform grid. Values are frozen after
construction, so instances are safe to share between threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError

__all__ = ["GridFunction", "HolderReport", "holder_norm", "trapezoid"]

_NODE_TOL = 1e-9
_LAG_BLOCK = 256  # lags per block of the Holder sweep


def _node_index(n: int, t: float) -> int:
    """Index of the node of the n-grid equal to t; raises if t is not a node."""
    i = int(round(t * n)) if math.isfinite(t) else -1
    if not (0 <= i <= n) or abs(t - i / n) > _NODE_TOL:
        raise InvalidInputError(f"{t!r} is not a node of the n={n} grid")
    return i


@dataclass(frozen=True)
class GridFunction:
    """A real-valued function on [0,1] sampled at the nodes of a uniform grid.

    Attributes:
        n: number of subintervals (>= 2); the grid has n+1 nodes at i/n.
        values: array of n+1 finite node values, read-only after construction.
    """

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInputError(f"grid needs n >= 2, got n={self.n}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.n + 1,):
            raise InvalidInputError(
                f"expected {self.n + 1} node values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("node values must all be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def mesh(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @classmethod
    def from_callable(cls, fn, n: int) -> "GridFunction":
        """Sample a vectorized callable at the grid nodes."""
        t = np.linspace(0.0, 1.0, n + 1)
        return cls(n, np.asarray(fn(t), dtype=float))

    def node_index(self, t: float) -> int:
        """Index of the grid node equal to t; raises if t is not a node."""
        return _node_index(self.n, t)

    def __call__(self, t: float) -> float:
        return float(self.values[self.node_index(t)])

    def to_csv(self, path) -> None:
        """Write the two-column t,value table (header row included)."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("t,value\n")
            for t, v in zip(self.nodes, self.values):
                f.write(f"{float(t)!r},{float(v)!r}\n")

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        """Read a t,value table written by :meth:`to_csv`."""
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
        if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 3:
            raise InvalidInputError(f"{path}: expected a t,value table with >= 3 rows")
        n = data.shape[0] - 1
        t_expected = np.linspace(0.0, 1.0, n + 1)
        if not np.allclose(data[:, 0], t_expected, atol=_NODE_TOL):
            raise InvalidInputError(f"{path}: nodes are not the uniform grid on [0,1]")
        return cls(n, data[:, 1])


@dataclass(frozen=True)
class HolderReport:
    """Sup norm, Holder seminorm at exponent gamma, and their sum."""

    sup_norm: float
    seminorm: float
    gamma: float

    @property
    def norm(self) -> float:
        return self.sup_norm + self.seminorm


def holder_norm(f: GridFunction, gamma: float) -> HolderReport:
    """Discrete Holder norm of a grid function.

    The seminorm is the maximum of |f_j - f_i| / ((j-i)/n)^gamma over all
    node pairs i < j, evaluated exactly lag by lag in O(n) memory.

    Args:
        f: grid function.
        gamma: Holder exponent in (0, 1].

    Returns:
        HolderReport with sup_norm, seminorm and gamma.
    """
    if not 0.0 < gamma <= 1.0:
        raise InvalidInputError(f"gamma must lie in (0,1], got {gamma}")
    v, n = f.values, f.n
    sup = float(np.max(np.abs(v)))
    # windows[i, k] = v[i + k], reading v[n] past the end: a padded pair is the
    # pair (i, n) at a longer lag than its own, so its smaller weight never wins.
    windows = sliding_window_view(np.concatenate((v, np.full(n, v[-1]))), n + 1)
    lag_max = np.empty(n)
    for k0 in range(1, n + 1, _LAG_BLOCK):
        k1 = min(k0 + _LAG_BLOCK, n + 1)
        rows = n + 1 - k0  # later rows read only padding at these lags
        d = windows[:rows, k0:k1] - v[:rows, None]
        lag_max[k0 - 1 : k1 - 1] = np.abs(d, out=d).max(axis=0)
    # Rounding a*w is monotone in a for w > 0, so max_i(a_i) * w == max_i(a_i * w).
    weights = (np.arange(1, n + 1) / n) ** -gamma
    semi = float(np.max(lag_max * weights))
    return HolderReport(sup_norm=sup, seminorm=semi, gamma=gamma)


def _trapezoid_prefix(f: GridFunction) -> np.ndarray:
    """Cumulative trapezoid integral from 0 to each node."""
    cells = 0.5 * (f.values[:-1] + f.values[1:]) * f.mesh
    return np.concatenate(([0.0], np.cumsum(cells)))


def trapezoid(f: GridFunction, a: float, b: float) -> float:
    """Trapezoid-rule integral of f over [a,b]; a and b must be grid nodes.

    Built on a prefix sum of cell areas, so additivity over adjacent
    intervals holds exactly in floating point.
    """
    ia, ib = f.node_index(a), f.node_index(b)
    if ia > ib:
        raise InvalidInputError(f"need a <= b, got a={a}, b={b}")
    prefix = _trapezoid_prefix(f)
    return float(prefix[ib] - prefix[ia])
