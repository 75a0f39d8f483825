"""Diffusion coefficients with declared derivative bounds.

The contraction theory asks for a bounded C^2 coefficient whose sup norms are
small relative to the localization level. Instances declare those bounds
explicitly; construction probes the evaluators on a dense grid so a wrong
declaration fails fast instead of silently breaking the smallness report.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError

__all__ = ["Coefficient", "constant_coefficient", "tanh_coefficient", "parse_sigma"]

_PROBE_POINTS = 100_000
_PROBE_RANGE = 50.0


@dataclass(frozen=True)
class Coefficient:
    """A diffusion coefficient sigma with its first two derivatives.

    Attributes:
        fn, d1, d2: vectorized evaluators for sigma, sigma', sigma''.
        sup_bounds: declared sup norms of (sigma, sigma', sigma'').
        lower_bound: optional strict lower bound on |sigma| (nondegeneracy).
        label: short descriptor used in reports.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    sup_bounds: tuple[float, float, float]
    lower_bound: Optional[float] = None
    label: str = "sigma"

    def __post_init__(self):
        if len(self.sup_bounds) != 3 or any(b < 0 for b in self.sup_bounds):
            raise InvalidInputError("sup_bounds must be three nonnegative reals")
        y = np.linspace(-_PROBE_RANGE, _PROBE_RANGE, _PROBE_POINTS)
        for j, (ev, bound) in enumerate(zip((self.fn, self.d1, self.d2), self.sup_bounds)):
            sampled = float(np.max(np.abs(np.asarray(ev(y), dtype=float))))
            if sampled > bound * (1 + 1e-12) + 1e-15:
                raise InvalidInputError(
                    f"declared sup bound {bound} for derivative order {j} of "
                    f"{self.label!r} is exceeded by sampled value {sampled:.6g}"
                )
        if self.lower_bound is not None:
            low = float(np.min(np.abs(np.asarray(self.fn(y), dtype=float))))
            if low < self.lower_bound * (1 - 1e-12) - 1e-15:
                raise InvalidInputError(
                    f"declared lower bound {self.lower_bound} for {self.label!r} "
                    f"is violated by sampled value {low:.6g}"
                )

    def smallness_report(self, level: float, c1: float = 1.0) -> dict:
        """Check the sufficient condition sup|sigma^(j)| <= c1/(level+1), j=0,1,2.

        The condition is reported, never enforced: the solver runs regardless
        and the observed contraction is the operative check.
        """
        threshold = c1 / (level + 1.0)
        margins = [threshold - b for b in self.sup_bounds]
        return {
            "threshold": threshold,
            "sup_bounds": list(self.sup_bounds),
            "margins": margins,
            "holds": all(m >= 0 for m in margins),
        }


def constant_coefficient(c: float) -> Coefficient:
    """sigma == c; derivatives vanish, |sigma| is bounded below by |c|."""
    return Coefficient(
        fn=lambda y: np.full_like(np.asarray(y, dtype=float), c),
        d1=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        d2=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        sup_bounds=(abs(c), 0.0, 0.0),
        lower_bound=abs(c) if c != 0 else None,
        label=f"const:{c}",
    )


def tanh_coefficient(a0: float, a1: float) -> Coefficient:
    """sigma(y) = a0 + a1 tanh(y), smooth with closed-form bounds.

    sup|sigma| = |a0|+|a1|, sup|sigma'| = |a1|, sup|sigma''| = 4|a1|/(3 sqrt 3);
    nondegenerate with |sigma| >= |a0|-|a1| when |a0| > |a1|.
    """
    lower = abs(a0) - abs(a1) if abs(a0) > abs(a1) else None
    return Coefficient(
        fn=lambda y: a0 + a1 * np.tanh(y),
        d1=lambda y: a1 / np.cosh(y) ** 2,
        d2=lambda y: -2.0 * a1 * np.tanh(y) / np.cosh(y) ** 2,
        sup_bounds=(abs(a0) + abs(a1), abs(a1), 4.0 * abs(a1) / (3.0 * np.sqrt(3.0))),
        lower_bound=lower,
        label=f"tanh:{a0},{a1}",
    )


def parse_sigma(descriptor: str) -> Coefficient:
    """Build a coefficient from a descriptor like ``const:0.1`` or ``tanh:0.05,0.02``."""
    kind, _, args = descriptor.partition(":")
    try:
        if kind == "const":
            return constant_coefficient(float(args))
        if kind == "tanh":
            a0, a1 = (float(a) for a in args.split(","))
            return tanh_coefficient(a0, a1)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad sigma descriptor {descriptor!r}") from exc
    raise InvalidInputError(f"unknown sigma family {kind!r} in {descriptor!r}")
