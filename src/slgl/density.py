"""Piecewise-constant density profile and its travel-time coordinate maps.

The density is rho(x) = 1 on [0, a] and alpha^2 on (a, pi].  The maps

    mu_plus(x)  =  x sqrt(rho(x)) + a (1 - sqrt(rho(x)))
    mu_minus(x) = -x sqrt(rho(x)) + a (1 + sqrt(rho(x)))  =  2a - mu_plus(x)

are the travel-time coordinates of the transmitted and reflected wave
fronts; mu_plus is the support endpoint of the transformation kernel
A(x, .), and mu_minus locates the reflection generated by the density
jump.  Every map range-checks its argument.  Slices need the maps only
at their position x: a slice node xi = mu_plus(t) has mu_minus(t) =
2a - xi and lies on the left piece exactly when xi <= a (the grid's node
at a is a itself), so slice rows are built in xi and never map a node
back to t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DensityProfile"]

_RANGE_TOL = 1e-12


@dataclass(frozen=True)
class DensityProfile:
    """Single-jump density: position ``a`` in (0, pi), jump ``alpha`` > 0.

    ``alpha`` is the square root of the right-piece density.  The
    interface point x = a belongs to the left piece (rho(a) = 1).  By
    default the profile is *strict* (alpha != 1, a genuine jump); pass
    ``strict=False`` to allow the classical constant-density limit for
    cross-checks.
    """

    a: float
    alpha: float
    strict: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.a < np.pi):
            raise ValueError(f"discontinuity position a={self.a} outside (0, pi)")
        if not math.isfinite(self.alpha):
            raise ValueError(f"density jump alpha={self.alpha} must be finite")
        if not (self.alpha > 0.0):
            raise ValueError(f"density jump alpha={self.alpha} must be positive")
        if self.strict and self.alpha == 1.0:
            raise ValueError(
                "alpha=1 has no density jump; pass strict=False for the "
                "classical constant-density case"
            )

    # -- geometry -----------------------------------------------------

    @property
    def mu_span(self) -> float:
        """Support endpoint mu_plus(pi) of the kernel on the last slice."""
        return float(self.alpha * np.pi + self.a * (1.0 - self.alpha))

    @property
    def fold(self) -> float:
        """Position where mu_minus(x) = 0; reflected images change sign."""
        return self.a * (1.0 + 1.0 / self.alpha)

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size and (x.min() < -_RANGE_TOL or x.max() > np.pi + _RANGE_TOL):
            raise ValueError("position outside [0, pi]")
        return x

    def rho(self, x) -> np.ndarray:
        """Density value; the interface x = a counts as the left piece."""
        return self.srho(x) ** 2

    def srho(self, x) -> np.ndarray:
        """sqrt(rho(x)) with the same left-closed interface convention."""
        x = self._check_x(x)
        return np.where(x <= self.a, 1.0, self.alpha)

    def mu_plus(self, x) -> np.ndarray:
        x = self._check_x(x)
        return np.where(x <= self.a, x, self.alpha * x + self.a * (1.0 - self.alpha))

    def mu_minus(self, x) -> np.ndarray:
        """2a - mu_plus(x): the reflection of mu_plus(x) about a."""
        return 2.0 * self.a - self.mu_plus(x)

    def mu_plus_inverse(self, s) -> np.ndarray:
        """Inverse of mu_plus: identity on [0, a], affine beyond."""
        s = np.asarray(s, dtype=float)
        if s.size and (s.min() < -_RANGE_TOL or s.max() > self.mu_span + _RANGE_TOL):
            raise ValueError("coordinate outside [0, mu_plus(pi)]")
        return np.where(s <= self.a, s, (s - self.a * (1.0 - self.alpha)) / self.alpha)
