"""Slice-by-slice discretization and solve of the main integral equation.

For each position x the transformation kernel g(xi) = A(x, xi) on
[0, mu_plus(x)] satisfies a second-kind integral equation.  After the
change of variables s = mu_plus(t) the collocation row at node s_i with
t_i = mu_plus^{-1}(s_i) reads

    g(t_i) [2 / (1 + sqrt(rho(t_i)))]                       (identity part)
  + sum_{k>=1} g(t_i) beta^k A(x, mu_plus(t_i) + 2 a k)     (transmitted images)
  + [t_i <= a]  sum_{k>=0} beta^{k+1} A(x, mu_minus(t_i) + 2 a k)
                                                            (reflected images)
  + integral_0^{mu_plus(x)} A(x, xi) F0(xi, t_i) d xi  =  -F(x, t_i),

with beta = (1 - alpha) / (1 + alpha) the interface reflection
coefficient.  Image targets beyond mu_plus(x) vanish (the kernel is
zero-extended past its support).  The reflected-image sum stays active
at t_i = a: there its leading term lands on the diagonal and
1 + beta = 2 / (1 + alpha) matches the right-limit identity
coefficient, so the discrete rows are continuous across the interface.

The quadrature term uses product integration: A is represented as
piecewise linear on the slice grid and integrated against the cosine
series of F0 in closed form.  Integrated by parts, the weights come from
one cos(lam s) table of the slice nodes, and so does F0 at the nodes, as
mu_plus(t_i) = s_i and mu_minus(t_i) = 2a - s_i (see
``KernelSeries.slice_kernels``).

Slice grids align an exact lattice with spacing a/n1 across [0, a] and
beyond, so every image target 2ak away lands exactly on a node, and a
fixed narrow node pair straddles the kernel's jump at |mu_minus(x)| so
the jump geometry is independent of grid refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baseline import NumericalError
from .density import DensityProfile
from .kernels import KernelSeries

__all__ = [
    "SliceSystem",
    "TriangularKernel",
    "assemble_slice",
    "slice_nodes",
    "solve_kernel",
    "solve_slice",
]

RESIDUAL_GATE = 1e-10


def slice_nodes(profile: DensityProfile, x: float, m: int) -> np.ndarray:
    """Quadrature/collocation nodes on [0, mu_plus(x)] for the slice at x.

    For x <= a the grid is uniform.  Past the interface the grid is the
    lattice j * (a/n1) spanning [0, a] and onward (so reflection targets
    2a - t and image targets t + 2ak land exactly on nodes), closed by
    the endpoint mu_plus(x), plus a fixed straddle pair at distance 1e-6
    around the kernel jump at |mu_minus(x)|; the pair displaces the lattice
    nodes within h1/4 of the jump, except 0, a and mu_plus(x).
    """
    a = profile.a
    top = float(profile.mu_plus(x))
    if x <= a or a >= top - 1e-12:
        return np.linspace(0.0, top, m + 1)
    h0 = top / m
    n1 = max(2, int(round(a / h0)))
    h1 = a / n1
    right = a + h1 * np.arange(1, int((top - a) / h1) + 2)
    xi = np.concatenate([np.arange(n1 + 1) * h1, right[right < top - 1e-9 * top], [top]])
    xstar = abs(float(profile._mu_minus(x)))
    delta = 1e-6
    if 2 * delta < xstar < top - 2 * delta and abs(xstar - a) > 2 * delta:
        keep = np.abs(xi - xstar) > 0.25 * h1
        keep[[0, n1, -1]] = True  # the grid ends and the interface node stay
        xi = np.concatenate([xi[keep], [xstar - delta, xstar + delta]])
    return np.sort(xi)


@dataclass
class SliceSystem:
    """Dense collocation system for one slice of the main equation."""

    x: float
    nodes: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    condition_estimate: Optional[float] = None
    residual: Optional[float] = None

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if self.matrix.shape != (n, n):
            raise ValueError("system matrix must be square of the node count")
        if not np.all(np.isfinite(self.rhs)):
            raise NumericalError("right-hand side contains non-finite values")


def assemble_slice(
    profile: DensityProfile,
    series: KernelSeries,
    x: float,
    m: int = 128,
) -> SliceSystem:
    """Build the dense system for the slice at x (x in (0, pi]).

    The row at t = 0 is a collocation row like the others: the identity
    A(x, 0) = 0 holds only for data whose zeroth spectral moments match
    the baseline's, which finite measured data never satisfies exactly.
    """
    if not (0.0 < x <= np.pi):
        raise ValueError("slice position must lie in (0, pi]")
    if m < 8:
        raise ValueError("at least 8 nodes per slice are required")
    a, alpha = profile.a, profile.alpha
    xi = slice_nodes(profile, x, m)
    n = len(xi)
    t = profile._mu_plus_inverse(xi)
    M, F = series.slice_kernels(x, xi)
    g_t = 2.0 / (1.0 + profile._srho(t))
    M[np.arange(n), np.arange(n)] += g_t
    beta = (1.0 - alpha) / (1.0 + alpha)
    top = xi[-1]

    # image ladders as one (node, k) table: transmitted images k >= 1 of
    # all nodes, then reflected images k >= 0 of the nodes with t <= a (at
    # t == a the k = 0 term lands on the diagonal and 1 + beta equals the
    # right-limit identity 2/(1+alpha), so rows stay continuous there)
    k = np.arange(int((top + 1e-12) // (2 * a)) + 2)
    p = np.hstack([profile._mu_plus(t)[:, None] + 2 * a * k[1:],
                   profile._mu_minus(t)[:, None] + 2 * a * k])
    c = np.hstack([g_t[:, None] * beta ** k[1:],
                   np.broadcast_to(beta ** (k + 1), (n, len(k)))])
    live = (p <= top + 1e-12) & (np.abs(c) >= 1e-15) & (p >= 0)
    live[:, len(k) - 1:] &= (t <= a + 1e-12)[:, None]
    # linear-interpolation stamps, zero-extended beyond the kernel support
    p, c = np.minimum(p[live], top), c[live]
    j = np.clip(np.searchsorted(xi, p) - 1, 0, n - 2)
    th = (p - xi[j]) / (xi[j + 1] - xi[j])
    rows, cols = np.nonzero(live)[0].repeat(2), np.column_stack([j, j + 1]).ravel()
    np.add.at(M, (rows, cols), np.column_stack([c * (1.0 - th), c * th]).ravel())
    return SliceSystem(x=x, nodes=xi, matrix=M, rhs=-F)


def solve_slice(
    system: SliceSystem,
    *,
    condition_cap: Optional[float] = None,
    estimate_condition: bool = True,
) -> np.ndarray:
    """Direct dense solve; records the collocation residual and a 1-norm
    condition estimate on the system.

    The estimate is ||M||_1 ||inv(M)||_1, as np.linalg.cond(M, 1), and its
    inverse also gives the solution; without it, one LU solve does.

    The relative residual must stay at solver precision (gate 1e-10);
    a condition estimate above ``condition_cap`` signals that the
    unique-solvability contract of the data is violated numerically.
    Either gate raises ``NumericalError``.
    """
    M, rhs = system.matrix, system.rhs
    if estimate_condition:
        Minv = np.linalg.inv(M)
        g = Minv @ rhs
        system.condition_estimate = float(np.linalg.norm(M, 1) * np.linalg.norm(Minv, 1))
    else:
        g = np.linalg.solve(M, rhs)
    res = float(np.abs(M @ g - rhs).max() / (1.0 + np.abs(rhs).max()))
    system.residual = res
    if res > RESIDUAL_GATE:
        raise NumericalError(
            f"slice x={system.x:.6f}: collocation residual {res:.3e} above "
            f"{RESIDUAL_GATE:.0e}"
        )
    if condition_cap is not None and system.condition_estimate is not None:
        if system.condition_estimate > condition_cap:
            raise NumericalError(
                f"slice x={system.x:.6f}: condition estimate "
                f"{system.condition_estimate:.3e} above cap {condition_cap:.3e}"
            )
    return g


@dataclass
class TriangularKernel:
    """Solved kernel end values per slice, with diagnostics.

    ``diagonal`` holds A(x, mu_plus(x)) (last node per slice) and ``a0``
    holds A(x, 0) (first node); both are the inputs of the potential
    recovery.
    """

    profile: DensityProfile
    x_grid: np.ndarray
    diagonal: np.ndarray
    a0: np.ndarray
    residuals: np.ndarray
    conditions: np.ndarray


def solve_kernel(
    profile: DensityProfile,
    series: KernelSeries,
    x_grid: np.ndarray,
    m: int = 128,
    condition_cap: Optional[float] = None,
) -> TriangularKernel:
    """Solve every slice of ``x_grid`` independently, each with a condition
    estimate.

    x = 0 is a degenerate (empty) slice: its kernel is identically zero
    and its entries stay zero without a solve.  Any slice failure is
    re-raised with the slice position attached by the solver itself.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    n_slices = len(x_grid)
    diag = np.zeros(n_slices)
    a0 = np.zeros(n_slices)
    res = np.zeros(n_slices)
    cond = np.zeros(n_slices)
    for i, x in enumerate(x_grid):
        if x == 0.0:
            continue
        system = assemble_slice(profile, series, x, m)
        g = solve_slice(system, condition_cap=condition_cap)
        diag[i] = g[-1]
        a0[i] = g[0]
        res[i] = system.residual
        cond[i] = system.condition_estimate
    return TriangularKernel(
        profile=profile,
        x_grid=x_grid,
        diagonal=diag,
        a0=a0,
        residuals=res,
        conditions=cond,
    )
