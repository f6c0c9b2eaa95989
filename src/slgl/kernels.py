"""Data-driven kernels of the main integral equation.

The input kernel is the paired difference series

    F0(xi, t) = sum_n [ phi0(t, lam_n) cos(lam_n xi) / alpha_n
                      - phi0(t, lam_n^0) cos(lam_n^0 xi) / alpha_n^0 ],

combined into

    F(x, t) = (1/2)(1 + 1/sqrt(rho(x))) F0(mu_plus(x), t)
            + (1/2)(1 - 1/sqrt(rho(x))) F0(mu_minus(x), t),

where F0 is even in its first argument (every term is a cosine), which
makes the mu_minus < 0 evaluations exact.  The combination is phi0 at x,
so F(x, t) = sum_n [phi0(x, lam_n) phi0(t, lam_n) / alpha_n - (the same
at lam_n^0)], and its position terms are ``phi0(x, lam)`` itself.  The
series is always summed pairwise: only the differences decay, never the
halves separately.

``KernelSeries`` evaluates the series exactly where needed, including a
product-integration form (integrals of F0 against hat functions) that
integrates the cosine terms in closed form, by parts from one cos(lam xi)
table (Atkinson 1997, sec. 4.2).  The tables are built in the slice
coordinate xi alone: at the node t with mu_plus(t) = xi, mu_minus(t) =
2a - xi, and t lies on the left piece exactly when xi <= a.  So
``tables`` builds both tables of a grid, F0's terms at its nodes and
its hat weights, and one lattice-wide pair of them serves every slice of
a bordered pass, which adds only its few off-lattice nodes.
``complete_tail`` extends measured data by fitting the almost-periodic
asymptotic laws of the eigenvalue shifts and norming ratios.
"""

from __future__ import annotations

import warnings

import numpy as np

from .baseline import SpectralData, phi0
from .density import DensityProfile

__all__ = [
    "KernelSeries",
    "complete_tail",
    "hat_cos_weights",
]


def hat_cos_weights(xi: np.ndarray, lams) -> np.ndarray:
    """W[n, j] = closed-form integral of hat_j(s) cos(lam_n s) ds.

    hat_j is the piecewise-linear nodal basis on the (possibly nonuniform)
    grid ``xi``; the row W[n] therefore integrates any piecewise-linear
    function against cos(lam_n .) exactly.  The midpoint rule guards the
    small-argument limit per interval.
    """
    lams = np.asarray(lams, dtype=float)
    return _hat_weights(xi, lams, np.cos(np.outer(lams, xi)))


def _hat_weights(xi, lams, C, starts=None) -> np.ndarray:
    """``hat_cos_weights`` from the table C = cos(lam xi), which it overwrites:
    by parts, W[:, j] = (D[:, j-1] - D[:, j]) / lam^2 for the slope D of C
    per interval, plus -sin(lam xi_0)/lam and sin(lam xi_last)/lam at the
    ends.  An interval with |lam h| < 1e-6 (all, if |lam| < 1e-12) takes the
    midpoint rule: its slope is dropped, its uncancelled sin terms added.

    With ``starts``, the first index of each of several grids laid end to
    end in ``xi`` (the first at 0), each grid is weighted on its own."""
    h = np.diff(xi)
    first = np.zeros(1, dtype=int) if starts is None else np.asarray(starts)
    last = np.append(first[1:] - 1, len(xi) - 1)
    h[first[1:] - 1] = np.inf  # no interval joins two grids: its slope is 0
    L = np.where(np.abs(lams) < 1e-12, 1.0, lams)
    D = np.diff(C, axis=1)
    D /= h
    D /= (L * L)[:, None]
    near = np.flatnonzero(np.abs(lams) * h.min() < 1e-6)  # rows with such intervals
    rows, cols = np.nonzero(np.abs(np.outer(lams[near], h)) < 1e-6)
    rows = near[rows]
    D[rows, cols] = 0.0
    W = C
    np.subtract(D[:, :-1], D[:, 1:], out=W[:, 1:-1])
    W[:, 0] = -D[:, 0]
    W[:, -1] = D[:, -1]
    W[:, first] -= np.sin(np.outer(lams, xi[first])) / L[:, None]
    W[:, last] += np.sin(np.outer(lams, xi[last])) / L[:, None]
    # the midpoint rule takes the true lam, not the division-sanitized L,
    # or the lam = 0 row would evaluate cos(mid)
    lo, hi, lr = xi[cols], xi[cols + 1], lams[rows]
    half = 0.5 * h[cols] * np.cos(lr * (0.5 * (lo + hi)))
    W[rows, cols] += half + np.sin(lr * lo) / L[rows]
    W[rows, cols + 1] += half - np.sin(lr * hi) / L[rows]
    return W


class KernelSeries:
    """Exact evaluator for F0 and F from spectral data and baseline.

    The series runs over all supplied data pairs; the baseline must be at
    least as long.
    """

    def __init__(
        self,
        profile: DensityProfile,
        data: SpectralData,
        baseline: SpectralData,
    ) -> None:
        n = len(data)
        if n > len(baseline):
            raise ValueError(f"data length {n} exceeds baseline length {len(baseline)}")
        self.profile = profile
        self.lam = data.lambdas
        self.al = data.normings
        self.lam0 = baseline.lambdas[:n]
        self.al0 = baseline.normings[:n]
        # both lambda-sets stacked, data rows first: one table per slice
        self._lams = np.concatenate([self.lam, self.lam0])
        self._als = np.concatenate([self.al, self.al0])

    def f0(self, xi, t) -> np.ndarray:
        """F0 on the grid product xi x t, shape (len(xi), len(t))."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        V = np.cos(np.outer(xi, self.lam))
        U = phi0(self.profile, t, self.lam) / self.al
        V0 = np.cos(np.outer(xi, self.lam0))
        U0 = phi0(self.profile, t, self.lam0) / self.al0
        return V @ U.T - V0 @ U0.T

    def f(self, x: float, t) -> np.ndarray:
        """Combined kernel F(x, t) for one slice position x."""
        s = float(self.profile.srho(x))
        mp, mm = float(self.profile.mu_plus(x)), float(self.profile.mu_minus(x))
        F0 = self.f0(np.abs([mp, mm]), t)
        return 0.5 * (1.0 + 1.0 / s) * F0[0] + 0.5 * (1.0 - 1.0 / s) * F0[1]

    def f0_integrated(self, xi: np.ndarray, t) -> np.ndarray:
        """Product-integration matrix: entry (i, j) integrates F0(., t_i)
        against the hat function at node xi_j, exactly for the cosine
        series (piecewise-linear quadrature with no sampling error)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        W = hat_cos_weights(xi, self.lam)
        W0 = hat_cos_weights(xi, self.lam0)
        U = phi0(self.profile, t, self.lam) / self.al
        U0 = phi0(self.profile, t, self.lam0) / self.al0
        return U @ W - U0 @ W0

    def paired(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """sum over the data modes of U[n].T V[n], minus the same over the
        baseline modes, for tables U and V over the stacked lams.  The
        halves are summed apart, so baseline-equal data cancels exactly."""
        n = len(self.lam)
        out = U[:n].T @ V[:n]
        out -= U[n:].T @ V[n:]
        return out

    def tables(self, xi: np.ndarray, starts=None):
        """``(U, W)`` for the stacked lams at the nodes t with mu_plus(t) =
        xi, from one table C = cos(lam xi).

        U[:, i] = phi0(t_i, lam) / alpha: phi0 adds cos(lam mu_minus(t)) =
        cos(lam (2a - xi)) on the right piece's nodes, xi > a, only, so no
        node is mapped back to t.  W = ``hat_cos_weights(xi, lams)``;
        ``starts`` splits xi into grids weighted on their own (the first
        index of each).  ``paired(U, W)`` integrates F0(., t_i) against
        each hat (``f0_integrated``) and ``paired(U, f_modes(x))`` is
        F(x, t_i).
        """
        p = self.profile
        C = np.cos(np.outer(self._lams, xi))
        U = C.copy()
        r = xi > p.a
        wp, wm = 0.5 * (1.0 + 1.0 / p.alpha), 0.5 * (1.0 - 1.0 / p.alpha)
        U[:, r] = wp * C[:, r] + wm * np.cos(np.outer(self._lams, 2.0 * p.a - xi[r]))
        U /= self._als[:, None]
        return U, _hat_weights(xi, self._lams, C, starts)

    def f_modes(self, x) -> np.ndarray:
        """F's cosine terms at the slice position x: phi0(x, lam) for the
        stacked lams, one column per position if x is an array.  With F0
        even, F(x, t) = paired(phi0(t, lam) / alpha, f_modes(x))."""
        modes = phi0(self.profile, x, self._lams)
        return modes.T if np.ndim(x) else modes[0]


def complete_tail(
    data: SpectralData, baseline: SpectralData, n_ext: int
) -> SpectralData:
    """Extend measured data to ``n_ext`` modes by asymptotic fitting.

    The eigenvalue shifts lambda_n^2 - (lambda_n^0)^2 and norming ratios
    alpha_n/alpha_n^0 - 1 of this operator family are asymptotically
    almost-periodic in lambda_n^0 with the interface frequency 2a (the
    shifts approach a three-term model [1, cos(2a lam), sin(2a lam)];
    the ratios carry an extra 1/lambda decay).  One design matrix D over
    all ``n_ext`` baseline modes gives both, D and D / lam0.  Each model
    is fitted on the trailing half of the supplied modes, where the
    asymptotic regime holds best, and predicts rows N..n_ext-1.  The
    completion stops, with a warning, before the first predicted mode that
    is not valid: a norming number that is not positive, or an eigenvalue
    that does not rise above the one before.
    So a completion is a prefix of a longer one, to rounding: BLAS picks
    the order in which it sums a row's products by the number of rows
    predicted, so a predicted mode can move by an ulp.  For ``n_ext`` = N
    it is ``data``.
    """
    N = len(data)
    if n_ext < N:
        raise ValueError("extension target shorter than supplied data")
    if n_ext > len(baseline):
        raise ValueError("baseline too short for requested extension")
    if n_ext == N:
        return data
    lam0 = baseline.lambdas[:n_ext]
    al0 = baseline.normings[:n_ext]
    a = data.profile.a
    # the layout sets the order in which BLAS sums a row's products: the
    # shift model predicts from F-ordered rows, the ratio model from C-ordered
    D = np.vstack([np.ones(n_ext), np.cos(2.0 * a * lam0), np.sin(2.0 * a * lam0)]).T
    Dr = np.ascontiguousarray(D / lam0[:, None])
    fit, new = slice(N // 2, N), slice(N, n_ext)
    lam, al = data.lambdas, data.normings
    cf_s, *_ = np.linalg.lstsq(D[fit], lam[fit] ** 2 - lam0[fit] ** 2, rcond=None)
    cf_r, *_ = np.linalg.lstsq(Dr[fit], al[fit] / al0[fit] - 1.0, rcond=None)
    lam_ext = np.sqrt(np.maximum(lam0[new] ** 2 + D[new] @ cf_s, 1e-12))
    al_ext = al0[new] * (1.0 + Dr[new] @ cf_r)
    ok = (al_ext > 0) & (np.diff(np.concatenate([lam[-1:], lam_ext])) > 0)
    stop = int(np.argmin(np.append(ok, False)))  # the first invalid mode, else len(ok)
    if stop < len(ok):
        warnings.warn(f"tail completion stops at mode {N + stop + 1}: the fitted tail predicts "
                      "an eigenvalue or norming number there that is not valid", RuntimeWarning)
    return SpectralData(
        profile=data.profile,
        lambdas=np.concatenate([lam, lam_ext[:stop]]),
        normings=np.concatenate([al, al_ext[:stop]]),
    )
