"""Data-driven kernels of the main integral equation.

The input kernel is the paired difference series

    F0(xi, t) = sum_n [ phi0(t, lam_n) cos(lam_n xi) / alpha_n
                      - phi0(t, lam_n^0) cos(lam_n^0 xi) / alpha_n^0 ],

combined into

    F(x, t) = (1/2)(1 + 1/sqrt(rho(x))) F0(mu_plus(x), t)
            + (1/2)(1 - 1/sqrt(rho(x))) F0(mu_minus(x), t),

where F0 is even in its first argument (every term is a cosine), which
makes the mu_minus < 0 evaluations exact.  The series is always summed
pairwise: only the differences decay, never the halves separately.

``KernelSeries`` evaluates the series exactly where needed, including a
product-integration form (integrals of F0 against hat functions) that
integrates the cosine terms in closed form, by parts from one cos(lam xi)
table (Atkinson 1997, sec. 4.2).  ``slice_kernels`` builds a slice from
that table, as mu_plus(t) = xi and mu_minus(t) = 2a - xi at its nodes
t = mu_plus_inverse(xi).  ``complete_tail`` extends measured data by
fitting the almost-periodic asymptotic laws of the eigenvalue shifts and
norming ratios.
"""

from __future__ import annotations

import numpy as np

from .baseline import BaselineSpectrum, phi0
from .density import DensityProfile
from .forward import SpectralData

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


def _hat_weights(xi, lams, C) -> np.ndarray:
    """``hat_cos_weights`` from the table C = cos(lam xi), which it overwrites:
    by parts, W[:, j] = (D[:, j-1] - D[:, j]) / lam^2 for the slope D of C
    per interval, plus -sin(lam xi_0)/lam and sin(lam xi_last)/lam at the
    ends.  An interval with |lam h| < 1e-6 (all, if |lam| < 1e-12) takes the
    midpoint rule: its slope is dropped, its uncancelled sin terms added."""
    h = np.diff(xi)
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
    s0, s1 = np.sin(np.outer(lams, xi[[0, -1]])).T / L
    W[:, 0] = -D[:, 0] - s0
    W[:, -1] = D[:, -1] + s1
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
        baseline: BaselineSpectrum,
    ) -> None:
        n = len(data)
        if n > baseline.n_max:
            raise ValueError(f"data length {n} exceeds baseline length {baseline.n_max}")
        self.profile = profile
        self.lam = np.asarray(data.lambdas, dtype=float)
        self.al = np.asarray(data.normings, dtype=float)
        self.lam0 = np.asarray(baseline.lambdas0[:n], dtype=float)
        self.al0 = np.asarray(baseline.normings0[:n], dtype=float)
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

    def slice_kernels(self, x: float, xi: np.ndarray):
        """``(f0_integrated(xi, t), f(x, t))`` at t = mu_plus_inverse(xi), for
        the grid ``xi`` of the slice at x (it ends at mu_plus(x)), from one
        table C = cos(lam xi); phi0 adds cos(lam mu_minus(t)) = cos(lam (2a -
        xi)) on the right piece's columns only."""
        p, lams, n = self.profile, self._lams, len(self.lam)
        s_x = float(p.srho(x))  # the one range check; xi lies in [0, mu_plus(x)]
        r = int(np.count_nonzero(p._mu_plus_inverse(xi) <= p.a))  # left-piece nodes
        C = np.cos(np.outer(lams, xi))
        U = C.copy()  # phi0(t, lam) / alpha, transposed
        wp, wm = 0.5 * (1.0 + 1.0 / p.alpha), 0.5 * (1.0 - 1.0 / p.alpha)
        U[:, r:] = wp * C[:, r:] + wm * np.cos(np.outer(lams, 2.0 * p.a - xi[r:]))
        U /= self._als[:, None]

        def series(V):  # halves summed apart: baseline-equal data cancels exactly
            return U[:n].T @ V[:n] - U[n:].T @ V[n:]

        F_mm = series(np.cos(lams * abs(float(p._mu_minus(x)))))  # F0(|mu_minus(x)|, t)
        F = 0.5 * (1.0 + 1.0 / s_x) * series(C[:, -1]) + 0.5 * (1.0 - 1.0 / s_x) * F_mm
        return series(_hat_weights(xi, lams, C)), F


def complete_tail(
    data: SpectralData, baseline: BaselineSpectrum, n_ext: int
) -> SpectralData:
    """Extend measured data to ``n_ext`` modes by asymptotic fitting.

    The eigenvalue shifts lambda_n^2 - (lambda_n^0)^2 and norming ratios
    alpha_n/alpha_n^0 - 1 of this operator family are asymptotically
    almost-periodic in lambda_n^0 with the interface frequency 2a (the
    shifts approach a three-term model [1, cos(2a lam), sin(2a lam)];
    the ratios carry an extra 1/lambda decay).  Both models are fitted
    on the trailing half of the supplied modes, where the asymptotic
    regime holds best, and evaluated on baseline indices N..n_ext.
    """
    N = len(data)
    if n_ext < N:
        raise ValueError("extension target shorter than supplied data")
    if n_ext > baseline.n_max:
        raise ValueError("baseline too short for requested extension")
    if n_ext == N:
        return data
    lam, al = data.lambdas, data.normings
    lam0 = baseline.lambdas0[:n_ext]
    al0 = baseline.normings0[:n_ext]
    a = data.profile.a
    shifts = lam**2 - lam0[:N] ** 2
    ratios = al / al0[:N] - 1.0
    cs = np.cos(2.0 * a * lam0)
    sn = np.sin(2.0 * a * lam0)
    sel = np.arange(N // 2, N)
    D = np.vstack([np.ones(N), cs[:N], sn[:N]]).T
    cf_s, *_ = np.linalg.lstsq(D[sel], shifts[sel], rcond=None)
    Dr = np.vstack([1.0 / lam0, cs / lam0, sn / lam0]).T
    cf_r, *_ = np.linalg.lstsq(Dr[:N][sel], ratios[sel], rcond=None)
    idx = np.arange(N, n_ext)
    sh_pred = np.vstack([np.ones(len(idx)), cs[idx], sn[idx]]).T @ cf_s
    rn_pred = Dr[idx] @ cf_r
    lam_ext = np.sqrt(np.maximum(lam0[idx] ** 2 + sh_pred, 1e-12))
    al_ext = al0[idx] * (1.0 + rn_pred)
    return SpectralData(
        profile=data.profile,
        lambdas=np.concatenate([lam, lam_ext]),
        normings=np.concatenate([al, al_ext]),
    )
