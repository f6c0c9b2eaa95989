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
integrates the cosine terms in closed form (Atkinson 1997, sec. 4.2).
``slice_kernels`` builds a slice from one cos(lam xi) and one sin(lam xi)
table, as mu_plus(t) = xi and mu_minus(t) = 2a - xi at its nodes
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
    function against cos(lam_n .) exactly.  A series expansion guards the
    small-argument limit of the closed forms.
    """
    lams = np.asarray(lams, dtype=float)
    arg = np.outer(lams, xi)
    return _hat_weights(xi, lams, np.sin(arg), np.cos(arg))


def _hat_weights(xi, lams, S, C) -> np.ndarray:
    """``hat_cos_weights`` from the tables S = sin(lam xi), C = cos(lam xi);
    a row with |lam| < 1e-12 takes the small-argument branch throughout."""
    h = np.diff(xi)
    L = lams[:, None]
    Ls = np.where(np.abs(L) < 1e-12, 1.0, L)
    xS = xi * S
    I_tot = (S[:, 1:] - S[:, :-1]) / Ls
    I_xcos = (xS[:, 1:] - xS[:, :-1]) / Ls + (C[:, 1:] - C[:, :-1]) / Ls**2
    I_right = (I_xcos - xi[:-1] * I_tot) / h
    # the small-argument midpoint rule must use the true lam (L), not the
    # division-sanitized Ls, or the lam = 0 row would evaluate cos(mid)
    rows, cols = np.nonzero(np.abs(L * h) < 1e-6)
    cm = np.cos(lams[rows] * (0.5 * (xi[cols] + xi[cols + 1])))
    I_tot[rows, cols] = h[cols] * cm
    I_right[rows, cols] = 0.5 * h[cols] * cm
    W = np.zeros((len(lams), len(xi)))
    W[:, :-1] = I_tot - I_right
    W[:, 1:] += I_right
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
        the grid ``xi`` of the slice at x (it ends at mu_plus(x)).  On the
        right piece cos(lam mu_minus(t)) = cos(2a lam) C + sin(2a lam) S for
        the tables C = cos(lam xi) and S = sin(lam xi)."""
        p, lams, n = self.profile, self._lams, len(self.lam)
        s_x = float(p.srho(x))  # the one range check; xi lies in [0, mu_plus(x)]
        r = int(np.count_nonzero(p._mu_plus_inverse(xi) <= p.a))  # left-piece nodes
        arg = np.outer(lams, xi)
        S, C = np.sin(arg), np.cos(arg, out=arg)
        U = C.copy()  # phi0(t, lam) / alpha, transposed
        c2a, s2a = np.cos(2.0 * p.a * lams)[:, None], np.sin(2.0 * p.a * lams)[:, None]
        wp, wm = 0.5 * (1.0 + 1.0 / p.alpha), 0.5 * (1.0 - 1.0 / p.alpha)
        U[:, r:] = wp * C[:, r:] + wm * (c2a * C[:, r:] + s2a * S[:, r:])
        U /= self._als[:, None]

        def series(V):  # halves summed apart: baseline-equal data cancels exactly
            return U[:n].T @ V[:n] - U[n:].T @ V[n:]

        W = _hat_weights(xi, lams, S, C)
        F_mm = series(np.cos(lams * abs(float(p._mu_minus(x)))))  # F0(|mu_minus(x)|, t)
        F = 0.5 * (1.0 + 1.0 / s_x) * series(C[:, -1]) + 0.5 * (1.0 - 1.0 / s_x) * F_mm
        del arg, S, C  # free the tables (C is arg) before the n x n products
        return series(W), F


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
