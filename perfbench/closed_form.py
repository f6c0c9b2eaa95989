"""Closed-form spectral data for a potential that is constant on each piece.

The potential is q = c1 on [0, a] and q = c2 on (a, pi].  On a piece with
density rho and potential c the solution of -y'' + c y = lam^2 rho y is a
cosine/sine of k = sqrt(lam^2 rho - c) (complex when lam^2 rho < c, which
turns the pair into cosh/sinh), so

    phi(x)  = cos(k1 x)                                   on [0, a],
    phi(x)  = y_a cos(k2 s) + (dy_a / k2) sin(k2 s),  s = x - a,  on (a, pi],

with y_a, dy_a the left-piece values at x = a.  Delta(lam) = phi(pi) and
the norming number int rho phi^2 are closed-form integrals of cos^2,
sin^2 and cos*sin.  Both potentials stay positive (c1, c2 > 0), so every
lam_n^2 is positive and the n-th positive zero of Delta is the n-th
eigenvalue: no index shift is possible.

This module uses numpy only; nothing here comes from the package under
test, so it is an independent reference for both the forward oracle and
the reconstruction.
"""

from __future__ import annotations

import numpy as np


def _pieces(a, alpha, c1, c2, lam):
    """k1, k2, y_a, dy_a for each lam, as complex arrays."""
    lam = np.asarray(lam, dtype=float)
    k1 = np.sqrt((lam**2 - c1).astype(complex))
    k2 = np.sqrt((lam**2 * alpha**2 - c2).astype(complex))
    ya = np.cos(k1 * a)
    dya = -k1 * np.sin(k1 * a)
    return k1, k2, ya, dya


def _sinc_mul(k, s):
    """sin(k s) / k with the k -> 0 limit s."""
    small = np.abs(k) < 1e-12
    ks = np.where(small, 1.0, k)
    return np.where(small, s, np.sin(ks * s) / ks)


def delta(a, alpha, c1, c2, lam):
    """Characteristic function phi(pi, lam); real-valued."""
    k1, k2, ya, dya = _pieces(a, alpha, c1, c2, lam)
    L = np.pi - a
    return np.real(ya * np.cos(k2 * L) + dya * _sinc_mul(k2, L))


def normings(a, alpha, c1, c2, lam):
    """int_0^pi rho phi(., lam)^2 dx in closed form."""
    k1, k2, ya, dya = _pieces(a, alpha, c1, c2, lam)
    L = np.pi - a
    # int_0^a cos^2(k1 x) = a/2 + sin(2 k1 a) / (4 k1)
    left = 0.5 * a + 0.5 * _sinc_mul(k1, 2.0 * a) / 2.0
    # right piece: A cos(k s) + B sin(k s), B = dya / k2
    i_cc = 0.5 * L + 0.25 * _sinc_mul(k2, 2.0 * L)
    i_ss = 0.5 * L - 0.25 * _sinc_mul(k2, 2.0 * L)
    i_cs = 0.5 * np.sin(k2 * L) * _sinc_mul(k2, L)
    small = np.abs(k2) < 1e-12
    k2s = np.where(small, 1.0, k2)
    right = ya**2 * i_cc + 2.0 * ya * dya * np.where(small, 0.5 * L**2, i_cs / k2s)
    right = right + np.where(small, dya**2 * L**3 / 3.0, dya**2 * i_ss / k2s**2)
    return np.real(left + alpha**2 * right)


def eigenvalues(a, alpha, c1, c2, n):
    """First ``n`` positive zeros of Delta: fine sign scan, then bisection."""
    span = alpha * np.pi + a * (1.0 - alpha)
    step = np.pi / (64.0 * span)
    lam_max = (n + 6) * np.pi / span + 2.0
    while True:
        grid = np.arange(step, lam_max, step)
        vals = delta(a, alpha, c1, c2, grid)
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(idx) >= n:
            break
        lam_max *= 1.5
    lo, hi = grid[idx[:n]], grid[idx[:n] + 1]
    flo = delta(a, alpha, c1, c2, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = delta(a, alpha, c1, c2, mid)
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
        if np.max(hi - lo) <= 4e-16 * np.max(hi):
            break
    return 0.5 * (lo + hi)


def spectrum(a, alpha, c1, c2, n):
    """(lambdas, normings) of the first ``n`` modes."""
    lam = eigenvalues(a, alpha, c1, c2, n)
    return lam, normings(a, alpha, c1, c2, lam)


def potential(a, c1, c2, x):
    """The true potential: c1 on [0, a], c2 on (a, pi]."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= a, c1, c2)
