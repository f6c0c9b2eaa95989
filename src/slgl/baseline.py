"""Unperturbed (q = 0) spectral objects.

For the zero potential the problem has closed-form solutions

    phi0(x, lam) = (1/2)(1 + 1/sqrt(rho)) cos(lam mu_plus(x))
                 + (1/2)(1 - 1/sqrt(rho)) cos(lam mu_minus(x)),

a characteristic function Delta0(lam) = phi0(pi, lam) whose positive
zeros lam_n^0 are the baseline eigenvalues, and baseline norming numbers
alpha_n^0 = int rho phi0^2.  These anchor both the data asymptotics and
the kernel series of the main equation.  Each lam_k^0 is the only zero
of Delta0 in ((k - 1) pi / mu, k pi / mu), mu = mu_plus(pi).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .density import DensityProfile

__all__ = [
    "BaselineSpectrum",
    "NumericalError",
    "baseline_spectrum",
    "bisect_many",
    "certify_indices",
    "delta0",
    "phi0",
]


BRACKET_WIDTH = 1e-13  # ``bisect_many`` stops a bracket narrower than this


class NumericalError(RuntimeError):
    """A solver gate failed: the numbers, not the inputs, are at fault."""


def phi0(profile: DensityProfile, x, lam) -> np.ndarray:
    """Zero-potential solution, shape (len(x), len(lam)).

    Scalar inputs are broadcast; the result always carries both axes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    s = profile.srho(x)[:, None]
    mp = profile.mu_plus(x)[:, None]
    mm = 2.0 * profile.a - mp
    L = lam[None, :]
    return 0.5 * (1.0 + 1.0 / s) * np.cos(L * mp) + 0.5 * (1.0 - 1.0 / s) * np.cos(L * mm)


def delta0(profile: DensityProfile, lam) -> np.ndarray:
    """Baseline characteristic function phi0(pi, lam), shaped like lam;
    even in lam."""
    return phi0(profile, np.pi, lam)[0].reshape(np.shape(lam))


def bisect_many(f, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Vectorized root refinement on brackets [lo_i, hi_i] with sign changes.

    Safeguarded Anderson-Bjorck regula falsi (BIT 13, 1973): each step is a
    secant step through the bracket ends, and an end kept twice in a row
    has its value scaled by 1 - f(x) / f(replaced end), or halved where
    that is not positive.  The step stays at least tol/2 inside the bracket
    (Brent's minimum step), and falls back to the midpoint when the secant
    point leaves the bracket or the last three steps have not halved it, so
    each bracket at least halves every fourth step; 320 steps bound the
    work like 80 bisections.  Once a bracket's point moves by less than
    sqrt(tol) (the secant steps converge superlinearly, so it is then
    within about tol of the root), the same call of ``f`` takes the pair
    x -/+ 0.45 tol in its place, which closes the bracket where it
    straddles the root.  Each call of ``f`` takes only the points of the
    open brackets.  ``f_lo`` and ``f_hi`` are the values at the bracket
    ends, which every caller already has from the pass that found the
    brackets.  A bracket stops when narrower than tol =
    ``BRACKET_WIDTH`` (its midpoint is returned) or on an exact zero; one
    whose ends show no sign change on evaluation resolves to the end with
    the smaller |f|.
    """
    tol = BRACKET_WIDTH
    shape = np.shape(lo)
    a = np.array(lo, dtype=float).ravel()
    b = np.array(hi, dtype=float).ravel()
    n = len(a)
    fa = np.array(f_lo, dtype=float).ravel()
    fb = np.array(f_hi, dtype=float).ravel()
    done = fa * fb >= 0
    root = np.where(np.abs(fa) <= np.abs(fb), a, b)
    kept = np.zeros(n)  # +1: a was kept by the last step, -1: b was
    last = np.full(n, np.nan)  # each bracket's point one step back
    w1 = w2 = w3 = np.full(n, np.inf)  # widths one to three steps back
    for _ in range(320):
        w = b - a
        narrow = ~done & (w < tol)
        root = np.where(narrow, 0.5 * (a + b), root)
        done |= narrow
        if done.all():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            sec = b - fb * w / (fb - fa)
        x = np.clip(sec, a + tol / 2, b - tol / 2)
        bisect = ~((sec >= a) & (sec <= b)) | (w > 0.5 * w3)
        x = np.where(bisect, 0.5 * (a + b), x)
        on = ~done
        pair = on & (np.abs(x - last) < np.sqrt(tol))
        pair &= (x - 0.45 * tol > a) & (x + 0.45 * tol < b)  # inside after rounding
        last = x
        # the points x1 < x2 of each bracket: a pair, or x and the end b
        x1 = np.where(pair, x - 0.45 * tol, x)
        x2 = np.where(pair, x + 0.45 * tol, b)
        f1, f2 = np.zeros(n), fb.copy()
        f1[on], f2[pair] = np.split(f(np.concatenate([x1[on], x2[pair]])), [on.sum()])
        hit = on & ((f1 == 0) | (f2 == 0))
        root = np.where(hit, np.where(f1 == 0, x1, x2), root)
        done |= hit
        above1 = ~hit & (np.sign(f1) == np.sign(fa))  # the root lies above x1
        above2 = above1 & (np.sign(f2) == np.sign(fa))  # and above x2
        move_a = on & ~hit & above1
        move_b = on & ~hit & (~above1 | pair & ~above2)
        xa, fxa = np.where(above2, x2, x1), np.where(above2, f2, f1)
        xb, fxb = np.where(above1, x2, x1), np.where(above1, f2, f1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ma, mb = 1.0 - fxa / fa, 1.0 - fxb / fb
        fb = np.where(move_a & (kept == -1), np.where(ma > 0, ma, 0.5) * fb, fb)
        fa = np.where(move_b & (kept == 1), np.where(mb > 0, mb, 0.5) * fa, fa)
        a, fa = np.where(move_a, xa, a), np.where(move_a, fxa, fa)
        b, fb = np.where(move_b, xb, b), np.where(move_b, fxb, fb)
        kept = move_b.astype(int) - move_a
        w3, w2, w1 = w2, w1, w
    return np.where(done, root, 0.5 * (a + b)).reshape(shape)


def certify_indices(zero_counts, spectrum: str) -> None:
    """Raise unless the n-th eigenfunction has n - 1 interior zeros.

    By Sturm oscillation the count is the eigenvalue's index less one; a
    mismatch means a root was missed or is not the n-th eigenvalue.
    """
    zero_counts = np.asarray(zero_counts)
    bad = np.nonzero(zero_counts != np.arange(len(zero_counts)))[0]
    if len(bad):
        n = int(bad[0]) + 1
        raise NumericalError(
            f"{spectrum} eigenvalue {n}: its eigenfunction changes sign "
            f"{int(zero_counts[bad[0]])} times inside (0, pi), expected {n - 1}"
        )


@dataclass(frozen=True)
class BaselineSpectrum:
    """First ``n_max`` baseline eigenvalues and norming numbers."""

    profile: DensityProfile
    n_max: int
    lambdas0: np.ndarray
    normings0: np.ndarray

    def __post_init__(self) -> None:
        if len(self.lambdas0) != self.n_max or len(self.normings0) != self.n_max:
            raise ValueError("stored arrays must have length n_max")
        if np.any(np.diff(self.lambdas0) <= 0) or np.any(self.lambdas0 <= 0):
            raise ValueError("baseline eigenvalues must be positive and increasing")
        if np.any(self.normings0 <= 0):
            raise ValueError("baseline norming numbers must be positive")


def baseline_spectrum(profile: DensityProfile, n_max: int) -> BaselineSpectrum:
    """Bracket the zeros of Delta0 on the lattice k pi / mu and take the
    norming numbers in closed form (mu = mu_plus(pi)).

    Delta0 = cp cos(lam mu) + cm cos(lam (2a - mu)) with cp = (1 + 1/alpha)/2
    and cm = (1 - 1/alpha)/2, so (-1)^k Delta0(k pi / mu) >= cp - |cm| =
    min(1, 1/alpha) > 0; as |2a - mu| < mu, Rouche's theorem leaves exactly
    one zero, lam_k^0, in each ((k - 1) pi / mu, k pi / mu).  The n_max + 1
    lattice values go straight to ``bisect_many`` (neighbours that do not
    alternate in sign raise ``NumericalError``), and one Newton step on
    Delta0 takes each root to rounding level.  The norming numbers follow
    from the Wronskian identity ``int rho phi0^2 = phi0'(pi) Delta0'(lam) /
    (2 lam)``, whose factors are both closed-form two-sine sums.  Each
    eigenvalue's index is certified by the sign changes of phi0 on nodes at
    most one radian of phase apart on each piece: phi0 is one sinusoid per
    piece, so no two zeros fall between adjacent nodes.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    mupi = profile.mu_span
    ends = np.pi / mupi * np.arange(n_max + 1)
    vals = delta0(profile, ends)
    flat = np.nonzero(vals[:-1] * vals[1:] >= 0)[0]
    if len(flat):
        k = int(flat[0])
        raise NumericalError(
            f"baseline eigenvalue {k + 1}: Delta0 does not change sign on its "
            f"bracket [{ends[k]:.6f}, {ends[k + 1]:.6f}]"
        )
    lam0 = bisect_many(lambda l: delta0(profile, l), ends[:-1], ends[1:], vals[:-1], vals[1:])
    if np.any(np.diff(lam0) < np.pi / (32.0 * mupi)):
        warnings.warn(
            "near-double baseline eigenvalues detected; distinctness of the "
            "spectrum is assumed by the inverse problem",
            RuntimeWarning,
            stacklevel=2,
        )
    # Delta0 = phi0(pi, lam) = cp cos(lam mp) + cm cos(lam mm)
    a, al = profile.a, profile.alpha
    mp, mm = mupi, 2.0 * a - mupi
    cp, cm = 0.5 * (1.0 + 1.0 / al), 0.5 * (1.0 - 1.0 / al)

    def d_delta(lam):
        return -cp * mp * np.sin(lam * mp) - cm * mm * np.sin(lam * mm)

    lam0 = lam0 - delta0(profile, lam0) / d_delta(lam0)
    # phi0'(pi) / lam: on the right piece mu_plus' = alpha = -mu_minus'
    dphi = al * (cm * np.sin(lam0 * mm) - cp * np.sin(lam0 * mp))
    al0 = 0.5 * dphi * d_delta(lam0)
    n_left = max(1, int(np.ceil(lam0[-1] * a)))
    n_right = max(1, int(np.ceil(lam0[-1] * al * (np.pi - a))))
    x = np.concatenate(
        [np.linspace(0.0, a, n_left + 1), np.linspace(a, np.pi, n_right + 1)[1:]]
    )
    # the last node is x = pi, where phi0(., lambda_n) vanishes
    signs = np.signbit(phi0(profile, x[:-1], lam0))
    certify_indices(np.count_nonzero(signs[1:] != signs[:-1], axis=0), "baseline")
    return BaselineSpectrum(profile=profile, n_max=n_max, lambdas0=lam0, normings0=al0)
