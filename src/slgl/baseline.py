"""Unperturbed (q = 0) spectral objects.

For the zero potential the problem has closed-form solutions

    phi0(x, lam) = (1/2)(1 + 1/sqrt(rho)) cos(lam mu_plus(x))
                 + (1/2)(1 - 1/sqrt(rho)) cos(lam mu_minus(x)),

a characteristic function Delta0(lam) = phi0(pi, lam) whose positive
zeros lam_n^0 are the baseline eigenvalues, and baseline norming numbers
alpha_n^0 = int rho phi0^2.  These anchor both the data asymptotics and
the kernel series of the main equation.
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
    "scan_zeros",
]


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
    """Baseline characteristic function phi0(pi, lam); even in lam."""
    lam = np.asarray(lam, dtype=float)
    al = profile.alpha
    mp = profile.mu_span
    mm = 2.0 * profile.a - mp
    return 0.5 * (1.0 + 1.0 / al) * np.cos(lam * mp) + 0.5 * (1.0 - 1.0 / al) * np.cos(
        lam * mm
    )


def bisect_many(f, lo, hi, iters: int = 80) -> np.ndarray:
    """Vectorized root refinement on brackets [lo_i, hi_i] with sign changes.

    Safeguarded Illinois (modified regula falsi; Dowell & Jarratt, BIT 11,
    1971): each step is a secant step through the bracket ends, and the
    end kept twice in a row has its value halved.  The step stays at least
    tol/2 inside the bracket (Brent's minimum step), and falls back to the
    midpoint when the secant point leaves the bracket or the last three
    steps have not halved it, so each bracket at least halves every fourth
    step; ``4 * iters`` steps bound the work like ``iters`` bisections.
    Every call of ``f`` takes one point per bracket, so its arguments
    always span the whole spectrum; the first call takes both ends.  A
    bracket stops when narrower than tol = 1e-13 (its midpoint is
    returned) or on an exact zero; one whose ends show no sign change on
    evaluation resolves to the end with the smaller |f|.
    """
    tol = 1e-13
    shape = np.shape(lo)
    a = np.array(lo, dtype=float).ravel()
    b = np.array(hi, dtype=float).ravel()
    n = len(a)
    fab = f(np.concatenate([a, b]))
    fa, fb = fab[:n], fab[n:]
    done = fa * fb >= 0
    root = np.where(np.abs(fa) <= np.abs(fb), a, b)
    kept = np.zeros(n)  # +1: a was kept by the last step, -1: b was
    w1 = w2 = w3 = np.full(n, np.inf)  # widths one to three steps back
    for _ in range(4 * iters):
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
        x = np.where(done, root, x)
        fx = f(x)
        hit = ~done & (fx == 0)
        root = np.where(hit, x, root)
        done |= hit
        move_a = ~done & (np.sign(fx) == np.sign(fa))
        move_b = ~done & ~move_a
        fb = np.where(move_a & (kept == -1), 0.5 * fb, fb)
        fa = np.where(move_b & (kept == 1), 0.5 * fa, fa)
        a, fa = np.where(move_a, x, a), np.where(move_a, fx, fa)
        b, fb = np.where(move_b, x, b), np.where(move_b, fx, fb)
        kept = np.where(move_a, -1, np.where(move_b, 1, kept))
        w3, w2, w1 = w2, w1, w
    return np.where(done, root, 0.5 * (a + b)).reshape(shape)


def scan_zeros(f, n_max: int, step: float, lam_max: float) -> np.ndarray:
    """First ``n_max`` positive zeros of ``f`` by sign scan + refinement.

    A scan step brackets a zero when its ends differ in sign or its right
    end is an exact zero, so a zero on a scan node is bracketed once and a
    zero at the origin is never reported.  Each bracket of one scan step
    is then refined by ``bisect_many``.  Raises when the window holds too
    few brackets.
    """
    grid = np.arange(0.0, lam_max, step)
    vals = f(grid)
    sgn = np.sign(vals)
    idx = np.nonzero((sgn[:-1] != 0) & (sgn[:-1] * sgn[1:] <= 0))[0]
    if len(idx) < n_max:
        raise NumericalError(
            f"scan resolution error: bracketed only {len(idx)} of {n_max} "
            f"zeros on [0, {lam_max:.3f}] with step {step:.4f}"
        )
    idx = idx[:n_max]
    return bisect_many(f, grid[idx], grid[idx + 1])


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
    """Locate the zeros of Delta0 and take the norming numbers in closed form.

    The sign scan uses step pi / (8 mu_plus(pi)), well below the minimal
    zero spacing of the two-frequency cosine sum, and refines each
    bracket with ``bisect_many``; one Newton step on Delta0 then takes
    each root to rounding level.  The norming numbers follow from the
    Wronskian identity ``int rho phi0^2 = phi0'(pi) Delta0'(lam) / (2 lam)``,
    whose factors are both closed-form two-sine sums.  Each eigenvalue's
    index is certified by the sign changes of phi0 on nodes at most one
    radian of phase apart on each piece: phi0 is one sinusoid per piece,
    so no two zeros fall between adjacent nodes.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    mupi = profile.mu_span
    step = np.pi / (8.0 * mupi)
    lam_max = (n_max + 5) * np.pi / mupi + 2.0
    lam0 = scan_zeros(lambda l: delta0(profile, l), n_max, step, lam_max)
    gaps = np.diff(lam0)
    if np.any(gaps < step / 4.0):
        warnings.warn(
            "near-double baseline eigenvalues detected; distinctness of the "
            "spectrum is assumed by the inverse problem",
            RuntimeWarning,
            stacklevel=2,
        )
    # Delta0 = cp cos(lam mp) + cm cos(lam mm), as in ``delta0``
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
