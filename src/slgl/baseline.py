"""Unperturbed (q = 0) spectral objects, and the spectral data scored
against them.

For the zero potential the problem has closed-form solutions

    phi0(x, lam) = (1/2)(1 + 1/sqrt(rho)) cos(lam mu_plus(x))
                 + (1/2)(1 - 1/sqrt(rho)) cos(lam mu_minus(x)),

a characteristic function Delta0(lam) = phi0(pi, lam) whose positive
zeros lam_n^0 are the baseline eigenvalues, and baseline norming numbers
alpha_n^0 = int rho phi0^2.  These anchor both the data asymptotics and
the kernel series of the main equation.  Each lam_k^0 is the only zero
of Delta0 in ((k - 1) pi / mu, k pi / mu), mu = mu_plus(pi).

The data {lambda_n, alpha_n} that the inverse problem takes are a
``SpectralData``, whose checks (one-dimensional arrays of matching
lengths, eigenvalues positive and strictly increasing, normings
positive, all finite) hold every spectrum, the baseline's included:
``baseline_spectrum`` returns one.  ``check_asymptotics`` scores how
the data approach the baseline, the code's stand-in for the
admissibility conditions on the data.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .density import DensityProfile

__all__ = [
    "AsymptoticsReport",
    "NumericalError",
    "SpectralData",
    "baseline_spectrum",
    "bisect_many",
    "certify_indices",
    "check_asymptotics",
    "delta0",
    "phi0",
]


def bracket_width(lam) -> np.ndarray:
    """The stop width of a bracket at ``lam``: 1e-13, floored at four
    float spacings of ``lam`` (above 512 one spacing exceeds 1e-13).
    ``bisect_many`` stops on it and ``spectral_data``'s Newton step
    certifies a root by it, so the two always agree."""
    return np.maximum(1e-13, 4.0 * np.spacing(lam))


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
    secant step through the bracket ends, and an end kept twice in a row has
    its value scaled by 1 - f(x) / f(replaced end), or halved where that is
    not positive.  The step stays at least tol/2 inside the bracket (Brent's
    minimum step), and falls back to the midpoint when the secant point
    leaves the bracket or the last three steps have not halved it, so each
    bracket at least halves every fourth step; 320 steps bound the work like
    80 bisections.  Each step works on the open brackets alone, with tol/2,
    sqrt(tol) and tol/4 taken once: a stopped bracket's state goes in one
    indexing op of the stacked state, and each call of ``f`` takes only the
    open brackets' points.  Each bracket's arithmetic is its own, so its
    root is the one it gets alone, bit for bit.  A secant sequence has
    e_(k+1) ~ e_k^2 / e_(k-2), so a bracket stops where its point moves by
    less than sqrt(tol) and that move squared is at most tol/4 times the
    larger of the two moves before it.  That settled point is returned
    unevaluated, and it is not bound to lie within tol of the root: the
    caller certifies it (``baseline_spectrum`` and ``spectral_data`` each
    by a Newton step).  ``f_lo`` and ``f_hi`` are the values at the bracket
    ends, which every caller already has from the pass that found the
    brackets.  A bracket also stops when narrower than tol (its midpoint is
    returned) or on an exact zero; one whose ends show no sign change on
    evaluation resolves to the end with the smaller |f|.  tol is
    ``bracket_width`` of the bracket's larger end.
    """
    shape = np.shape(lo)
    a = np.array(lo, dtype=float).ravel()
    b = np.array(hi, dtype=float).ravel()
    fa = np.array(f_lo, dtype=float).ravel()
    fb = np.array(f_hi, dtype=float).ravel()
    tol = bracket_width(np.maximum(np.abs(a), np.abs(b)))
    root = np.where(np.abs(fa) <= np.abs(fb), a, b)
    at = np.nonzero(fa * fb < 0)[0]  # the open brackets: the state below is theirs alone
    a, b, fa, fb, tol = a[at], b[at], fa[at], fb[at], tol[at]
    half, root_tol, quarter = tol / 2, np.sqrt(tol), 0.25 * tol  # loop invariants
    kept = np.zeros(len(at))  # +1: a was kept by the last step, -1: b was
    last = moved = moved2 = np.full(len(at), np.nan)  # the last point, its move, the one before
    w1 = w2 = w3 = np.full(len(at), np.inf)  # widths one to three steps back
    hit = np.zeros(len(at), dtype=bool)  # the last point was an exact zero
    for _ in range(320):
        w = b - a
        mid = 0.5 * (a + b)
        sec = b - fb * w / (fb - fa)
        x = np.where((sec >= a) & (sec <= b) & (w <= 0.5 * w3),
                     np.minimum(np.maximum(sec, a + half), b - half), mid)
        move = np.abs(x - last)
        narrow = w < tol
        settled = (move < root_tol) & (move * move <= quarter * np.fmax(moved, moved2))
        stop = hit | narrow | settled
        if np.count_nonzero(stop):
            root[at[stop]] = np.where(hit, last, np.where(narrow, mid, x))[stop]
            keep = ~stop
            at = at[keep]
            if not len(at):
                break
            state = np.array((a, b, fa, fb, tol, half, root_tol, quarter, kept, x, move, moved,
                              w, w1, w2))[:, keep]  # the stopped brackets go in one indexing op
            a, b, fa, fb, tol, half, root_tol, quarter, kept, x, move, moved, w, w1, w2 = state
        last, moved, moved2, w1, w2, w3 = x, move, moved, w, w1, w2
        fx = f(x)
        hit = fx == 0
        move_a = ~hit & (np.sign(fx) == np.sign(fa))  # the root lies above x
        move_b = ~(hit | move_a)
        # Anderson-Bjorck: 1 - f(x) / f(the end x replaces), or 1/2
        m = 1.0 - fx / np.where(move_a, fa, fb)
        scale = np.where(m > 0, m, 0.5)
        fb = np.where(move_a & (kept == -1), scale * fb, fb)
        fa = np.where(move_b & (kept == 1), scale * fa, fa)
        a, fa = np.where(move_a, x, a), np.where(move_a, fx, fa)
        b, fb = np.where(move_b, x, b), np.where(move_b, fx, fb)
        kept = move_b.astype(int) - move_a
    else:  # open after 320 steps: the midpoint, or an exact zero of the last step
        root[at] = np.where(hit, last, 0.5 * (a + b))
    return root.reshape(shape)


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
class SpectralData:
    """Input sequence {lambda_n, alpha_n} tied to its density profile."""

    profile: DensityProfile
    lambdas: np.ndarray
    normings: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        al = np.asarray(self.normings, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "normings", al)
        if lam.ndim != 1 or al.ndim != 1:
            raise ValueError("eigenvalues and norming numbers must be one-dimensional arrays")
        if len(lam) != len(al):
            raise ValueError("eigenvalue and norming sequences must match in length")
        if len(lam) and (np.any(np.diff(lam) <= 0) or np.any(lam <= 0)):
            raise ValueError("eigenvalues must be positive, strictly increasing")
        if np.any(al <= 0):
            raise ValueError("norming numbers must be positive")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(al))):
            raise ValueError("spectral data must be finite")

    def __len__(self) -> int:
        return len(self.lambdas)

    # the names the baseline's arrays had before it was a SpectralData:
    # perfbench/tests/test_closed_form.py still reads them
    lambdas0 = property(lambda self: self.lambdas)
    normings0 = property(lambda self: self.normings)


def baseline_spectrum(profile: DensityProfile, n_max: int) -> SpectralData:
    """The first ``n_max`` baseline eigenvalues and norming numbers.

    Bracket the zeros of Delta0 on the lattice k pi / mu and take the
    norming numbers in closed form (mu = mu_plus(pi)).

    Delta0 = cp cos(lam mu) + cm cos(lam (2a - mu)) with cp = (1 + 1/alpha)/2
    and cm = (1 - 1/alpha)/2, so (-1)^k Delta0(k pi / mu) >= cp - |cm| =
    min(1, 1/alpha) > 0; as |2a - mu| < mu, Rouche's theorem leaves exactly
    one zero, lam_k^0, in each ((k - 1) pi / mu, k pi / mu).  The n_max + 1
    lattice values go straight to ``bisect_many`` (neighbours that do not
    alternate in sign raise ``NumericalError``), and one Newton step on
    Delta0 takes each settled point to rounding level.  The norming numbers
    follow from the Wronskian identity ``int rho phi0^2 = phi0'(pi)
    Delta0'(lam) / (2 lam)``, whose factors are both closed-form two-sine
    sums.  Each eigenvalue's index is certified by the zeros of phi0 inside
    (0, pi), counted from its phase: phi0 = r cos(theta) with theta(0) = 0
    and theta' = lam sqrt(rho) > 0, as phi0 is one sinusoid per piece and
    phi0, phi0' are continuous at a.  theta continues across a into the
    right piece's phase, which lies in the quadrant of lam a, so a zero at
    a counts once; phi0(pi) = 0 puts theta(pi) at pi/2 + k pi, k zeros.
    """
    n_max = operator.index(n_max)
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
    # the phase of phi0 = r cos(theta) at x = pi; on the right piece theta
    # starts from atan2(sin(lam a) / alpha, cos(lam a)), in the quadrant of lam a
    s, c = np.sin(lam0 * a), np.cos(lam0 * a)
    turn = lam0 * a + (np.arctan2(s / al, c) - np.arctan2(s, c)) + lam0 * al * (np.pi - a)
    certify_indices(np.rint((turn - 0.5 * np.pi) / np.pi), "baseline")
    return SpectralData(profile, lam0, al0)


@dataclass(frozen=True)
class AsymptoticsReport:
    """Suprema of the scaled eigenvalue and norming gaps against the baseline.

    The eigenvalue and norming gaps of admissible data decay like 1/n, so
    the scaled sequences n (lambda_n - lambda_n^0) and
    n (alpha_n - alpha_n^0) stay bounded; ``bounded`` records whether the
    caps of ``check_asymptotics`` held over the computed range.
    """

    sup_scaled_gap: float
    sup_scaled_norming_gap: float
    bounded: bool


def check_asymptotics(data: SpectralData, baseline: SpectralData) -> AsymptoticsReport:
    """Compare data with the baseline spectrum and score the 1/n decay;
    the data count as bounded when the scaled gaps stay within 5 and the
    scaled norming gaps within 20."""
    if data.profile != baseline.profile:
        raise ValueError("spectral data and baseline refer to different profiles")
    n = min(len(data), len(baseline))
    if n < 1:
        raise ValueError("check_asymptotics needs at least one mode")
    idx = np.arange(1, n + 1)
    sup_gap = float(np.abs(idx * (data.lambdas[:n] - baseline.lambdas[:n])).max())
    sup_norming = float(np.abs(idx * (data.normings[:n] - baseline.normings[:n])).max())
    return AsymptoticsReport(
        sup_scaled_gap=sup_gap,
        sup_scaled_norming_gap=sup_norming,
        bounded=sup_gap <= 5.0 and sup_norming <= 20.0,
    )
