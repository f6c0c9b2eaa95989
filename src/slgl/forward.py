"""Direct-problem oracle: shooting integration of the eigenvalue problem.

Integrates -y'' + q y = lambda^2 rho y with y(0) = 1, y'(0) = 0 by a
fixed-step classical Runge-Kutta scheme with the density interface as a
mandatory mesh node (q is read from each piece's own side of it),
locates eigenvalues as bracketed zeros of the characteristic function
Delta(lambda) = phi(pi, lambda), refined by safeguarded Illinois steps
(``baseline.bisect_many``; about ten integrations per spectrum), and
takes the norming numbers alpha_n = int rho phi(., lambda_n)^2 from the
Wronskian of phi and d phi / d lambda^2, evaluated by one complex-step
integration.  The oracle is fully independent of the inverse pipeline
and serves as its verification authority for round trips and asymptotics
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .baseline import BaselineSpectrum, NumericalError, scan_zeros
from .density import DensityProfile

__all__ = [
    "AsymptoticsReport",
    "PotentialSpec",
    "SpectralData",
    "characteristic",
    "check_asymptotics",
    "eigenvalues",
    "integrate_phi",
    "norming_numbers",
    "spectral_data",
]

_COMPLEX_STEP = 1e-20

_NAMED_POTENTIALS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
}


@dataclass(frozen=True)
class PotentialSpec:
    """A potential q on [0, pi]: preset, named family, or tabulated.

    kinds: ``zero``; ``constant`` (value ``c``); a named smooth family
    (``sin``, ``cos``, scaled by ``c`` if given, default 1); ``tabulated``
    (samples on a grid, linear interpolation); ``callable`` (any vectorized
    function, mainly for tests).
    """

    kind: str = "zero"
    c: float = 0.0
    x_samples: Optional[np.ndarray] = None
    q_samples: Optional[np.ndarray] = None
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.kind in ("zero", "constant"):
            return
        if self.kind in _NAMED_POTENTIALS:
            return
        if self.kind == "tabulated":
            if self.x_samples is None or self.q_samples is None:
                raise ValueError("tabulated potential needs x_samples and q_samples")
            xs = np.asarray(self.x_samples, dtype=float)
            qs = np.asarray(self.q_samples, dtype=float)
            object.__setattr__(self, "x_samples", xs)
            object.__setattr__(self, "q_samples", qs)
            if len(xs) < 2 or len(xs) != len(qs):
                raise ValueError("tabulated potential needs >= 2 matching samples")
            if xs[0] > 1e-9 or xs[-1] < np.pi - 1e-9:
                raise ValueError("tabulated grid must cover [0, pi]")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("tabulated grid must be increasing")
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(qs))):
                raise ValueError("tabulated samples must be finite")
            return
        if self.kind == "callable":
            if self.fn is None:
                raise ValueError("callable potential needs fn")
            return
        raise ValueError(f"unknown potential kind {self.kind!r}")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "constant":
            return np.full_like(x, self.c)
        if self.kind in _NAMED_POTENTIALS:
            scale = self.c if self.c != 0.0 else 1.0
            return scale * _NAMED_POTENTIALS[self.kind](x)
        if self.kind == "tabulated":
            return np.interp(x, self.x_samples, self.q_samples)
        return np.asarray(self.fn(x), dtype=float)


def _as_potential(q) -> PotentialSpec:
    if isinstance(q, PotentialSpec):
        return q
    if q is None:
        return PotentialSpec(kind="zero")
    if callable(q):
        return PotentialSpec(kind="callable", fn=q)
    raise TypeError(f"cannot interpret {type(q).__name__} as a potential")


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

    def truncated(self, n: int) -> "SpectralData":
        return SpectralData(self.profile, self.lambdas[:n], self.normings[:n])


# ---------------------------------------------------------------------------
# fixed-step RK4 on each smooth piece


def _rk4_piece(x0, x1, y, dy, lam2rho, q, n_steps):
    """March y'' = (q - lam2rho) y over [x0, x1]; batched over lambda.

    ``lam2rho`` is the constant lam^2 rho of the piece.  q is sampled once
    per piece, at the step starts, midpoints and ends, and only inside the
    open piece: the end nodes take the one-sided limits, so a q that jumps
    at the interface is read from the side being integrated.
    """
    h = (x1 - x0) / n_steps
    xs = x0 + h * np.arange(n_steps)
    inner = (np.nextafter(x0, x1), np.nextafter(x1, x0))
    q_start = q(np.clip(xs, *inner))
    q_mid = q(xs + h / 2)
    q_end = q(np.clip(xs + h, *inner))
    h2, h6 = h / 2, h / 6
    for i in range(n_steps):
        g_mid = q_mid[i] - lam2rho
        k1y, k1d = dy, (q_start[i] - lam2rho) * y
        k2y, k2d = dy + h2 * k1d, g_mid * (y + h2 * k1y)
        k3y, k3d = dy + h2 * k2d, g_mid * (y + h2 * k2y)
        k4y, k4d = dy + h * k3d, (q_end[i] - lam2rho) * (y + h * k3y)
        y = y + h6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        dy = dy + h6 * (k1d + 2 * k2d + 2 * k3d + k4d)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dy))):
        raise NumericalError("ODE integration produced non-finite state")
    return y, dy


def _steps_for(lam_max: float, srho: float, length: float, base: int = 2000) -> int:
    """Step count for one piece: default resolution pi/2000, tightened so
    the O(h^4) phase error of RK4 stays near 1e-8 at the top frequency."""
    om = max(lam_max * srho, 1.0)
    h_phase = (120.0 * 1e-8 / (max(length, 1e-9) * om**5)) ** 0.25
    h = min(np.pi / base, h_phase)
    n = max(int(np.ceil(length / h)), 16)
    n += n % 2
    return n


def integrate_phi(profile: DensityProfile, q, lams):
    """Integrate to x = pi for each lambda; returns (phi(pi), phi'(pi)).

    The interface x = a is always a mesh node; phi and phi' carry over
    continuously (the transmission condition).  Both pieces take their
    step counts from the largest real part of ``lams``.  Complex ``lams``
    integrate the same scheme in complex arithmetic (the complex step of
    ``norming_numbers``); real ones stay real.
    """
    qf = _as_potential(q)
    lams = np.atleast_1d(lams)
    lams = np.asarray(lams, dtype=complex if np.iscomplexobj(lams) else float)
    lmax = float(lams.real.max()) if len(lams) else 1.0
    n1 = _steps_for(lmax, 1.0, profile.a)
    n2 = _steps_for(lmax, profile.alpha, np.pi - profile.a)
    y = np.ones_like(lams)
    dy = np.zeros_like(lams)
    lam2 = lams**2
    y, dy = _rk4_piece(0.0, profile.a, y, dy, lam2, qf, n1)
    y, dy = _rk4_piece(profile.a, np.pi, y, dy, lam2 * profile.alpha**2, qf, n2)
    return y, dy


def characteristic(profile: DensityProfile, q, lam) -> np.ndarray:
    """Delta(lambda) = phi(pi, lambda)."""
    return integrate_phi(profile, q, lam)[0]


def eigenvalues(profile: DensityProfile, q, n_max: int) -> np.ndarray:
    """First ``n_max`` positive zeros of the characteristic function.

    Sign scan with the baseline step, halved adaptively if the window
    fails to bracket enough zeros (suspected near-tangency), then
    Illinois refinement of every bracket to a width of 1e-13, well below
    the 1e-11 target.  Each call of Delta takes its RK4 step count from
    its largest lambda, and every refinement call spans all brackets, so
    the roots are zeros of the same Delta a later call at the eigenvalues
    integrates.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    qf = _as_potential(q)
    mupi = profile.mu_span
    lam_max = (n_max + 5) * np.pi / mupi + 2.0

    def charf(ls):
        return characteristic(profile, qf, ls)

    step = np.pi / (8.0 * mupi)
    for _ in range(3):
        try:
            return scan_zeros(charf, n_max, step, lam_max)
        except NumericalError:
            step /= 2.0
    return scan_zeros(charf, n_max, step, lam_max)


def norming_numbers(profile: DensityProfile, q, lams) -> np.ndarray:
    """alpha_n = int rho phi(., lambda_n)^2 from the Wronskian identity.

    With z = lambda^2 and psi = d phi / d z, the Wronskian
    phi' psi - phi psi' vanishes at x = 0 and has derivative rho phi^2,
    so alpha = phi'(pi) psi(pi) - phi(pi) psi'(pi) at any lambda, across
    the interface, without Delta(lambda) = 0.  One integration at
    lambda + i eps gives psi = Im phi / (2 lambda eps) to rounding (the
    complex step; Squire & Trefethen, SIAM Rev. 40, 1998), with no
    cancellation, so eps needs no tuning.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    y, dy = integrate_phi(profile, q, lams + 1j * _COMPLEX_STEP)
    return (dy.real * y.imag - y.real * dy.imag) / (2.0 * lams * _COMPLEX_STEP)


def spectral_data(profile: DensityProfile, q, n_max: int) -> SpectralData:
    """Forward oracle: eigenvalues plus norming numbers as SpectralData."""
    lams = eigenvalues(profile, q, n_max)
    als = norming_numbers(profile, q, lams)
    return SpectralData(profile=profile, lambdas=lams, normings=als)


@dataclass(frozen=True)
class AsymptoticsReport:
    """Gap sequences against the baseline and their scaled tails.

    The eigenvalue and norming gaps of admissible data decay like 1/n, so
    the scaled sequences n (lambda_n - lambda_n^0) and
    n (alpha_n - alpha_n^0) stay bounded; ``bounded`` records whether the
    configured caps held over the computed range.
    """

    gaps: np.ndarray
    norming_gaps: np.ndarray
    scaled_gaps: np.ndarray
    scaled_norming_gaps: np.ndarray
    sup_scaled_gap: float
    sup_scaled_norming_gap: float
    tail_l2_gap: float
    tail_l2_norming_gap: float
    bounded: bool
    bound_gap: float = field(default=np.inf)
    bound_norming: float = field(default=np.inf)


def check_asymptotics(
    data: SpectralData,
    baseline: BaselineSpectrum,
    bound_gap: float = np.inf,
    bound_norming: float = np.inf,
) -> AsymptoticsReport:
    """Compare data with the baseline spectrum and score the 1/n decay."""
    if data.profile != baseline.profile:
        raise ValueError("spectral data and baseline refer to different profiles")
    n = min(len(data), baseline.n_max)
    idx = np.arange(1, n + 1)
    gaps = data.lambdas[:n] - baseline.lambdas0[:n]
    ngaps = data.normings[:n] - baseline.normings0[:n]
    scaled = idx * gaps
    nscaled = idx * ngaps
    half = n // 2
    return AsymptoticsReport(
        gaps=gaps,
        norming_gaps=ngaps,
        scaled_gaps=scaled,
        scaled_norming_gaps=nscaled,
        sup_scaled_gap=float(np.abs(scaled).max()),
        sup_scaled_norming_gap=float(np.abs(nscaled).max()),
        tail_l2_gap=float(np.sqrt(np.sum(gaps[half:] ** 2))),
        tail_l2_norming_gap=float(np.sqrt(np.sum(ngaps[half:] ** 2))),
        bounded=bool(
            np.abs(scaled).max() <= bound_gap
            and np.abs(nscaled).max() <= bound_norming
        ),
        bound_gap=bound_gap,
        bound_norming=bound_norming,
    )
