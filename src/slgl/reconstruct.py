"""Potential recovery from the solved kernel, plus the verification suite.

The potential is the scaled derivative of the kernel diagonal,

    q(x) = [4 rho(x) / (sqrt(rho(x)) + 1)] d/dx A(x, mu_plus(x)),

computed in one pass per smooth piece (no stencil ever crosses the
interface).  Because truncated spectral data leaves ripple on the
diagonal at the top retained frequency, the default pipeline (a)
completes the data tail by asymptotic fitting before the kernel solves,
with the truncation point chosen so the residual ripple aliases into the
stop band of (b) one short symmetric FIR filter, ``_FIR``, applied to
each piece's diagonal before differentiation, and (c) repairs the strips
of each piece where end effects contaminate the derivative (its ends,
and the fold of mu_minus where it fits) by constrained local fits whose
sinusoid covariates absorb the seam ripple.

The verification suite builds eigenfunction candidates *through the
solved transformation kernel*,

    phi_n(x) = phi0(x, lam_n) + int_0^{mu_plus(x)} A(x, xi) cos(lam_n xi) d xi,

and scores the defining spectral identities: the boundary condition
phi_n(pi) = 0, rho-weighted orthonormality against the norming numbers,
and the Parseval completeness relation on a test function.  The
x-integrals take one Gauss-Legendre rule per smooth piece, with one kernel
slice per node, sized from the top frequency 2 lam_max sqrt(rho) of the
integrands.  A lambda shift of the data must degrade all scores sharply
(negative control); the data and the shifted eigenvalues are evaluated as
one stacked set and both halves are scored by the same function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .baseline import SpectralData, baseline_spectrum, check_asymptotics, phi0
from .density import DensityProfile
from .glm import NODES_PER_SLICE, assemble_slice, solve_slice, solve_slices
from .kernels import KernelSeries, complete_tail, hat_cos_weights

__all__ = [
    "ReconstructionResult",
    "potential_from_kernel",
    "reconstruct_full",
    "verification_suite",
]


# ---------------------------------------------------------------------------
# smoothing machinery


# the filter: box5 * box5 * binomial3, normalised to unit sum
_FIR = np.convolve(np.convolve(np.ones(5), np.ones(5)), [1.0, 2.0, 1.0])
_FIR /= _FIR.sum()


def conv_cascade(y: np.ndarray) -> np.ndarray:
    """Apply ``_FIR``, with the window shrinking near the ends.

    Nodes closer to an end than its half-width fall back to the widest
    centered box that still fits, so the output never uses values beyond
    the array.
    """
    r = len(_FIR) // 2
    n = len(y)
    out = y.copy()
    for i in range(n):
        rr = min(i, n - 1 - i, r)
        if rr == 0:
            continue
        if rr == r:
            out[i] = _FIR @ y[i - r : i + r + 1]
        else:
            kk = np.ones(2 * rr + 1)
            kk /= kk.sum()
            out[i] = kk @ y[i - rr : i + rr + 1]
    return out


def cascade_response(om) -> np.ndarray:
    """Amplitude response of ``_FIR`` at ``om`` (radians per sample): the
    cosine sum of its symmetric taps."""
    r = len(_FIR) // 2
    om = np.asarray(om, dtype=float)
    return _FIR[r] + 2.0 * np.cos(np.multiply.outer(om, np.arange(1, r + 1))) @ _FIR[r + 1 :]


def extension_cap(hx: float, srho_vals, lam_top: float) -> float:
    """Choose the spectral truncation so diagonal ripple is filterable.

    The kernel series truncated at lambda_c leaves ripple at angular
    frequency 2 lambda_c sqrt(rho) hx per sample on each piece; the cap
    is searched so those (aliased) frequencies land deepest in the FIR
    cascade's stop band, bounded away from the grid Nyquist rate and to
    at most 3.2 ``lam_top`` (the last measured eigenvalue), past which
    imputed-tail noise outweighs the resolution gained.
    """
    hi = min(0.475 * np.pi / (hx * max(srho_vals)), 3.2 * lam_top)
    cands = np.linspace(0.6 * hi, hi, 120)
    oms = 2.0 * cands[:, None] * np.asarray(srho_vals) * hx
    oms = np.abs((oms + np.pi) % (2.0 * np.pi) - np.pi)
    return float(cands[np.argmin(cascade_response(oms).max(axis=1))])


def _patch_bands(xs, v, bands, width, om):
    """Replace contaminated bands of v by fits from flanking clean cores.

    Each band (lo, hi, deg) is refit on core windows within ``width`` of
    the band using a centered polynomial of degree ``deg`` plus -- when
    the window spans enough periods to separate them -- raw sinusoids at
    the known seam-ripple frequency ``om``.  The sinusoid covariates
    absorb the ripple together with its low-frequency alias; only the
    polynomial part is predicted into the band, so the replacement stays
    smooth.
    """
    core = np.ones(len(xs), dtype=bool)
    for lo, hi, _ in bands:
        core &= ~((xs >= lo) & (xs <= hi))
    for lo, hi, deg in bands:
        inside = (xs >= lo) & (xs <= hi)
        win = core & (xs >= lo - width) & (xs <= hi + width)
        if inside.sum() == 0 or win.sum() < deg + 2:
            continue
        xw = xs[win]
        dg = (
            deg
            if win.sum() >= 3 * (deg + 1)
            else max(min(deg - 1, win.sum() // 3 - 1), 1)
        )
        span = xw.max() - xw.min()
        mid = 0.5 * (xw.max() + xw.min())
        P = np.vstack([(xw - mid) ** k for k in range(dg + 1)]).T
        Pp = np.vstack([(xs[inside] - mid) ** k for k in range(dg + 1)]).T
        if om * span > 1.8 * np.pi and win.sum() >= dg + 6:
            T = np.vstack([np.cos(om * xw), np.sin(om * xw)]).T
            A = np.hstack([P, T])
        else:
            A = P
        coef = np.linalg.lstsq(A, v[win], rcond=None)[0]
        v[inside] = Pp @ coef[: dg + 1]
    return v


# ---------------------------------------------------------------------------
# potential recovery


@dataclass
class ReconstructionResult:
    """Recovered potential samples plus per-slice diagnostics."""

    x_grid: np.ndarray
    q_values: np.ndarray
    diagonal: np.ndarray
    a0: np.ndarray
    residuals: np.ndarray
    conditions: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def residual_max(self) -> float:
        return float(self.residuals.max()) if len(self.residuals) else 0.0

    @property
    def condition_max(self) -> float:
        return float(self.conditions.max()) if len(self.conditions) else 0.0


def potential_from_kernel(
    profile: DensityProfile,
    x_grid: np.ndarray,
    diagonal: np.ndarray,
    lam_data_top: Optional[float] = None,
) -> np.ndarray:
    """q at ``x_grid``: the kernel diagonal A(x, mu_plus(x)) ``diagonal``,
    differentiated and scaled in one pass per piece.

    The right piece starts from the right limit at x = a, (1 + 1/alpha)/2
    times the left limit that the grid holds there; the node at x = a
    reports the left limit.  With ``lam_data_top`` (the last *measured*
    eigenvalue) each pass smooths the diagonal by ``_FIR`` and repairs
    the contaminated bands; it sets the band widths and the seam-ripple
    frequency 2 lam_data_top sqrt(rho).  Without it the derivative is a
    plain second-order gradient (for clean synthetic diagonals).
    """
    xg = np.asarray(x_grid, dtype=float)
    if len(xg) < 5:
        raise ValueError("potential recovery needs at least 5 slices")
    a, alpha = profile.a, profile.alpha
    # (mask, ends, sqrt(rho), jump factor of the first node): right first,
    # so that the left piece writes the node at x = a last
    pieces = ((xg >= a, a, np.pi, alpha, 0.5 * (1.0 + 1.0 / alpha)), (xg <= a, 0.0, a, 1.0, 1.0))
    if min(mask.sum() for mask, *_ in pieces) < 3:
        raise ValueError("each smooth piece needs at least 3 slice positions")
    diag = np.asarray(diagonal, dtype=float)
    smooth = lam_data_top is not None
    if smooth:
        lam_N = lam_data_top
        hx = float(np.median(np.diff(xg)))
        half_filt = 5.5 * hx
        w_end = max(2 * hx, 1.3 / lam_N) + half_filt + 2 * hx
        wf = half_filt + max(2 * hx, 0.65 / lam_N)
        fold = profile.fold  # beyond a, so its band only ever fits the right piece
    q = np.zeros_like(xg)
    for mask, lo, hi, srho, jump in pieces:
        d = diag[mask]  # a copy: the caller's diagonal stays as it is
        d[0] *= jump
        if smooth:
            d = conv_cascade(d)
        dq = np.gradient(d, xg[mask], edge_order=2)
        if smooth:
            bands = [(lo, lo + w_end, 2), (hi - w_end, hi, 2)]
            if lo + w_end < fold - wf and fold + wf < hi - w_end:
                bands.insert(1, (fold - wf, fold + wf, 3))
            # fit windows long enough to average out residual ripple
            # (wavelength pi/(lam_N sqrt(rho)))
            width = max(0.45, 2 * np.pi / (lam_N * srho))
            dq = _patch_bands(xg[mask], dq, bands, width, 2 * lam_N * srho)
        q[mask] = dq * (4.0 * srho**2 / (srho + 1.0))
    return q


def _extended_series(
    profile: DensityProfile,
    data: SpectralData,
    n_slices: int,
    extend: bool,
    n_min: int = 0,
):
    """The front half of ``reconstruct_full`` and ``verification_suite``:
    check the data (at least 4 pairs) and ``n_slices`` (at least 4), choose
    the cap, compute a baseline spectrum that covers it, the data and
    ``n_min`` modes (the count the verification suite scores), complete the
    data to the modes below the cap, or to fewer where the completion
    stops (with ``extend`` off, to the data alone), build the series.
    Each lambda_k^0 lies above (k - 1) pi / mu, so at most
    ceil(cap mu / pi) of them lie below the cap."""
    N = len(data)
    if N < 4:
        raise ValueError("reconstruction needs at least 4 spectral pairs")
    if n_slices < 4:
        raise ValueError(f"reconstruction needs n_slices of at least 4, got {n_slices}")
    hx = np.pi / n_slices
    lam_cap = extension_cap(hx, [1.0, profile.alpha], lam_top=float(data.lambdas[-1]))
    n_need = int(np.ceil(lam_cap * profile.mu_span / np.pi))
    baseline = baseline_spectrum(profile, max(n_need, N, n_min))
    n_ext = max(int(np.searchsorted(baseline.lambdas, lam_cap)), N) if extend else N
    data_use = complete_tail(data, baseline, n_ext)
    series = KernelSeries(profile, data_use, baseline)
    return series, data_use, baseline, lam_cap


# slice count of the reconstruction grid, shared by the suite's tail completion
N_SLICES = 200


def reconstruct_full(
    profile: DensityProfile,
    data: SpectralData,
    n_slices: int = N_SLICES,
    m: int = NODES_PER_SLICE,
    extend: bool = True,
    smooth: bool = True,
    condition_cap: Optional[float] = None,
) -> ReconstructionResult:
    """End-to-end reconstruction: kernel series, slice solves, recovery.

    Steps: (1) compute the baseline spectrum, complete the data tail and
    build the series kernels, (2) solve the main equation on every slice
    of a uniform grid (with one node snapped onto the interface) in one
    bordered pass over a node lattice with ``m`` intervals across
    [0, mu_plus(pi)], (3) differentiate the diagonal into q
    (``potential_from_kernel``; ``smooth`` passes it the last measured
    eigenvalue).  x = 0 is a degenerate (empty) slice:
    its kernel is identically zero, so its row of diagonal, a0, residuals
    and conditions is 0 without a solve.  The result's ``meta`` records
    the pass: its smallest |Schur complement|, the slices it solved
    directly, and the x of the slice with the largest condition number.
    ``verification_suite`` scores the spectral identities separately.  A
    data shape at odds with the 1/n gap asymptotics only warns: finite
    data cannot certify tail behavior, and the solve is still defined.
    """
    series, data_use, baseline, lam_cap = _extended_series(profile, data, n_slices, extend)
    report = check_asymptotics(data, baseline)
    if not report.bounded:
        warnings.warn(
            "spectral data gaps do not look like small 1/n perturbations of "
            "the baseline; reconstruction will proceed but may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    xg = np.linspace(0.0, np.pi, n_slices + 1)
    ia = int(np.argmin(np.abs(xg - profile.a)))
    xg[ia] = profile.a
    live = xg != 0.0
    sol = solve_slices(profile, series, xg[live], m, condition_cap=condition_cap)
    diag, a0, res, cond = (np.zeros(len(xg)) for _ in range(4))
    diag[live] = [g[-1] for g in sol.solutions]
    a0[live] = [g[0] for g in sol.solutions]
    res[live] = sol.residuals
    cond[live] = sol.conditions
    lam_top = float(data.lambdas[-1])
    q = potential_from_kernel(profile, xg, diag, lam_top if smooth else None)
    meta = {
        "smooth": smooth,
        "lam_data_top": lam_top,
        "n_modes_supplied": len(data),
        "n_modes_used": len(data_use),
        "lam_cap": lam_cap,
        "n_slices": n_slices,
        "nodes_per_slice": m,
        "asymptotics_bounded": report.bounded,
        "pass_schur_min": sol.schur_min,
        "slices_resolved": sol.n_resolved,
        "x_condition_max": float(xg[np.argmax(cond)]),
    }
    return ReconstructionResult(xg, q, diag, a0, res, cond, meta)


# ---------------------------------------------------------------------------
# verification suite (transformation-kernel identities)


# eigenvalue shift of the suite's negative control
SHIFT = 0.1
# modes the suite scores by default
VERIFY_MODES = 40


def _node_count(lam_top: float, srho: float, length: float) -> int:
    """Gauss-Legendre nodes for the products phi_n phi_m on one smooth piece.

    Their top angular frequency 2 lam_top srho has lam_top srho length / pi
    periods there; 2.5 nodes per period is about 1.6x the pi/2 past which
    the rule converges geometrically, and 16 more cover short pieces.
    """
    return int(np.ceil(1.25 * 2.0 * lam_top * srho * length / np.pi)) + 16


def verification_suite(
    profile: DensityProfile,
    data: SpectralData,
    n_modes: int = VERIFY_MODES,
    m: int = NODES_PER_SLICE,
) -> dict:
    """Score the spectral identities of the reconstruction.

    Eigenfunction candidates are built through the solved kernel slices,
    phi_n(x) = phi0(x, lam_n) + int A(x, .) cos(lam_n .), at the nodes of
    one Gauss-Legendre rule per smooth piece, each sized from the top
    frequency of the Gram integrands phi_n phi_m rho (see
    ``_node_count``).  Scores:

    - ``boundary``: max over modes of |phi_n(pi)| / sup_x |phi_n(x)|
      (the eigenvalue condition at the right endpoint, from a slice at
      x = pi with 2 ``m`` intervals; the sup runs over the quadrature
      nodes and x = 0, where phi_n = 1);
    - ``ortho``: max off-diagonal of the rho-weighted Gram matrix,
      normalized by the diagonal;
    - ``norming``: max relative gap between the Gram diagonal and the
      data's norming numbers;
    - ``parseval``: relative completeness gap for f(x) = cos(x/2).

    The kernel comes from the front half the reconstruction itself uses,
    on its default grid of ``N_SLICES`` slices, against a baseline
    spectrum computed here for at least ``n_modes`` modes.  The scored
    modes beyond the measured data come from the same tail completion
    (the same to rounding), taken to ``n_modes``; where it stops sooner,
    the suite scores the modes it has and reports their count as
    ``n_modes``.  The negative control re-scores the same solved kernel
    against data whose eigenvalues are shifted by ``SHIFT``: each slice
    evaluates the candidates of the data and of the shifted eigenvalues
    as one stacked set, and both halves are scored alike.  Every score
    must degrade sharply if the suite has any discriminating power.  The
    result records the node count of each piece as ``quadrature_nodes``.
    """
    series, _, baseline, _ = _extended_series(
        profile, data, N_SLICES, extend=True, n_min=n_modes
    )
    scored = complete_tail(data, baseline, max(n_modes, len(data)))
    n_modes = min(n_modes, len(scored))
    lam = scored.lambdas[:n_modes]
    al = scored.normings[:n_modes]
    lams = np.concatenate([lam, lam + SHIFT])

    xs, ws = [], []  # one rule per smooth piece; the weights carry rho
    for lo, hi, srho in ((0.0, profile.a, 1.0), (profile.a, np.pi, profile.alpha)):
        t, w = np.polynomial.legendre.leggauss(_node_count(lams.max(), srho, hi - lo))
        xs.append(lo + 0.5 * (hi - lo) * (t + 1.0))
        ws.append(0.5 * (hi - lo) * srho**2 * w)
    n_nodes = [len(v) for v in xs]
    xs, ws = np.concatenate(xs), np.concatenate(ws)

    # boundary identity from a dedicated slice at x = pi, twice as fine
    system_pi = assemble_slice(profile, series, np.pi, 2 * m)
    nodes_pi, g_pi = system_pi.nodes, solve_slice(system_pi, estimate_condition=False)
    del system_pi  # before the pass, so the two systems' memory peaks do not add

    # the candidates at every node and, in the last row, at x = pi
    P = phi0(profile, np.append(xs, np.pi), lams)
    sol = solve_slices(profile, series, xs, m, estimate_condition=False)
    for i, (xi, g) in enumerate(zip(sol.nodes + [nodes_pi], sol.solutions + [g_pi])):
        P[i] += hat_cos_weights(xi, lams) @ g
    P, bvals = P[:-1], P[-1]
    sup_phi = np.maximum(1.0, np.abs(P).max(axis=0))  # phi_n(0) = 1

    f = np.cos(xs / 2.0)
    f_norm2 = ws @ (f * f)

    def scores(cols):
        Pc = P[:, cols]
        G = Pc.T @ (ws[:, None] * Pc)
        d = np.sqrt(np.diag(G))
        Gn = G / np.outer(d, d)
        np.fill_diagonal(Gn, 0.0)
        coef = Pc.T @ (ws * f)
        return {
            "boundary": float(np.abs(bvals[cols] / sup_phi[cols]).max()),
            "ortho": float(np.abs(Gn).max()),
            "norming": float(np.abs(np.diag(G) / al - 1.0).max()),
            "parseval": float(abs(np.sum(coef * coef / al) - f_norm2) / f_norm2),
        }

    unshifted = scores(slice(0, n_modes))
    shifted = scores(slice(n_modes, None))
    suite = {"n_modes": n_modes, "n_measured": len(data), "shift": SHIFT,
             "quadrature_nodes": n_nodes, **unshifted}
    suite.update({f"{k}_shifted": v for k, v in shifted.items()})
    for k in ("boundary", "ortho", "parseval"):
        suite[f"{k}_degradation"] = (
            float(shifted[k] / unshifted[k]) if unshifted[k] > 0 else np.inf
        )
    return suite
