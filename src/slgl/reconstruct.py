"""Potential recovery from the solved kernel, plus the verification suite.

The potential is the scaled derivative of the kernel diagonal,

    q(x) = [4 rho(x) / (sqrt(rho(x)) + 1)] d/dx A(x, mu_plus(x)),

differentiated per smooth piece (no stencil ever crosses the interface).
Because truncated spectral data leaves ripple on the diagonal at the top
retained frequency, the default pipeline (a) completes the data tail by
asymptotic fitting before the kernel solves, with the truncation point
chosen so the residual ripple aliases into the stop band of (b) a short
symmetric FIR cascade applied to the diagonal before differentiation,
and (c) repairs the strips where end effects contaminate the derivative
(both sides of 0, a, pi, and the fold of mu_minus) by constrained local
fits whose sinusoid covariates absorb the seam ripple.

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

from .baseline import baseline_spectrum, delta0, phi0
from .density import DensityProfile
from .forward import SpectralData, check_asymptotics
from .glm import assemble_slice, solve_slice, solve_slices
from .kernels import KernelSeries, complete_tail, hat_cos_weights

__all__ = [
    "ReconstructionResult",
    "cascade_response",
    "conv_cascade",
    "extension_cap",
    "potential_from_kernel",
    "reconstruct_full",
    "verification_suite",
]


# ---------------------------------------------------------------------------
# smoothing machinery


def conv_cascade(y: np.ndarray, kernels) -> np.ndarray:
    """Symmetric FIR cascade with window shrinking near the ends.

    The composite kernel is normalized to unit sum; nodes closer to an
    end than its half-width fall back to the widest centered box that
    still fits, so the output never uses values beyond the array.
    """
    k = np.array([1.0])
    for kk in kernels:
        k = np.convolve(k, np.asarray(kk, dtype=float))
    k /= k.sum()
    r = len(k) // 2
    n = len(y)
    out = y.copy()
    for i in range(n):
        rr = min(i, n - 1 - i, r)
        if rr == 0:
            continue
        if rr == r:
            out[i] = k @ y[i - r : i + r + 1]
        else:
            kk = np.ones(2 * rr + 1)
            kk /= kk.sum()
            out[i] = kk @ y[i - rr : i + rr + 1]
    return out


_CASCADE = (np.ones(5), np.ones(5), np.array([1.0, 2.0, 1.0]))


def cascade_response(om) -> np.ndarray:
    """Amplitude response of the box5*box5*binomial3 cascade at ``om``
    (radians per sample)."""
    om = np.asarray(om, dtype=float)
    x = om / 2.0
    sx = np.sin(x)
    safe = np.where(np.abs(sx) < 1e-12, 1.0, sx)
    box = np.where(np.abs(sx) < 1e-12, 1.0, np.sin(5 * x) / (5 * safe))
    return box**2 * np.cos(x) ** 2


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
    best, best_score = cands[-1], np.inf
    for lc in cands:
        oms = 2.0 * lc * np.asarray(srho_vals) * hx
        oms = np.abs((oms + np.pi) % (2.0 * np.pi) - np.pi)
        score = float(np.max(cascade_response(oms)))
        if score < best_score:
            best_score, best = score, lc
    return float(best)


def _patch_bands(xs, v, bands, width, degs, om):
    """Replace contaminated bands of v by fits from flanking clean cores.

    Each band (lo, hi) is refit on core windows within ``width`` of the
    band using a centered polynomial plus -- when the window spans enough
    periods to separate them -- raw sinusoids at the known seam-ripple
    frequency ``om``.  The sinusoid covariates absorb the ripple together
    with its low-frequency alias; only the polynomial part is predicted
    into the band, so the replacement stays smooth.
    """
    core = np.ones(len(xs), dtype=bool)
    for lo, hi in bands:
        core &= ~((xs >= lo) & (xs <= hi))
    for (lo, hi), deg in zip(bands, degs):
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
    differentiated per piece and scaled.

    With ``lam_data_top`` (the last *measured* eigenvalue) the diagonal
    is smoothed by the FIR cascade and the contaminated bands are
    repaired; it sets the band widths and the seam-ripple frequency.
    Without it the derivative is a plain second-order per-piece gradient
    (for clean synthetic diagonals).
    """
    xg = np.asarray(x_grid, dtype=float)
    if len(xg) < 5:
        raise ValueError("potential recovery needs at least 5 slices")
    a = profile.a
    left = xg <= a
    right = xg >= a
    if left.sum() < 3 or right.sum() < 3:
        raise ValueError("each smooth piece needs at least 3 slice positions")
    diag = np.asarray(diagonal, dtype=float)
    smooth = lam_data_top is not None
    # the grid carries one node at x = a holding the left-limit diagonal;
    # the right piece starts from the right limit, which differs by the
    # exact interface jump ratio (1 + 1/alpha)/2
    rjump = 0.5 * (1.0 + 1.0 / profile.alpha)
    d_right = diag[right].copy()
    d_right[0] = rjump * diag[right][0]
    if smooth:
        dl = conv_cascade(diag[left], _CASCADE)
        dr = conv_cascade(d_right, _CASCADE)
    else:
        dl = diag[left]
        dr = d_right
    ql = np.gradient(dl, xg[left], edge_order=2)
    qr = np.gradient(dr, xg[right], edge_order=2)

    if smooth:
        lam_N = lam_data_top
        hx = float(np.median(np.diff(xg)))
        half_filt = 5.5 * hx
        wd = max(2 * hx, 1.3 / lam_N)
        w_end = wd + half_filt + 2 * hx
        wf = half_filt + max(2 * hx, 0.65 / lam_N)
        xfold = profile.fold
        sr = profile.alpha
        # fit windows long enough to average out residual ripple
        # (wavelength pi/(lam_N sqrt(rho)) per piece)
        Wl = max(0.45, 2 * np.pi / lam_N)
        Wr = max(0.45, 2 * np.pi / (lam_N * sr))
        bands_l = [(0.0, w_end), (a - w_end, a)]
        bands_r = [(a, a + w_end), (np.pi - w_end, np.pi)]
        degs_r = [2, 2]
        if a + w_end < xfold - wf and xfold + wf < np.pi - w_end:
            bands_r.insert(1, (xfold - wf, xfold + wf))
            degs_r = [2, 3, 2]
        ql = _patch_bands(xg[left], ql, bands_l, Wl, [2, 2], 2 * lam_N)
        qr = _patch_bands(xg[right], qr, bands_r, Wr, degs_r, 2 * lam_N * sr)
    # each piece takes its own factor 4 rho / (sqrt(rho) + 1); the node at
    # x = a lies in both pieces and reports the left limit
    q = np.zeros_like(xg)
    q[right] = qr * (4.0 * profile.alpha**2 / (profile.alpha + 1.0))
    q[left] = ql * 2.0
    return q


def _extended_series(
    profile: DensityProfile,
    data: SpectralData,
    n_slices: int,
    extend: bool,
    n_min: int = 0,
):
    """Shared data-completion step: choose the cap, compute a baseline
    spectrum that covers it, the data and ``n_min`` modes (the count the
    verification suite completes the data to), extend, build series."""
    N = len(data)
    hx = np.pi / n_slices
    lam_cap = extension_cap(hx, [1.0, profile.alpha], lam_top=float(data.lambdas[-1]))
    n_need = int(np.ceil(lam_cap * profile.mu_span / np.pi)) + 8
    baseline = baseline_spectrum(profile, max(n_need, N + 5, n_min))
    if extend:
        # the baseline holds at least N + 5 modes, so n_ext fits in it
        n_ext = max(int(np.searchsorted(baseline.lambdas0, lam_cap)), N)
        data_use = complete_tail(data, baseline, n_ext)
    else:
        data_use = data
    series = KernelSeries(profile, data_use, baseline)
    return series, data_use, baseline, lam_cap


# slice count of the reconstruction grid, shared by the suite's tail completion
N_SLICES = 200


def reconstruct_full(
    profile: DensityProfile,
    data: SpectralData,
    n_slices: int = N_SLICES,
    m: int = 256,
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
    directly, and the x of the slices with the largest condition number
    and residual.  ``verification_suite`` scores the spectral identities
    separately.  A data shape at odds with the 1/n gap asymptotics only
    warns: finite data cannot certify tail behavior, and the solve is
    still defined.
    """
    if len(data) < 4:
        raise ValueError("reconstruction needs at least 4 spectral pairs")
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
        "x_residual_max": float(xg[np.argmax(res)]),
    }
    return ReconstructionResult(xg, q, diag, a0, res, cond, meta)


# ---------------------------------------------------------------------------
# verification suite (transformation-kernel identities)


# eigenvalue shift of the suite's negative control
SHIFT = 0.1


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
    n_modes: int = 40,
    m: int = 256,
    m_boundary: int = 512,
) -> dict:
    """Score the spectral identities of the reconstruction.

    Eigenfunction candidates are built through the solved kernel slices,
    phi_n(x) = phi0(x, lam_n) + int A(x, .) cos(lam_n .), at the nodes of
    one Gauss-Legendre rule per smooth piece, each sized from the top
    frequency of the Gram integrands phi_n phi_m rho (see
    ``_node_count``).  Scores:

    - ``boundary``: max over modes of |phi_n(pi)| / sup_x |phi_n(x)|
      (the eigenvalue condition at the right endpoint; the sup runs over
      the quadrature nodes and x = 0, where phi_n = 1);
    - ``ortho``: max off-diagonal of the rho-weighted Gram matrix,
      normalized by the diagonal;
    - ``norming``: max relative gap between the Gram diagonal and the
      data's norming numbers;
    - ``parseval``: relative completeness gap for f(x) = cos(x/2).

    Modes beyond the measured data (up to ``n_modes``) come from the
    same asymptotic tail completion the reconstruction itself uses, on
    its default grid of ``N_SLICES`` slices, against a baseline spectrum
    computed here for at least ``n_modes`` modes.  The negative control
    re-scores the same solved kernel against data whose eigenvalues are
    shifted by ``SHIFT``: each slice evaluates the candidates of the data
    and of the shifted eigenvalues as one stacked set, and both halves
    are scored alike.  Every score must degrade sharply if the suite has
    any discriminating power.  The result records the node count of each
    piece as ``quadrature_nodes``.
    """
    series, data_use, baseline, _ = _extended_series(
        profile, data, N_SLICES, extend=True, n_min=n_modes
    )
    if len(data_use) < n_modes:
        data_use = complete_tail(data, baseline, n_modes)
    lam = data_use.lambdas[:n_modes]
    al = data_use.normings[:n_modes]
    lams = np.concatenate([lam, lam + SHIFT])

    xs, ws = [], []  # one rule per smooth piece; the weights carry rho
    for lo, hi, srho in ((0.0, profile.a, 1.0), (profile.a, np.pi, profile.alpha)):
        t, w = np.polynomial.legendre.leggauss(_node_count(lams.max(), srho, hi - lo))
        xs.append(lo + 0.5 * (hi - lo) * (t + 1.0))
        ws.append(0.5 * (hi - lo) * srho**2 * w)
    n_nodes = [len(v) for v in xs]
    xs, ws = np.concatenate(xs), np.concatenate(ws)

    # boundary identity from a finer dedicated slice at x = pi
    system_pi = assemble_slice(profile, series, np.pi, m_boundary)
    g_pi = solve_slice(system_pi, estimate_condition=False)
    bvals = delta0(profile, lams) + hat_cos_weights(system_pi.nodes, lams) @ g_pi
    del system_pi  # before the pass, so the two systems' memory peaks do not add

    P = np.empty((len(xs), len(lams)))
    sol = solve_slices(profile, series, xs, m, estimate_condition=False)
    for i, (x, xi, g) in enumerate(zip(xs, sol.nodes, sol.solutions)):
        P[i] = phi0(profile, np.array([x]), lams)[0] + hat_cos_weights(xi, lams) @ g
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
