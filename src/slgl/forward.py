"""Direct-problem oracle: shooting integration of the eigenvalue problem.

Integrates -y'' + q y = lambda^2 rho y with y(0) = 1, y'(0) = 0 by
order-6 Magnus propagators on a mesh that each lambda chooses by itself
(``_mesh``), composed by pairwise products in numpy (``_march``), so
Delta(lambda) = phi(pi, lambda) is a function of lambda alone.
``spectral_data`` brackets each eigenvalue by Sturm counts, refines the
brackets by Anderson-Bjorck steps (``baseline.bisect_many``), and takes
the norming numbers from one complex-step integration matched at the
interface (``_norming_pass``), whose Newton step on Delta certifies
each root.  It returns the ``baseline.SpectralData`` that the inverse
pipeline takes.  The oracle is fully independent of the inverse
pipeline, which imports nothing from it; only the CLI and the package
import it, and it serves as the verification authority for round trips
and asymptotics checks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import factorial, isfinite
from typing import Callable, Optional

import numpy as np

from .baseline import (
    NumericalError,
    SpectralData,
    bisect_many,
    bracket_width,
    certify_indices,
)
from .density import DensityProfile

__all__ = ["PotentialSpec", "spectral_data"]

_COMPLEX_STEP = 1e-20
_EXTENSIONS = 4  # the counting grid gives up at 2**_EXTENSIONS scan windows
_HALVINGS = 40  # halvings of a gap that holds more than one eigenvalue

_NAMED_POTENTIALS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sin": np.sin,
    "cos": np.cos,
}


@dataclass(frozen=True)
class PotentialSpec:
    """A potential q on [0, pi]: preset, named family, or tabulated.

    kinds: ``zero``; ``constant`` (value ``c``, default 0); a named smooth
    family (``sin``, ``cos``, scaled by ``c``, default 1); ``tabulated``
    (samples on a grid, linear interpolation); ``callable`` (any vectorized
    function, mainly for tests).
    """

    kind: str = "zero"
    c: Optional[float] = None
    x_samples: Optional[np.ndarray] = None
    q_samples: Optional[np.ndarray] = None
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.c is None:
            object.__setattr__(self, "c", 1.0 if self.kind in _NAMED_POTENTIALS else 0.0)
        if not isfinite(self.c):
            raise ValueError(f"potential scale c={self.c} must be finite")
        if self.kind in ("zero", "constant") or self.kind in _NAMED_POTENTIALS:
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
            return self.c * _NAMED_POTENTIALS[self.kind](x)
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


# ---------------------------------------------------------------------------
# order-6 Magnus propagators on a mesh chosen per lambda

_LOW_DENSITY = 80  # cells per unit while h |lambda| max(1, alpha) <= 1/2
_BASE_DENSITY = 128  # above that: 128 times a power of two, phase per cell <= 1
_CHUNK = 256  # cells composed per pass (a fixed size keeps Delta point-wise)
_RUN = 32  # fine cells per merged flat cell at most (longer runs put more roots an ulp off)
_GAUSS = np.sqrt(15.0) / 10.0  # Gauss-Legendre nodes at the cell midpoint -/+ _GAUSS h
_INV_FACTORIAL = 1.0 / np.array([factorial(k) for k in range(20)], dtype=float)


def _densities(lams, alpha: float) -> np.ndarray:
    """Cells per unit length for each lambda alone: 80 while
    |lambda| max(1, alpha) <= 40 (a phase of at most 1/2 per cell), else
    128 times the least power of two that keeps h |lambda| max(1, alpha)
    <= 1."""
    phase = np.abs(lams) * max(1.0, alpha)
    low = phase <= 0.5 * _LOW_DENSITY
    if np.count_nonzero(low) == low.size:
        return np.full(phase.shape, float(_LOW_DENSITY))
    high = _BASE_DENSITY * 2.0 ** np.ceil(np.log2(np.maximum(phase / _BASE_DENSITY, 1.0)))
    return np.where(low, float(_LOW_DENSITY), high)


def _mesh(profile: DensityProfile, qf: PotentialSpec, density: float):
    """The mesh on [0, pi] at ``density`` cells per unit: the order-6
    Magnus coefficients of its cells, as columns, the index of its first
    cell right of the interface, and which of its cells are flat (None
    where none is).

    A cell of width h samples q at its three Gauss-Legendre points
    q1, q2, q3; with k2 = (sqrt(15) / 3) h (q3 - q1),
    k3 = (10 / 3) h (q3 - 2 q2 + q1) and u = q2 - lambda^2 rho, its
    exponent is Omega = [[d, f], [e, -d]] with d = a0 + a1 u and
    e = e0 + e1 u (``_propagators``).  With z = lambda^2 the columns are
    f, dc, dz, ec and ez, where d = dc + dz z and e = ec + ez z.  The
    interface and a tabulated q's sample nodes are mesh nodes, so q is
    smooth inside every cell; it is read only at the cells' Gauss points,
    never on a node.  Equal flat cells (q1 == q2 == q3, one rho) are exact
    and commute, so each run of them makes one flat cell of width H
    (f = H, d = 0, e = H u), cut at the interface and after _RUN cells
    (longer runs put more roots an ulp off); only the cells kept take
    coefficients.
    """
    knots = {0.0, profile.a, np.pi}
    if qf.kind == "tabulated":
        knots.update(np.clip(qf.x_samples, 0.0, np.pi).tolist())
    knots = np.array(sorted(knots))
    counts = np.maximum(np.ceil(np.diff(knots) * density), 1).astype(int)
    gap = np.repeat(np.arange(len(counts)), counts)
    step = np.arange(len(gap)) - np.repeat(np.cumsum(counts) - counts, counts)
    start = knots[gap]
    nodes = np.append(start + (knots[gap + 1] - start) * (step / counts[gap]), np.pi)
    edges, h = nodes[:-1], np.diff(nodes)
    mid, gauss = edges + h / 2, _GAUSS * h
    q1, q2, q3 = (np.broadcast_to(qf(x), h.shape)  # a callable q may return a scalar
                  for x in (mid - gauss, mid, mid + gauss))
    rho = np.where(mid < profile.a, 1.0, profile.alpha**2)
    split = int(counts[: int(np.searchsorted(knots, profile.a))].sum())
    flat = (q1 == q2) & (q3 == q2)
    join = np.zeros(len(h), dtype=bool)  # the cell continues a flat run
    join[1:] = flat[1:] & flat[:-1] & (q2[1:] == q2[:-1]) & (rho[1:] == rho[:-1])
    join[split] = False
    if merged := join.any():  # heads: each run's first cell and every _RUN-th after it
        i = np.arange(len(h))
        heads = np.nonzero((i - np.maximum.accumulate(np.where(join, 0, i))) % _RUN == 0)[0]
        width = np.diff(np.append(edges[heads], np.pi))
        h, q1, q2, q3, rho, flat = (v[heads] for v in (h, q1, q2, q3, rho, flat))
        split = int(np.searchsorted(heads, split))
    h3 = h**3
    k2 = np.sqrt(15.0) / 3.0 * h * (q3 - q1)
    k3 = 10.0 / 3.0 * h * (q3 - 2.0 * q2 + q1)
    hk3, hk2 = 4.0 / 3.0 * h * h * k3, h3 * k2 * k2 / 15.0
    a1 = 4.0 / 3.0 * h3 * k2 / 240.0
    e1 = h + (hk3 + hk2) / 240.0
    dc = (-20.0 * h * k2 + h * h * k2 * k3 / 30.0) / 240.0 + a1 * q2  # a0 + a1 q2
    ec = k3 / 12.0 + (h * k3 * k3 / 15.0 - 2.0 * h * k2 * k2) / 240.0 + e1 * q2  # e0 + e1 q2
    cells = [v[:, None] for v in (h + (-hk3 + hk2) / 240.0, dc, -a1 * rho, ec, -e1 * rho)]
    if merged:  # a flat cell's d is 0 already
        for k, v in zip((0, 3, 4), (width, width * q2, -width * rho)):
            cells[k][flat, 0] = v[flat]
    return cells, split, flat if flat.any() else None


def _cosh_sinhc(z):
    """cosh(s) and sinh(s) / s where s**2 = z.

    Both are even in s, so either root gives the same values.  Real z
    takes real cos / sin (or cosh / sinh where z > 0).  Complex z takes
    the Taylor series in z where |z| <= 1 (its terms beyond z^9 are below
    1e-18) and the closed form elsewhere: the closed form's sinh(s) / s
    cancels in its imaginary part at small |s|, which cost the
    complex-step normings up to 1e-11.
    """
    if np.iscomplexobj(z):
        small = np.abs(z) <= 1.0
        if small.all():  # one branch on all of z, without a gather or scatter
            return _series(z)
        c, sc = np.empty_like(z), np.empty_like(z)
        c[small], sc[small] = _series(z[small])
        s = np.sqrt(z[~small])
        c[~small], sc[~small] = np.cosh(s), np.sinh(s) / s
        return c, sc
    w = np.abs(z)
    np.sqrt(w, out=w)
    c, sn = np.cos(w), np.sin(w)
    grow = z > 0
    if np.count_nonzero(grow):
        c[grow], sn[grow] = np.cosh(w[grow]), np.sinh(w[grow])
    zero = w == 0  # where sinh(s) / s is 1
    w[zero] = 1.0
    sn /= w
    sn[zero] = 1.0
    return c, sn


def _series(z):
    """cosh(s) and sinh(s) / s, s**2 = z, by their Taylor series in z (out of place:
    numpy's in-place product of one complex entry rounds apart)."""
    c, sc = _INV_FACTORIAL[18], _INV_FACTORIAL[19]
    for k in range(8, -1, -1):
        c = c * z + _INV_FACTORIAL[2 * k]
        sc = sc * z + _INV_FACTORIAL[2 * k + 1]
    return c, sc


def _propagators(cells, lam2) -> np.ndarray:
    """exp(Omega) per cell and lambda, shape (2, 2, cells, lams).

    Omega = [[d, f], [e, -d]] is the order-6 Magnus exponent of
    Y' = [[0, 1], [q - lam^2 rho, 0]] Y (Blanes, Casas & Ros, BIT 40,
    2000): only the (1, 0) entry of that matrix varies in a cell and rho
    is constant there, so Omega stays traceless, and d and e are linear in
    lam^2 (``_mesh``).  exp(Omega) = cosh(s) I + sinh(s) / s Omega with
    s^2 = d^2 + f e.  On a q that is constant in the cell, d = 0, f = h
    and e = h (q - lam^2 rho), and the cell is exact, as in the
    constant-perturbation methods (Ledoux, Van Daele & Vanden Berghe, ACM
    TOMS 31, 2005).
    """
    f, dc, dz, ec, ez = cells
    d = dz * lam2
    d += dc
    e = ez * lam2
    e += ec
    z = d * d
    z += f * e
    c, sc = _cosh_sinhc(z)
    m = np.empty((2, 2) + d.shape, dtype=d.dtype)
    d *= sc
    np.add(c, d, out=m[0, 0])
    np.subtract(c, d, out=m[1, 1])
    np.multiply(sc, f, out=m[0, 1])
    np.multiply(sc, e, out=m[1, 0])
    return m


def _compose(first, second):
    """second @ first for stacks of 2x2 matrices on the two leading axes."""
    product = second[:, :1] * first[0]
    product += second[:, 1:] * first[1]
    return product


def _tree(m, keep: bool):
    """Pairwise products over the cell axis, level by level: the first
    level is m itself, the last holds the whole product m_k ... m_1 m_0.
    Without ``keep`` only the last level is returned."""
    levels = [m]
    while m.shape[2] > 1:
        k = m.shape[2] // 2
        pairs = _compose(m[:, :, 0 : 2 * k : 2], m[:, :, 1 : 2 * k : 2])
        m = pairs if m.shape[2] == 2 * k else np.concatenate([pairs, m[:, :, -1:]], axis=2)
        levels = levels + [m] if keep else [m]
    return levels


def _left_states(levels, s):
    """(phi, phi') at the left node of every cell, shape (2, cells, lams),
    carried down the tree from the state s, shape (2, 1, lams), at the
    first node.  Each level is taken off ``levels`` once used, so it is
    freed on the way down."""
    levels.pop()  # the whole product
    while levels:
        m = levels.pop()
        k = m.shape[2] // 2
        first = m[:, :, 0 : 2 * k : 2]  # the first block of each pair
        below = np.empty((2,) + m.shape[2:], dtype=s.dtype)
        below[:, 0::2] = s
        below[:, 1::2] = first[:, 0] * s[0, :k] + first[:, 1] * s[1, :k]
        s = below
    return s


def _flat_zeros(cells, flat, lam2, ys) -> np.ndarray:
    """Per lambda, the zeros of phi that the node sign changes miss on the
    flat cells of phase w = H sqrt(lambda^2 rho - q) > pi (``ys``: phi and
    phi' on the nodes).  There phi = r sin(omega s + theta), omega = w / H,
    so the Pruefer angle theta = atan2(phi, phi' / omega) turns by w across
    the cell, which holds 2 rint((theta_l + w - theta_r) / 2 pi) +
    signbit(phi_l) - signbit(phi_r) zeros, of the node sign change's parity."""
    w2 = -cells[0] * (cells[3] + cells[4] * lam2)  # f = H, e = H (q - lambda^2 rho)
    cell, lam = np.nonzero(flat[:, None] & (w2 > np.pi**2))
    w, h = np.sqrt(w2[cell, lam]), cells[0][cell, 0]
    y, dy = ys[:, np.array([cell, cell + 1]), lam]  # phi and phi' at the cells' two ends
    theta = np.arctan2(y * w, dy * h)
    turns = np.rint((theta[0] + w - theta[1]) / (2 * np.pi))
    if not np.all(np.abs(turns) < 2.0**40):  # a NaN state, or a phase beyond counting
        raise NumericalError("ODE integration lost the phase of a flat cell")
    extra = 2 * (turns - (np.signbit(y[1]) & ~np.signbit(y[0])))  # less the node sign change
    return np.bincount(lam, extra, len(lam2)).astype(int)


def _march(cells, lam2, columns: int, count_zeros: bool = False, flat=None):
    """Carry the first ``columns`` columns of the identity across the
    cells, _CHUNK cells at a time, shape (2, columns, lams): one column is
    the state (phi, phi') from (1, 0) at the first node, two are the
    propagator across all the cells.  With ``count_zeros`` (one column)
    also count the zeros of phi on (0, pi]: its sign changes on the mesh
    nodes, the last one included, and those of ``flat`` cells that these
    miss (``_flat_zeros``); without it the count is None.  The first
    chunk's product is taken as it is, not composed with the identity.  A
    state that overflows raises here; ``spectral_data`` silences numpy's
    warnings once per call."""
    v = None  # the identity's columns until the first chunk
    zeros = np.zeros(lam2.shape, dtype=int) if count_zeros else None
    for i in range(0, len(cells[0]), _CHUNK):
        chunk = cells if len(cells[0]) <= _CHUNK else [c[i : i + _CHUNK] for c in cells]
        levels = _tree(_propagators(chunk, lam2), count_zeros)
        whole = levels[-1][:, :, 0]
        nxt = whole[:, :columns] if v is None else _compose(v, whole)
        if count_zeros:
            left = _left_states(levels, np.array([1.0, 0.0])[:, None, None] if v is None else v)
            signs = np.signbit(np.concatenate([left[0], nxt[0]]))
            zeros += np.count_nonzero(signs[1:] != signs[:-1], axis=0)
            if flat is not None and flat[i : i + _CHUNK].any():
                ys = np.concatenate([left, nxt], axis=1)  # (phi, phi') on the nodes
                zeros += _flat_zeros(chunk, flat[i : i + _CHUNK], lam2, ys)
        v = nxt
    if np.count_nonzero(np.isfinite(v)) < v.size:
        raise NumericalError("ODE integration produced non-finite state")
    return v, zeros


def _blocks(profile: DensityProfile, qf: PotentialSpec, lams, meshes):
    """Each density's mesh (``_mesh``) with the indices of all the lambdas
    that take it: each lambda is integrated on the mesh of its own
    density, and a pass integrates the lambdas of one density at once
    (all of them, as a slice, where they share one density).  A caller's
    ``meshes`` dict keeps each density's mesh for its next pass."""
    # every pass runs these tests: np.count_nonzero costs less than np.all / .all()
    if np.count_nonzero(np.isfinite(lams)) < lams.size:
        raise NumericalError("ODE integration asked for a non-finite lambda")
    dens = _densities(lams, profile.alpha)
    meshes = {} if meshes is None else meshes
    single = np.count_nonzero(dens == dens[:1]) == dens.size
    for density in dens[:1].tolist() if single else set(dens.tolist()):
        if density not in meshes:
            meshes[density] = _mesh(profile, qf, density)
        yield meshes[density], slice(None) if single else np.nonzero(dens == density)[0]


def _propagate(profile: DensityProfile, qf: PotentialSpec, lams, count_zeros=False,
               meshes=None):
    """(phi(pi), phi'(pi)) per lambda and, with ``count_zeros``, the zeros
    of phi on (0, pi]: by Sturm oscillation, the number of eigenvalues
    lambda_n^2 <= lambda^2.  Lambdas sharing a density go together.

    The mesh depends on each lambda alone (``_densities``), so every entry
    is the same whatever else the call holds.  phi and phi' carry over the
    interface continuously (the transmission condition).  Complex ``lams``
    run in complex arithmetic (the complex step of ``_norming_pass``); real
    ones stay real.
    """
    ys = np.empty((2, len(lams)), dtype=lams.dtype)
    zeros = np.empty(len(lams), dtype=int) if count_zeros else None
    for (cells, _, flat), idx in _blocks(profile, qf, lams, meshes):
        v, counted = _march(cells, lams[idx] ** 2, 1, count_zeros, flat)
        ys[:, idx] = v[:, 0]
        if count_zeros:
            zeros[idx] = counted
    return ys[0], ys[1], zeros


def _roots(profile: DensityProfile, qf: PotentialSpec, n_max: int, meshes) -> np.ndarray:
    """The first ``n_max`` positive zeros of Delta, each bracketed and
    indexed by the Sturm counts at its bracket ends, and refined until its
    secant point settles.  That last point is not evaluated:
    ``spectral_data``'s Newton step certifies it."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    step = np.pi / (2.0 * profile.mu_span)  # half the asymptotic spacing
    # the grid gives up beyond 2**_EXTENSIONS windows (n_max + 5) pi / mu_span + 2
    limit = int(np.ceil(((n_max + 5) * np.pi / profile.mu_span + 2.0) / step)) << _EXTENSIONS
    lams = step * np.arange(2 * n_max + 4)
    vals, _, counts = _propagate(profile, qf, lams, count_zeros=True, meshes=meshes)
    # an eigenvalue with lambda^2 <= 0 shifts every index: the first
    # positive eigenfunction would change sign counts[0] times
    certify_indices(counts[:1], "forward")
    while counts[-1] < n_max:
        if len(lams) >= limit:
            raise NumericalError(
                f"the Sturm count reaches only {counts[-1]} of {n_max} "
                f"eigenvalues on [0, {lams[-1]:.3f}]"
            )
        # two points per missing eigenvalue and two spacings more
        more = step * np.arange(len(lams), len(lams) + 2 * (n_max - counts[-1]) + 4)
        more_vals, _, more_counts = _propagate(profile, qf, more, count_zeros=True,
                                               meshes=meshes)
        lams, vals = np.concatenate([lams, more]), np.concatenate([vals, more_vals])
        counts = np.concatenate([counts, more_counts])
    end = int(np.argmax(counts >= n_max)) + 1
    lams, vals, counts = lams[:end], vals[:end], counts[:end]
    for halvings in range(_HALVINGS + 1):
        jumps = np.diff(counts)
        if np.any(jumps < 0):
            k = int(np.argmax(jumps < 0))
            raise NumericalError(
                f"the Sturm count falls from {counts[k]} to {counts[k + 1]} "
                f"between lambda = {lams[k]:.6f} and {lams[k + 1]:.6f}"
            )
        wide = np.nonzero((jumps > 1) & (counts[:-1] < n_max))[0]
        if not len(wide):
            break
        if halvings == _HALVINGS:
            raise NumericalError(
                f"eigenvalues near lambda = {lams[wide[0]]:.6f} are closer than "
                f"{step / 2**_HALVINGS:.1e} and cannot be bracketed apart"
            )
        mid = 0.5 * (lams[wide] + lams[wide + 1])
        mid_vals, _, mid_counts = _propagate(profile, qf, mid, count_zeros=True, meshes=meshes)
        lams, vals = np.insert(lams, wide + 1, mid), np.insert(vals, wide + 1, mid_vals)
        counts = np.insert(counts, wide + 1, mid_counts)
    # each gap now holds at most one eigenvalue, and Delta changes sign
    # across exactly those that hold one
    hit = np.nonzero((jumps == 1) & (counts[1:] <= n_max))[0]
    certify_indices(counts[hit], "forward")
    return bisect_many(
        lambda ls: _propagate(profile, qf, ls, meshes=meshes)[0],
        lams[hit], lams[hit + 1], vals[hit], vals[hit + 1],
    )


def _norming_pass(profile: DensityProfile, qf: PotentialSpec, lams, meshes=None):
    """Normings alpha_n = int rho phi(., lambda_n)^2, exact at eigenvalues
    only, and the Newton step on Delta, from one integration at
    lambda + i eps matched at the interface.

    With z = lambda^2 and psi = d phi / d z, the Wronskian
    W = phi' psi - phi psi' of a solution whose (phi, phi') is fixed at one
    end vanishes there and has derivative rho phi^2, so it integrates
    rho phi^2 from that end.  phi_L, fixed at x = 0, and phi_R, fixed at
    x = pi, each take it to x = a, and the eigenfunction is phi_L on
    [0, a] and c phi_R on [a, pi], c matching the two at a.  Neither
    solution crosses the piece on which the other is fixed, so a mode that
    decays across a piece costs no digits; at other lambda the two do not
    match, and the sum is a smooth continuation, not an integral of one
    solution.  One integration at lambda + i eps gives
    psi = Im phi / (2 lambda eps) to rounding (the complex step; Squire &
    Trefethen, SIAM Rev. 40, 1998), with no cancellation, so eps needs no
    tuning.

    phi_L runs from (1, 0) at x = 0 across the cells left of a.  The
    product P of the cells right of a gives (phi_R, phi_R')(a) =
    (-P01, P00), the solution with phi_R(pi) = 0 and phi_R'(pi) = 1.  So
    W_L(a) = int_0^a rho phi_L^2 and -W_R(a) = int_a^pi rho phi_R^2.  c is
    the least-squares match of (phi_L, phi_L' / omega) to
    (phi_R, phi_R' / omega) at a, omega = lambda alpha, and the norming is
    W_L(a) - c^2 W_R(a).  Delta = P00 phi_L(a) + P01 phi_L'(a): its real
    part is Delta and its imaginary part over eps is d Delta / d lambda.
    """
    als, newton = np.empty_like(lams), np.empty_like(lams)
    lams_c = lams + 1j * _COMPLEX_STEP
    for (cells, split, _), idx in _blocks(profile, qf, lams_c, meshes):
        lam2 = lams_c[idx] ** 2
        left = _march([c[:split] for c in cells], lam2, 1)[0][:, 0]  # (phi_L, phi_L')(a)
        p = _march([c[split:] for c in cells], lam2, 2)[0]
        right = np.array([-p[0, 1], p[0, 0]])  # (phi_R, phi_R')(a)
        w_left, w_right = (
            (dy.real * y.imag - y.real * dy.imag) / (2.0 * lams[idx] * _COMPLEX_STEP)
            for y, dy in (left, right)
        )
        (yl, dyl), (yr, dyr) = left.real, right.real
        omega2 = (lams[idx] * profile.alpha) ** 2
        c = (yl * yr + dyl * dyr / omega2) / (yr * yr + dyr * dyr / omega2)
        als[idx] = w_left - c * c * w_right
        delta = p[0, 0] * left[0] + p[0, 1] * left[1]
        newton[idx] = delta.real * _COMPLEX_STEP / delta.imag
    return als, newton


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # overflow raises in _march
def spectral_data(profile: DensityProfile, q, n_max: int) -> SpectralData:
    """Forward oracle: the first ``n_max`` eigenvalues and their norming
    numbers as SpectralData.

    One counting pass on 2 n_max + 4 points of a grid of two points per
    asymptotic spacing pi / mu_plus(pi) gives Delta and, by Sturm
    oscillation, the number of eigenvalues below each grid point.  While
    that count falls short of ``n_max`` the grid is extended by two points
    per missing eigenvalue and two spacings more, and only gaps holding
    more than one eigenvalue are halved, so each eigenvalue has a bracket
    of its own; the counts at its ends certify its index.  Safeguarded
    Anderson-Bjorck steps refine the brackets from the end values the pass
    already has, and each stops where its secant point settles (it moved
    by less than sqrt(tol), and that move squared is at most tol / 4 times
    the larger of the two moves before it), without evaluating it; q = sin
    on (pi/2, 2) takes 208 lambdas in 8 passes at 30 modes, 608 at 90.
    The norming pass at lambda_n + i eps (``_norming_pass``) gives a
    free Newton step delta on Delta, which certifies the root where
    |delta| <= tol, the brackets' own stop width (``bracket_width`` of
    lambda_n); the root is then lambda_n - delta, and
    the norming is the one at lambda_n, which moves by less than 1e-11
    relative across that width.  A root whose step misses gets a second
    norming pass at lambda_n - delta, and one that misses again raises
    ``NumericalError``.  Every pass of the call shares each density's
    mesh, so Delta is point-wise and the roots are zeros of Delta wherever
    a later call evaluates it.  An eigenvalue with
    lambda^2 <= 0, a bracket at another index, or a norming number that is
    not positive and finite (W_L(a) - c^2 W_R(a) cancels where phi_L grows
    by e^200 across the left piece) raises ``NumericalError``.
    """
    qf = _as_potential(q)
    meshes = {}  # density -> mesh, shared by every pass of this call
    lams = _roots(profile, qf, operator.index(n_max), meshes)
    als, newton = _norming_pass(profile, qf, lams, meshes)
    tol = bracket_width(lams)
    miss = np.nonzero(~(np.abs(newton) <= tol))[0]
    if len(miss):
        lams[miss] -= newton[miss]
        als[miss], newton[miss] = _norming_pass(profile, qf, lams[miss], meshes)
        far = miss[~(np.abs(newton[miss]) <= tol[miss])]
        if len(far):
            raise NumericalError(
                f"eigenvalue {far[0] + 1} near lambda = {lams[far[0]]:.6f}: its Newton "
                f"step {newton[far[0]]:.1e} exceeds {tol[far[0]]:.1e} after a second step"
            )
    lost = np.nonzero(~(np.isfinite(als) & (als > 0)))[0]
    if len(lost):
        raise NumericalError(f"eigenvalue {lost[0] + 1} near lambda = {lams[lost[0]]:.6f}: its "
                             f"norming number {als[lost[0]]:.3e} is not positive and finite")
    return SpectralData(profile=profile, lambdas=lams - newton, normings=als)
