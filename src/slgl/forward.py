"""Direct-problem oracle: shooting integration of the eigenvalue problem.

Integrates -y'' + q y = lambda^2 rho y with y(0) = 1, y'(0) = 0 by
order-4 Magnus propagators: each mesh cell samples q at its two
Gauss-Legendre points and contributes the closed-form exponential of a
traceless 2x2 matrix, and the cell matrices are composed by pairwise
products in numpy.  The density interface and a tabulated q's sample
nodes are mesh nodes, so q is read from inside each cell.  Each lambda
takes its own mesh (cells no wider than 1/128 and than 1 / (|lambda|
max(1, alpha))), so Delta(lambda) = phi(pi, lambda) is a function of
lambda alone; one call builds each density's mesh once for all its
passes.  One counting pass over a grid of two points per asymptotic
eigenvalue spacing, sized to the requested spectrum, gives Delta and, by
Sturm oscillation, the number of eigenvalues below each grid point, so
each root is bracketed, and the counts at its bracket ends certify its
index.  Safeguarded Anderson-Bjorck steps (``baseline.bisect_many``)
refine the brackets from the end values the pass already has.  The
norming numbers alpha_n = int rho phi(., lambda_n)^2 come from the
Wronskian of phi and d phi / d lambda^2, evaluated by one complex-step
integration, which also gives each root a last Newton step.  The oracle
is fully independent of the inverse pipeline and serves as its
verification authority for round trips and asymptotics checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable, Optional

import numpy as np

from .baseline import (
    BRACKET_WIDTH,
    BaselineSpectrum,
    NumericalError,
    bisect_many,
    certify_indices,
)
from .density import DensityProfile

__all__ = [
    "AsymptoticsReport",
    "PotentialSpec",
    "SpectralData",
    "check_asymptotics",
    "integrate_phi",
    "norming_numbers",
    "spectral_data",
]

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
# order-4 Magnus propagators on a mesh chosen per lambda

_BASE_DENSITY = 128  # cells per unit length at low frequency
_PHASE_PER_CELL = 1.0  # bound on h |lambda| sqrt(rho) in every cell
_CHUNK = 256  # cells composed per pass (a fixed size keeps Delta point-wise)
_BLOCK = 32  # lambdas per pass; with _CHUNK it bounds the temporaries
_GAUSS = np.sqrt(3.0) / 6.0  # Gauss-Legendre nodes at the cell midpoint -/+ _GAUSS h
_INV_FACTORIAL = 1.0 / np.array([factorial(k) for k in range(20)], dtype=float)


def _densities(lams, alpha: float) -> np.ndarray:
    """Cells per unit length for each lambda alone: 128 times the least
    power of two that keeps h |lambda| max(1, alpha) <= 1."""
    need = np.abs(lams) * max(1.0, alpha) / (_PHASE_PER_CELL * _BASE_DENSITY)
    return _BASE_DENSITY * 2.0 ** np.ceil(np.log2(np.maximum(need, 1.0)))


def _mesh(profile: DensityProfile, qf: PotentialSpec, density: float):
    """Per-cell h, mean q at the two Gauss points, the Magnus commutator
    coefficient, rho, h^2 and the commutator's square, as columns, on
    [0, pi] at ``density`` cells per unit.

    The interface and a tabulated q's sample nodes are mesh nodes, so q is
    smooth inside every cell; it is read only at the cells' Gauss points,
    never on a node.
    """
    knots = {0.0, profile.a, np.pi}
    if qf.kind == "tabulated":
        knots.update(np.clip(qf.x_samples, 0.0, np.pi).tolist())
    knots = np.array(sorted(knots))
    counts = np.maximum(np.ceil(np.diff(knots) * density), 1).astype(int)
    gap = np.repeat(np.arange(len(counts)), counts)
    step = np.arange(len(gap)) - np.repeat(np.cumsum(counts) - counts, counts)
    edges = knots[gap] + (knots[gap + 1] - knots[gap]) * (step / counts[gap])
    h = np.diff(np.append(edges, np.pi))
    mid = edges + h / 2
    q1, q2 = qf(mid - _GAUSS * h), qf(mid + _GAUSS * h)
    comm = np.sqrt(3.0) / 12.0 * h**2 * (q1 - q2)
    rho = np.where(mid < profile.a, 1.0, profile.alpha**2)
    return [v[:, None] for v in (h, 0.5 * (q1 + q2), comm, rho, h * h, comm * comm)]


def _cosh_sinhc(z):
    """cosh(s) and sinh(s) / s where s**2 = z.

    Both are even in s, so either root gives the same values.  Real z
    takes real cos / sin (or cosh / sinh where z > 0), and so does every
    entry of a complex z with zero imaginary part: a real lambda given as
    complex reproduces the real result bitwise.  Other complex z take the
    Taylor series in z where |z| <= 1 (its terms beyond z^9 are below
    1e-18): the closed form's sinh(s) / s cancels in its imaginary part at
    small |s|, which cost the complex-step normings up to 1e-11.
    """
    if np.iscomplexobj(z):
        off = z.imag != 0
        if off.all():
            c, sc = np.empty_like(z), np.empty_like(z)
        else:
            c, sc = (r.astype(complex) for r in _cosh_sinhc(np.ascontiguousarray(z.real)))
        small = off & (np.abs(z) <= 1.0)
        if small.any():
            zs = z[small]
            cs, ss = _INV_FACTORIAL[18], _INV_FACTORIAL[19]
            for k in range(8, -1, -1):
                cs = cs * zs + _INV_FACTORIAL[2 * k]
                ss = ss * zs + _INV_FACTORIAL[2 * k + 1]
            c[small], sc[small] = cs, ss
        large = off & ~small
        if large.any():
            s = np.sqrt(z[large])
            c[large], sc[large] = np.cosh(s), np.sinh(s) / s
        return c, sc
    w = np.sqrt(np.abs(z))
    c, sn = np.cos(w), np.sin(w)
    grow = z > 0
    if grow.any():
        c[grow], sn[grow] = np.cosh(w[grow]), np.sinh(w[grow])
    return c, np.divide(sn, w, out=np.ones_like(w), where=w > 0)


def _propagators(cells, lam2) -> np.ndarray:
    """exp(Omega) per cell and lambda, shape (2, 2, cells, lams).

    Omega = [[d, h], [h g, -d]] is the order-4 Magnus exponent of
    Y' = [[0, 1], [q - lam^2 rho, 0]] Y: g is the mean of q - lam^2 rho at
    the two Gauss points and d the commutator term.  Omega is traceless,
    so exp(Omega) = cosh(s) I + sinh(s) / s Omega with s^2 = -det Omega.
    """
    h, qbar, comm, rho, hh, cc = cells
    g = qbar - rho * lam2
    c, sc = _cosh_sinhc(cc + hh * g)
    m = np.empty((2, 2) + g.shape, dtype=g.dtype)
    m[0, 0] = c + sc * comm
    m[1, 1] = c - sc * comm
    m[0, 1] = sc * h
    m[1, 0] = m[0, 1] * g
    return m


def _compose(first, second):
    """second @ first for stacks of 2x2 matrices on the two leading axes."""
    return second[:, :1] * first[0] + second[:, 1:] * first[1]


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


def _left_states(levels, v):
    """(phi, phi') at the left node of every cell, shape (2, cells, lams),
    carried down the tree from the state v at the first node.  Each level
    is taken off ``levels`` once used, so it is freed on the way down."""
    s = v[:, None]
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


def _march(cells, lam2, count_zeros: bool):
    """Carry (phi, phi') from x = 0 to pi across the cells, _CHUNK cells
    at a time; with ``count_zeros`` also count the sign changes of phi on
    the mesh nodes, x = pi included."""
    v = np.zeros((2,) + lam2.shape, dtype=lam2.dtype)
    v[0] = 1.0
    zeros = np.zeros(lam2.shape, dtype=int)
    for i in range(0, len(cells[0]), _CHUNK):
        levels = _tree(_propagators([c[i : i + _CHUNK] for c in cells], lam2), count_zeros)
        t = levels[-1][:, :, 0]
        nxt = t[:, 0] * v[0] + t[:, 1] * v[1]
        if count_zeros:
            phis = np.concatenate([_left_states(levels, v)[0], nxt[:1]])
            signs = np.signbit(phis)
            zeros += np.count_nonzero(signs[1:] != signs[:-1], axis=0)
        v = nxt
    if not np.all(np.isfinite(v)):
        raise NumericalError("ODE integration produced non-finite state")
    return v, zeros


def _propagate(profile: DensityProfile, qf: PotentialSpec, lams, count_zeros=False,
               meshes=None):
    """(phi(pi), phi'(pi)) per lambda and, with ``count_zeros``, the sign
    changes of phi on the mesh nodes, x = pi included: by Sturm oscillation,
    the number of eigenvalues lambda_n^2 <= lambda^2.  Each lambda is
    integrated on the mesh of its own density; lambdas sharing one go
    together.  A caller's ``meshes`` dict keeps each density's mesh for its
    next pass."""
    if not np.all(np.isfinite(lams)):
        raise NumericalError("ODE integration asked for a non-finite lambda")
    y, dy = np.empty_like(lams), np.empty_like(lams)
    zeros = np.empty(len(lams), dtype=int)
    dens = _densities(lams, profile.alpha)
    meshes = {} if meshes is None else meshes
    for density in set(dens.tolist()):
        if density not in meshes:
            meshes[density] = _mesh(profile, qf, density)
        cells = meshes[density]
        group = np.nonzero(dens == density)[0]
        for j in range(0, len(group), _BLOCK):
            idx = group[j : j + _BLOCK]
            (y[idx], dy[idx]), zeros[idx] = _march(cells, lams[idx] ** 2, count_zeros)
    return y, dy, zeros


def integrate_phi(profile: DensityProfile, q, lams):
    """Integrate to x = pi for each lambda; returns (phi(pi), phi'(pi)).

    Order-4 Magnus propagators (Iserles & Norsett, 1999; the CPM family of
    Ledoux, Van Daele & Vanden Berghe, ACM TOMS 31, 2005) on cells no wider
    than min(1/128, 1 / (|lambda| max(1, alpha))), with the interface and
    a tabulated q's sample nodes as mesh nodes, composed by pairwise matrix
    products.  The mesh depends on each lambda alone, so every entry is the
    same whatever else the call holds.  phi and phi' carry over the
    interface continuously (the transmission condition).  Complex ``lams``
    run in complex arithmetic (the complex step of ``norming_numbers``);
    real ones stay real.
    """
    qf = _as_potential(q)
    lams = np.atleast_1d(lams)
    lams = np.asarray(lams, dtype=complex if np.iscomplexobj(lams) else float)
    y, dy, _ = _propagate(profile, qf, lams)
    return y, dy


def _roots(profile: DensityProfile, qf: PotentialSpec, n_max: int, meshes) -> np.ndarray:
    """The first ``n_max`` positive zeros of Delta, each bracketed and
    indexed by the Sturm counts at its bracket ends."""
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
    hit = np.nonzero((np.diff(counts) == 1) & (counts[1:] <= n_max))[0]
    certify_indices(counts[hit], "forward")
    return bisect_many(
        lambda ls: _propagate(profile, qf, ls, meshes=meshes)[0],
        lams[hit], lams[hit + 1], vals[hit], vals[hit + 1],
    )


def _norming_pass(profile: DensityProfile, qf: PotentialSpec, lams, meshes=None):
    """Normings and the Newton step on Delta from one integration at
    lambda + i eps: there Re phi(pi) is Delta and Im phi(pi) / eps is
    d Delta / d lambda."""
    y, dy, _ = _propagate(profile, qf, lams + 1j * _COMPLEX_STEP, meshes=meshes)
    als = (dy.real * y.imag - y.real * dy.imag) / (2.0 * lams * _COMPLEX_STEP)
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = y.real * _COMPLEX_STEP / y.imag
    return als, newton


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
    return _norming_pass(profile, _as_potential(q), lams)[0]


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
    Anderson-Bjorck steps refine the brackets to a width of 1e-13 from the
    end values the pass already has.  The norming pass at lambda_n + i eps
    then gives a free Newton step on Delta, applied where it is within
    that width; the normings are those at the unpolished roots.  Every
    pass of the call shares each density's mesh.  Delta is point-wise
    (each lambda has its own mesh), so the roots are zeros of Delta
    wherever a later call evaluates it.  An eigenvalue with lambda^2 <= 0,
    or a bracket at another index, raises ``NumericalError``.
    """
    qf = _as_potential(q)
    meshes = {}  # density -> mesh, shared by every pass of this call
    lams = _roots(profile, qf, n_max, meshes)
    als, newton = _norming_pass(profile, qf, lams, meshes)
    lams = np.where(np.abs(newton) <= BRACKET_WIDTH, lams - newton, lams)
    return SpectralData(profile=profile, lambdas=lams, normings=als)


@dataclass(frozen=True)
class AsymptoticsReport:
    """Scaled eigenvalue gaps against the baseline and their suprema.

    The eigenvalue and norming gaps of admissible data decay like 1/n, so
    the scaled sequences n (lambda_n - lambda_n^0) and
    n (alpha_n - alpha_n^0) stay bounded; ``bounded`` records whether the
    caps of ``check_asymptotics`` held over the computed range.
    """

    scaled_gaps: np.ndarray
    sup_scaled_gap: float
    sup_scaled_norming_gap: float
    bounded: bool


def check_asymptotics(data: SpectralData, baseline: BaselineSpectrum) -> AsymptoticsReport:
    """Compare data with the baseline spectrum and score the 1/n decay;
    the data count as bounded when the scaled gaps stay within 5 and the
    scaled norming gaps within 20."""
    if data.profile != baseline.profile:
        raise ValueError("spectral data and baseline refer to different profiles")
    n = min(len(data), baseline.n_max)
    idx = np.arange(1, n + 1)
    scaled = idx * (data.lambdas[:n] - baseline.lambdas0[:n])
    sup_gap = float(np.abs(scaled).max())
    sup_norming = float(np.abs(idx * (data.normings[:n] - baseline.normings0[:n])).max())
    return AsymptoticsReport(
        scaled_gaps=scaled,
        sup_scaled_gap=sup_gap,
        sup_scaled_norming_gap=sup_norming,
        bounded=sup_gap <= 5.0 and sup_norming <= 20.0,
    )
