"""Slice-by-slice discretization and solve of the main integral equation.

For each position x the transformation kernel g(xi) = A(x, xi) on
[0, mu_plus(x)] satisfies a second-kind integral equation.  After the
change of variables s = mu_plus(t) the collocation row at node s_i reads

    g(s_i) [1 if s_i <= a, else 2 / (1 + alpha)]           (identity part)
  + sum_{k>=1} g(s_i) beta^k A(x, s_i + 2 a k)             (transmitted images)
  + [s_i <= a]  sum_{k>=0} beta^{k+1} A(x, 2a - s_i + 2 a k)
                                                            (reflected images)
  + integral_0^{mu_plus(x)} A(x, xi) F0(xi, t_i) d xi  =  -F(x, t_i),

with beta = (1 - alpha) / (1 + alpha) the interface reflection
coefficient and t_i the point with mu_plus(t_i) = s_i.  Every row is
built from s_i alone: mu_minus(t_i) = 2a - s_i, and t_i lies on the left
piece exactly when s_i <= a, so t_i itself is never formed.  Image
targets beyond mu_plus(x) vanish (the kernel is zero-extended past its
support).  The reflected-image sum stays active at s_i = a: there its
leading term lands on the diagonal and 1 + beta = 2 / (1 + alpha)
matches the right-piece identity coefficient, so the discrete rows are
continuous across the interface.

The quadrature term uses product integration: A is represented as
piecewise linear on the slice grid and integrated against the cosine
series of F0 in closed form.  Integrated by parts, the weights come from
one cos(lam s) table of the nodes, and so does F0 at the nodes (see
``KernelSeries.tables``).  One builder, ``_matrix``, stamps the identity
and the image ladders onto those tables' product, for a dense slice and
for the lattice matrix G alike.

Every slice takes its nodes from one lattice per profile, spacing a/n1
with m intervals across [0, mu_plus(pi)], so every image target 2ak away
lands exactly on a node; the node at a is a itself.  A slice keeps the
lattice nodes below its top mu_plus(x) and closes at the top; a fixed
narrow node pair straddles the kernel's jump at |mu_minus(x)| so the jump
geometry is independent of grid refinement.

On one lattice the slices are nested: a slice's matrix is a leading block
of the pure-lattice matrix G with a few columns changed (the last lattice
node's half-hat, a node displaced by the pair and its neighbours),
bordered by the top node and the pair.  ``solve_slices`` therefore
borders G's leading blocks in one pass, updating their inverse in place,
and solves each slice from it by a Woodbury update of rank at most 9
(Gohberg & Krein 1970 read the equation as a triangular factorisation of
I + F).  The pass returns one ``SliceSolutions`` record, which
``reconstruct_full`` reads directly.  The pass yields each slice it
stands at as a ``BorderedSlice``; ``solve_slices`` still sends it through
``assemble_slice``, which returns it as it is, and ``solve_slice``, only
because the benchmark's tracer counts slices by those calls
(``perfbench/tests/test_tracing.py`` asserts one of each per slice);
ROADMAP direction 14 removes that pin.  On their own they assemble and
solve one dense ``SliceSystem``, for single slices and for any slice the
pass cannot certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baseline import NumericalError
from .density import DensityProfile
from .kernels import KernelSeries

__all__ = [
    "BorderedSlice",
    "SliceSystem",
    "SliceSolutions",
    "assemble_slice",
    "slice_nodes",
    "solve_slice",
    "solve_slices",
]

RESIDUAL_GATE = 1e-10
NODES_PER_SLICE = 256  # the default intervals m per slice, for every entry point
MIN_NODES_PER_SLICE = 8  # the least m a slice takes
_CHUNK = 16  # slices whose tables the bordered pass builds at once


def _lattice(profile: DensityProfile, m: int, top: float):
    """The node lattice: spacing h = a/n1 with n1 = round(a m / mu_span), so
    m intervals span [0, mu_plus(pi)], and its nodes j h up to top + h,
    with node n1 set to a exactly.  Returns (h, n1, nodes)."""
    a = profile.a
    n1 = max(2, int(round(a * m / profile.mu_span)))
    h = a / n1
    lat = np.arange(int(top / h) + 2) * h
    if n1 < len(lat):
        lat[n1] = a
    return h, n1, lat


def slice_nodes(profile: DensityProfile, x: float, m: int) -> np.ndarray:
    """Quadrature/collocation nodes on [0, mu_plus(x)] for the slice at x.

    Every slice takes its nodes from one lattice per profile, spacing
    h = a/n1 with m intervals across [0, mu_plus(pi)] and the node at a
    set to a (so reflection targets 2a - xi and image targets xi + 2ak
    land exactly on nodes).  A slice keeps the lattice nodes below
    top - h/4, top = mu_plus(x), plus node 0 and, when a < top, node a;
    then top closes it.  On the right piece a fixed straddle pair at
    distance 1e-6 around the kernel jump at |mu_minus(x)| = |2a - top|
    displaces the lattice nodes within h/4 of the jump, except 0 and a.
    """
    return _slice_grid(profile, float(profile.mu_plus(x)), m)[0]


def _slice_grid(profile: DensityProfile, top: float, m: int):
    """``(xi, slot, off)``: the nodes of ``slice_nodes`` for the slice with
    top ``top`` = mu_plus(x), with their slots in the lattice system, and
    which of them are off the lattice.

    Lattice node j has slot j.  The off-lattice nodes (the top and the
    straddle pair) take the slots after the last lattice node, except
    that the pair node nearest a displaced lattice node takes its slot.
    """
    a = profile.a
    h, n1, lat = _lattice(profile, m, top)
    keep = lat < top - 0.25 * h
    keep[0] = True
    if a < top:
        keep[n1] = True
    idx = np.flatnonzero(keep)
    extra = np.array([top])
    xstar = abs(2.0 * a - top)
    delta = 1e-6
    d = -1
    if a < top and 2 * delta < xstar < top - 2 * delta and abs(xstar - a) > 2 * delta:
        moved = (np.abs(lat[idx] - xstar) <= 0.25 * h) & (idx != 0) & (idx != n1)
        if np.any(moved):
            d = int(idx[moved][0])
        idx = idx[~moved]
        extra = np.array([xstar - delta, xstar + delta, top])
    slots = idx[-1] + 1 + np.arange(len(extra))
    if 0 <= d < idx[-1]:  # the pair node nearest the displaced node takes its slot
        nearest = int(lat[d] > xstar)
        slots[nearest + 1:] -= 1
        slots[nearest] = d
    xi = np.concatenate([lat[idx], extra])
    order = np.argsort(xi)
    return (xi[order], np.concatenate([idx, slots])[order].astype(np.int32),
            np.arange(len(xi))[order] >= len(idx))


def _check_slices(xs, m: int) -> np.ndarray:
    """The slice positions ``xs`` as an array, each checked to lie in
    (0, pi], and at least ``MIN_NODES_PER_SLICE`` intervals ``m`` per slice."""
    xs = np.asarray(xs, dtype=float)
    if m < MIN_NODES_PER_SLICE:
        raise ValueError(f"at least {MIN_NODES_PER_SLICE} nodes per slice are required")
    if xs.size and not (xs.min() > 0.0 and xs.max() <= np.pi):
        raise ValueError("slice positions must lie in (0, pi]")
    return xs


def _identity(profile: DensityProfile, xi: np.ndarray) -> np.ndarray:
    """The identity coefficient of each row: 1 on the left piece (the node
    a included), 2 / (1 + alpha) on the right."""
    return np.where(xi <= profile.a, 1.0, 2.0 / (1.0 + profile.alpha))


def _image_stamps(profile: DensityProfile, xi: np.ndarray, rows=None):
    """The image ladders of the sorted grid ``xi`` (it ends at the kernel's
    support end) as linear-interpolation stamps ``(rows, cols, values)``,
    for the rows ``rows`` (default: all).

    One (node, k) table: transmitted images xi + 2ak, k >= 1, of all
    nodes, then reflected images 2a - xi + 2ak, k >= 0, of the left nodes
    (at xi == a the k = 0 term lands on the diagonal and 1 + beta equals
    the right-piece identity 2/(1+alpha), so rows stay continuous there).
    Targets beyond the support end vanish: the kernel is zero-extended.
    """
    a, alpha = profile.a, profile.alpha
    n, top = len(xi), xi[-1]
    rows = np.arange(n) if rows is None else np.asarray(rows)
    s = xi[rows]
    beta = (1.0 - alpha) / (1.0 + alpha)
    k = np.arange(int((top + 1e-12) // (2 * a)) + 2)
    p = np.hstack([s[:, None] + 2 * a * k[1:], (2 * a - s)[:, None] + 2 * a * k])
    c = np.hstack([_identity(profile, s)[:, None] * beta ** k[1:],
                   np.broadcast_to(beta ** (k + 1), (len(s), len(k)))])
    live = (p <= top + 1e-12) & (np.abs(c) >= 1e-15) & (p >= 0)
    live[:, len(k) - 1:] &= (s <= a)[:, None]
    p, c = np.minimum(p[live], top), c[live]
    j = np.clip(np.searchsorted(xi, p) - 1, 0, n - 2)
    th = (p - xi[j]) / (xi[j + 1] - xi[j])
    r, cols = rows[np.nonzero(live)[0]].repeat(2), np.column_stack([j, j + 1]).ravel()
    return r, cols, np.column_stack([c * (1.0 - th), c * th]).ravel()


def _matrix(profile: DensityProfile, series: KernelSeries, xi: np.ndarray):
    """``(M, U, W)``: the collocation matrix of the sorted grid ``xi`` (it
    ends at the kernel's support end), the quadrature ``paired(U, W)``
    plus the identity and the image stamps, with the tables U and W of
    ``series.tables(xi)`` it comes from."""
    U, W = series.tables(xi)
    M = series.paired(U, W)
    M[np.diag_indices(len(xi))] += _identity(profile, xi)
    rows, cols, vals = _image_stamps(profile, xi)
    np.add.at(M, (rows, cols), vals)
    return M, U, W


@dataclass
class SliceSystem:
    """Dense collocation system for one slice of the main equation."""

    x: float
    nodes: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray
    condition_estimate: Optional[float] = None
    residual: Optional[float] = None

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if self.matrix.shape != (n, n):
            raise ValueError("system matrix must be square of the node count")
        if not np.all(np.isfinite(self.rhs)):
            raise NumericalError("right-hand side contains non-finite values")


def assemble_slice(
    profile: DensityProfile,
    series: KernelSeries,
    x: float,
    m: int = NODES_PER_SLICE,
    *,
    bordered: Optional[BorderedSlice] = None,
):
    """Build the dense ``SliceSystem`` for the slice at x (x in (0, pi]),
    or return ``bordered``, the slice at x that the bordered pass of
    ``solve_slices`` yields, as it is (that pass has checked x and m).

    The row at t = 0 is a collocation row like the others: the identity
    A(x, 0) = 0 holds only for data whose zeroth spectral moments match
    the baseline's, which finite measured data never satisfies exactly.
    """
    if bordered is not None:
        return bordered
    _check_slices(x, m)
    xi = slice_nodes(profile, x, m)
    M, U, _ = _matrix(profile, series, xi)
    return SliceSystem(x=x, nodes=xi, matrix=M, rhs=-series.paired(U, series.f_modes(x)))


def solve_slice(system, *, estimate_condition: bool = True) -> np.ndarray:
    """Solve a slice from ``assemble_slice``; records the collocation
    residual and a 1-norm condition estimate on the system.

    A ``SliceSystem`` is solved directly, by one LU solve, and its
    estimate is np.linalg.cond(M, 1) = ||M||_1 ||inv(M)||_1, so g is the
    same with and without it.  A ``BorderedSlice`` is
    solved by a Woodbury update of its pass's block inverse, which gives
    the exact 1-norm condition number too.

    The relative residual must stay at solver precision (gate 1e-10), or
    ``NumericalError`` is raised.
    """
    if isinstance(system, BorderedSlice):
        g, res, cond = system.lattice.solve(system, estimate_condition)
        if estimate_condition:
            system.condition_estimate = cond
    else:
        M, rhs = system.matrix, system.rhs
        g = np.linalg.solve(M, rhs)
        if estimate_condition:
            system.condition_estimate = float(np.linalg.cond(M, 1))
        res = float(np.abs(M @ g - rhs).max() / (1.0 + np.abs(rhs).max()))
    system.residual = res
    if not res <= RESIDUAL_GATE:
        raise NumericalError(
            f"slice x={system.x:.6f}: collocation residual {res:.3e} above "
            f"{RESIDUAL_GATE:.0e}"
        )
    return g


@dataclass
class SliceSolutions:
    """Solved slices of one bordered pass, in the order they were given.

    Each solution holds A(x, .) at its slice's ``nodes``: its first entry
    is A(x, 0), its last the diagonal A(x, mu_plus(x)).  ``conditions``
    holds NaN where no estimate was asked for; ``schur_min`` is the
    smallest |Schur complement| met by the pass and ``n_resolved`` counts
    the slices solved directly because their bordered residual missed the
    gate.
    """

    nodes: list
    solutions: list
    residuals: np.ndarray
    conditions: np.ndarray
    schur_min: float
    n_resolved: int


@dataclass
class BorderedSlice:
    """One slice of a bordered pass, as the changes to the pass's lattice
    block that ``solve_slice`` solves (see ``_BorderedPass.solve``).

    ``slot`` and ``off`` place the nodes in the lattice system (see
    ``_slice_grid``); ``changed`` lists the nodes whose columns differ from
    the lattice matrix's, ``Wf`` holds their hat weights and then F's
    cosine terms, ``UR`` the node tables of the off-lattice nodes.
    """

    x: float
    nodes: np.ndarray
    slot: np.ndarray
    off: np.ndarray
    changed: np.ndarray
    Wf: np.ndarray
    UR: np.ndarray
    lattice: _BorderedPass
    step: int
    condition_estimate: Optional[float] = None
    residual: Optional[float] = None


class _BorderedPass:
    """Inverses of the leading blocks of the pure-lattice system G, grown
    in place one node at a time, and the slice solves they serve.

    Iterating the pass borders G up to each slice's last lattice node in
    turn, builds that slice (with the tables of the next 16 slices at
    once) and yields its index into ``xs`` with the slice; ``solve``
    solves it while the pass stands there."""

    def __init__(self, profile, series, xs, m):
        self.profile, self.series, self.xs = profile, series, xs
        tops = profile.mu_plus(xs)
        self.grids = [_slice_grid(profile, top, m) for top in tops]
        self.last = np.array([slot[~off].max() for _, slot, off in self.grids])
        _, _, lat = _lattice(profile, m, tops.max())
        lat = lat[: self.last.max() + 2]
        # G on the lattice nodes up to the last slice's
        self.G, self.U, self.W = _matrix(profile, series, lat[:-1])
        n = len(self.G)
        # the rows stamping into each column, as ranges of one array, on
        # the lattice up to the node past G's end
        rows, cols, _ = _image_stamps(profile, lat)
        order = np.argsort(cols, kind="stable")
        self.stamp_rows = rows[order]
        self.stamp_ptr = np.searchsorted(cols[order], np.arange(n + 2))
        self.Ainv = np.empty((n, n))
        self.buf = np.empty((n + 3, n + 3))  # the rank-1 update, a slice's inverse
        self.colabs = np.zeros(n)  # column 1-norms of the rows 0..k
        self.k = -1
        self.schur_min = np.inf

    def __iter__(self):
        order = np.argsort(self.last, kind="stable")
        for c in range(0, len(order), _CHUNK):
            chunk = order[c:c + _CHUNK]
            for i, tables in zip(chunk, self.prepare(chunk)):
                while self.k < self.last[i]:
                    self.schur_min = min(self.schur_min, abs(self.border()))
                grid, self.grids[i] = self.grids[i], None  # the slice keeps it
                yield i, BorderedSlice(float(self.xs[i]), *grid, *tables, self, self.k)

    def border(self) -> float:
        """Extend the inverse by one node, to the leading block 0..k; returns
        that step's Schur complement."""
        G, k = self.G, self.k + 1
        Ak = self.Ainv[:k, :k]
        u = Ak @ G[:k, k]
        v = G[k, :k] @ Ak
        s = G[k, k] - G[k, :k] @ u
        u /= s
        t = self.buf[:k, :k]
        np.multiply(u[:, None], v, out=t)
        Ak += t
        self.Ainv[:k, k] = -u
        self.Ainv[k, :k] = v / -s
        self.Ainv[k, k] = 1.0 / s
        self.colabs += np.abs(G[k])
        self.k = k
        return float(s)

    def prepare(self, chunk):
        """Per slice ``(changed, Wf, UR)`` for the slices ``chunk``, all
        built at once (see ``BorderedSlice``).

        A changed node's column differs from G's: it or a neighbour is off
        the lattice (the top always is).  Their hat weights come from the
        changed nodes and their neighbours, each run of consecutive nodes
        weighted as a grid of its own."""
        parts = []
        for i in chunk:
            xi, slot, off = self.grids[i]
            lattice = np.where(off, -2, slot)
            follows = lattice[1:] == lattice[:-1] + 1  # node 0 is first, the top last
            changed = np.flatnonzero(~(np.r_[True, follows] & np.r_[follows, False]))
            near = np.zeros(len(xi) + 1, dtype=bool)
            near[changed] = near[changed + 1] = True
            near[changed[changed > 0] - 1] = True
            near = np.flatnonzero(near[:-1])
            parts.append((changed, near, xi[near], off[near]))
        sizes = np.cumsum([0] + [len(p[1]) for p in parts])
        nodes = np.concatenate([p[2] for p in parts])
        offs = np.concatenate([p[3] for p in parts])
        runs = np.flatnonzero(np.diff(np.concatenate([p[1] for p in parts])) != 1) + 1
        U, W = self.series.tables(nodes, np.union1d(runs, sizes[:-1]))
        # a C-ordered copy: the fancy-indexed block is F-ordered, and BLAS
        # would sum its products in another order
        UR = np.ascontiguousarray(U[:, offs])
        n_off = np.cumsum([0] + [np.count_nonzero(p[3]) for p in parts])
        fs = self.series.f_modes(self.xs[chunk])
        out = []
        for s, (changed, near, _, _) in enumerate(parts):
            Wf = np.empty((len(W), len(changed) + 1))
            Wf[:, :-1] = W[:, sizes[s] + np.searchsorted(near, changed)]
            Wf[:, -1] = fs[:, s]
            out.append((changed, Wf, UR[:, n_off[s]:n_off[s + 1]]))
        return out

    def solve(self, sl: BorderedSlice, estimate_condition: bool):
        """Solve the slice ``sl`` whose last lattice node is k, from the
        inverse of G's leading block 0..k.

        In slot order the slice matrix is M = M0 + X Y^T with M0 =
        diag(G[:k+1, :k+1], I).  The first part of X replaces the changed
        columns C (Y = unit vectors), the second the rows R of the
        off-lattice nodes outside C (X = unit vectors).  One Woodbury update
        gives the solution, the residual in low-rank form and, if asked, the
        exact 1-norm condition number from the updated inverse.
        Returns (g in the order of the nodes, residual, condition or NaN).
        """
        if sl.lattice is not self or sl.step != self.k:
            raise ValueError(f"slice x={sl.x:.6f} was assembled at another pass step")
        xi, slot, off, changed, Wf, UR = sl.nodes, sl.slot, sl.off, sl.changed, sl.Wf, sl.UR
        ser, n, N = self.series, self.k + 1, len(xi)
        G, U, W, Ainv = self.G, self.U[:, :n], self.W[:, :n], self.Ainv[:n, :n]
        Cs = slot[changed]
        Rs = slot[off]  # R lies in C: an off-lattice node's column changes
        nc, nr = len(Cs), len(Rs)
        pos = np.empty(N, dtype=int)  # the node of each slot
        pos[slot] = np.arange(N)
        # the changed columns of M, whole, with b = -F(x, t) behind them
        Xc = np.empty((N, nc + 1))
        Xc[:n] = ser.paired(U, Wf)
        Xc[Rs] = ser.paired(UR, Wf)
        b = -Xc[:, nc]
        Xc = Xc[:, :nc]
        Xc[Cs, np.arange(nc)] += _identity(self.profile, xi[changed])
        # the replaced rows of M outside C
        Mr = np.zeros((nr, N))
        Mr[:, :n] = ser.paired(UR, W)
        colq = np.full(N, -1)
        colq[Cs] = np.arange(nc)
        rowq = np.full(N, -1)
        rowq[Rs] = np.arange(nr)
        # stamps: those of the replaced rows, and those into the changed
        # columns, which come from the rows stamping into G's columns of the
        # changed lattice slots and of the first lattice node past k
        ptr = self.stamp_ptr
        hit = np.concatenate([self.stamp_rows[ptr[c]:ptr[c + 1]]
                              for c in np.append(Cs[Cs < n], n)])
        rows = np.zeros(N, dtype=bool)
        rows[pos[hit[hit < n]]] = True
        rows[off] = True
        rows, cols, vals = _image_stamps(self.profile, xi, np.flatnonzero(rows))
        rows, cols = slot[rows], slot[cols]
        inc = colq[cols] >= 0
        np.add.at(Xc, (rows[inc], colq[cols[inc]]), vals[inc])
        inr = ~inc & (rowq[rows] >= 0)
        np.add.at(Mr, (rowq[rows[inr]], cols[inr]), vals[inr])
        Mc = Xc.copy() if estimate_condition else None
        # minus M0: G's block, the identity on the extra slots
        lc, lr = Cs < n, Rs < n
        Xc[:n, lc] -= G[:n, Cs[lc]]
        Xc[Cs[~lc], np.flatnonzero(~lc)] -= 1.0
        Yr = Mr.copy()
        Yr[lr, :n] -= G[Rs[lr], :n]
        Yr[:, Cs] = 0.0

        Q = np.zeros((N, nc + nr))  # M0^-1 X
        Q[:n, :nc] = Ainv @ Xc[:n]
        Q[n:, :nc] = Xc[n:]
        Q[:n, nc + np.flatnonzero(lr)] = Ainv[:, Rs[lr]]
        Q[Rs[~lr], nc + np.flatnonzero(~lr)] = 1.0
        Cm = np.vstack([Q[Cs], Yr @ Q])  # I + Y^T M0^-1 X
        Cm[np.diag_indices(nc + nr)] += 1.0
        Cinv = np.linalg.inv(Cm)
        w = np.concatenate([Ainv @ b[:n], b[n:]])  # M0^-1 b
        z = w - Q @ (Cinv @ np.concatenate([w[Cs], Yr @ w]))
        Mz = np.concatenate([G[:n, :n] @ z[:n], z[n:]])
        Mz += Xc @ z[Cs]
        Mz[Rs] += Yr @ z
        res = float(np.abs(Mz - b).max() / (1.0 + np.abs(b).max()))
        cond = np.nan
        if estimate_condition:
            # column 1-norms of M: G's rows 0..k but the replaced one, plus
            # the replaced rows; the changed columns are summed whole
            col = np.zeros(N)
            col[:n] = self.colabs[:n] - np.abs(G[Rs[lr], :n]).sum(axis=0)
            col += np.abs(Mr).sum(axis=0)
            col[Cs] = np.abs(Mc).sum(axis=0)
            R = np.zeros((nc + nr, N))  # Y^T M0^-1
            R[np.flatnonzero(lc), :n] = Ainv[Cs[lc]]
            R[np.flatnonzero(~lc), Cs[~lc]] = 1.0
            R[nc:, :n] = Yr[:, :n] @ Ainv
            Minv = self.buf[:N, :N]  # M0^-1 - Q KR
            np.matmul(Q, Cinv @ R, out=Minv)
            np.subtract(Ainv, Minv[:n, :n], out=Minv[:n, :n])
            np.negative(Minv[:, n:], out=Minv[:, n:])
            np.negative(Minv[n:, :n], out=Minv[n:, :n])
            Minv[np.arange(n, N), np.arange(n, N)] += 1.0
            cond = float(col.max() * np.abs(Minv, out=Minv).sum(axis=0).max())
        return z[slot], res, cond


def solve_slices(
    profile: DensityProfile,
    series: KernelSeries,
    xs,
    m: int = NODES_PER_SLICE,
    *,
    estimate_condition: bool = True,
    condition_cap: Optional[float] = None,
) -> SliceSolutions:
    """Solve the slices at the positions ``xs`` (each in (0, pi]) in one
    bordering pass over the lattice system.

    Every slice grid (``slice_nodes``) is a leading block of the pure
    lattice matrix G with a few columns changed, bordered by its top node
    and the straddle pair.  The pass borders G's leading blocks in order
    and updates their inverse in place, O(k^2) per step; when it reaches a
    slice's last lattice node, it yields the slice, which passes through
    ``assemble_slice`` to ``solve_slice`` (see ``_BorderedPass.solve``).
    A slice whose low-rank residual misses the gate (1e-10) is assembled
    and solved again directly, on its own.  A condition estimate above
    ``condition_cap`` raises ``NumericalError``.
    """
    xs = _check_slices(xs, m)
    n_sl = len(xs)
    nodes, solutions = [None] * n_sl, [None] * n_sl
    res = np.zeros(n_sl)
    cond = np.full(n_sl, np.nan)
    if n_sl == 0:
        return SliceSolutions(nodes, solutions, res, cond, np.inf, 0)
    bp = _BorderedPass(profile, series, xs, m)
    n_resolved = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, sl in bp:
            x = sl.x
            system = assemble_slice(profile, series, x, m, bordered=sl)
            try:
                g = solve_slice(system, estimate_condition=estimate_condition)
            except (NumericalError, np.linalg.LinAlgError):  # the residual gate
                system = assemble_slice(profile, series, x, m)
                g = solve_slice(system, estimate_condition=estimate_condition)
                n_resolved += 1
            if estimate_condition:
                cond[i] = system.condition_estimate
                if condition_cap is not None and cond[i] > condition_cap:
                    raise NumericalError(
                        f"slice x={x:.6f}: condition estimate {cond[i]:.3e} above cap "
                        f"{condition_cap:.3e}"
                    )
            nodes[i], solutions[i], res[i] = system.nodes, g, system.residual
    return SliceSolutions(nodes, solutions, res, cond, bp.schur_min, n_resolved)
