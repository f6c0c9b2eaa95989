"""Reference zeros by a dense sign scan, and the forward oracle's passes
at given lambdas, shared by the test modules."""

import numpy as np

from slgl.forward import _as_potential, _norming_pass, _propagate


def dense_zeros(f, n, step, lam_max):
    """First ``n`` positive zeros of ``f``, scanned on [0, lam_max) with
    ``step`` and refined by plain bisection, independent of the package's
    root refiner.

    A scan step brackets a zero when its ends differ in sign or its right
    end is an exact zero, so a zero on a scan node is bracketed once and a
    zero at the origin is never reported.  ``step`` must be below the
    smallest spacing of the zeros.  Each bracket is halved, on the sign of
    ``f`` at its midpoint alone, until its ends are adjacent floats.
    """
    grid = np.arange(0.0, lam_max, step)
    vals = f(grid)
    sgn = np.sign(vals)
    idx = np.nonzero((sgn[:-1] != 0) & (sgn[:-1] * sgn[1:] <= 0))[0]
    assert len(idx) >= n, f"the scan brackets only {len(idx)} of {n} zeros"
    idx = idx[:n]
    lo, hi = grid[idx], grid[idx + 1]
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        up = np.sign(f(mid)) == sgn[idx]  # the zero lies above mid
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        mid = 0.5 * (lo + hi)
    return mid


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # overflow raises in _march
def phi_at_pi(profile, q, lams):
    """(phi(pi), phi'(pi)) per real lambda, as the oracle's counting and
    refinement passes take them; phi(pi) is Delta."""
    y, dy, _ = _propagate(profile, _as_potential(q), np.atleast_1d(np.asarray(lams, float)))
    return y, dy


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # overflow raises in _march
def normings_at(profile, q, lams):
    """The oracle's norming pass at each positive lambda: the norming
    number where lambda is an eigenvalue, a smooth continuation elsewhere."""
    return _norming_pass(profile, _as_potential(q), np.atleast_1d(np.asarray(lams, float)))[0]
