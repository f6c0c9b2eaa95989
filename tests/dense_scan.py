"""Reference zeros by a dense sign scan, shared by the test modules."""

import numpy as np

from slgl.baseline import bisect_many


def dense_zeros(f, n, step, lam_max):
    """First ``n`` positive zeros of ``f``, scanned on [0, lam_max) with
    ``step`` and refined by ``bisect_many``.

    A scan step brackets a zero when its ends differ in sign or its right
    end is an exact zero, so a zero on a scan node is bracketed once and a
    zero at the origin is never reported.  ``step`` must be below the
    smallest spacing of the zeros.
    """
    grid = np.arange(0.0, lam_max, step)
    vals = f(grid)
    sgn = np.sign(vals)
    idx = np.nonzero((sgn[:-1] != 0) & (sgn[:-1] * sgn[1:] <= 0))[0]
    assert len(idx) >= n, f"the scan brackets only {len(idx)} of {n} zeros"
    idx = idx[:n]
    return bisect_many(f, grid[idx], grid[idx + 1], vals[idx], vals[idx + 1])
