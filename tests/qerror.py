"""Error measures shared by the test modules."""

import numpy as np


def rel_l2(xg, qv, q_true):
    """Relative L2 error of qv against q_true over the grid."""
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    num = trapezoid((qv - q_true) ** 2, xg)
    den = trapezoid(q_true**2, xg)
    return float(np.sqrt(num / den))
