"""Inverse spectral solver for Sturm-Liouville operators with a
piecewise-constant density.

The library recovers the potential q(x) of

    -y'' + q(x) y = lambda^2 rho(x) y,   y'(0) = 0,  y(pi) = 0,

with rho = 1 on [0, a] and rho = alpha^2 on (a, pi], from the spectral
data {lambda_n, alpha_n} (eigenvalues and norming numbers).  The solver
discretizes the main integral equation for the transformation-operator
kernel A(x, .) slice by slice; an independent shooting-method forward
solver provides oracle spectra and verification.

Setting the environment variable ``SLGL_THREADS`` to a positive integer
caps the BLAS/OpenMP thread pools; the cap must take effect before numpy
is first imported, so it is applied here, at package import time
(malformed values are ignored here; the CLI reports them).
"""

import os as _os


def thread_cap():
    """The ``SLGL_THREADS`` value: None when unset or empty, else an int >= 1.

    Raises ValueError for any other value.  Imports nothing, so it can run
    before numpy is loaded.
    """
    raw = _os.environ.get("SLGL_THREADS")
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"SLGL_THREADS must be a positive integer, got {raw!r}")
    return n


def _cap_threads() -> None:
    try:
        n = thread_cap()
    except ValueError:
        return
    if n is None:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(var, str(n))


_cap_threads()

from .density import DensityProfile
from .baseline import (
    AsymptoticsReport,
    NumericalError,
    SpectralData,
    baseline_spectrum,
    check_asymptotics,
    delta0,
    phi0,
)
from .forward import PotentialSpec, spectral_data
from .kernels import KernelSeries, complete_tail
from .glm import SliceSystem, assemble_slice, solve_slice
from .reconstruct import (
    ReconstructionResult,
    potential_from_kernel,
    reconstruct_full,
    verification_suite,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport",
    "DensityProfile",
    "KernelSeries",
    "NumericalError",
    "PotentialSpec",
    "ReconstructionResult",
    "SliceSystem",
    "SpectralData",
    "assemble_slice",
    "baseline_spectrum",
    "check_asymptotics",
    "complete_tail",
    "delta0",
    "phi0",
    "potential_from_kernel",
    "reconstruct_full",
    "solve_slice",
    "spectral_data",
    "verification_suite",
]
