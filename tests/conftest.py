"""Shared fixtures.

The heavy objects (baseline spectra, forward oracle runs, full
reconstructions, the verification suite) are computed once per session
and shared, so the acceptance tests stay well inside their runtime
budgets and the unit tests can reuse the same oracle data.
"""

import numpy as np
import pytest

import slgl


@pytest.fixture(scope="session")
def prof():
    """The reference discontinuous profile: a = pi/2, alpha = 2."""
    return slgl.DensityProfile(a=np.pi / 2, alpha=2.0)


@pytest.fixture(scope="session")
def prof_classical():
    """Continuous density (alpha = 1), for classical-limit checks."""
    return slgl.DensityProfile(a=np.pi / 2, alpha=1.0, strict=False)


@pytest.fixture(scope="session")
def base150(prof):
    return slgl.baseline_spectrum(prof, 150)


@pytest.fixture(scope="session")
def sin_data30(prof):
    """Forward-oracle spectral data for q(x) = sin x, 30 modes."""
    return slgl.spectral_data(prof, np.sin, 30)


@pytest.fixture(scope="session")
def zero_data40(prof):
    """Forward-oracle spectral data for q = 0, 40 modes."""
    return slgl.spectral_data(prof, None, 40)


@pytest.fixture(scope="session")
def recon30(prof, sin_data30):
    return slgl.reconstruct_full(prof, sin_data30)


@pytest.fixture(scope="session")
def recon20(prof, sin_data30):
    return slgl.reconstruct_full(prof, sin_data30.truncated(20))


@pytest.fixture(scope="session")
def recon10(prof, sin_data30):
    return slgl.reconstruct_full(prof, sin_data30.truncated(10))


@pytest.fixture(scope="session")
def suite30(prof, sin_data30):
    return slgl.verification_suite(prof, sin_data30)

