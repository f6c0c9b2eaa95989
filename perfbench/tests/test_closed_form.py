"""The closed-form generator against the package's forward oracle.

Criterion 4's gates: 1e-8 absolute in lambda, 1e-6 relative in the
norming numbers, at 10 modes for a continuous (constant) potential.
Run with:  python -m pytest perfbench/tests
"""

import numpy as np
import pytest

import closed_form
import slgl

PROFILES = [(1.0, 0.5), (np.pi / 2, 2.0), (2.5, 3.0), (0.4, 2.0)]


@pytest.mark.parametrize("a,alpha", PROFILES)
def test_matches_forward_oracle_for_constant_q(a, alpha):
    c = 0.7
    lam, nm = closed_form.spectrum(a, alpha, c, c, 10)
    sd = slgl.spectral_data(slgl.DensityProfile(a, alpha), slgl.PotentialSpec("constant", c=c), 10)
    assert np.abs(lam - sd.lambdas).max() <= 1e-8
    assert np.abs(nm / sd.normings - 1.0).max() <= 1e-6


def test_zero_potential_matches_baseline():
    # q = 0 is the limit c -> 0 of the closed form: the baseline spectrum
    a, alpha = 1.2, 1.7
    base = slgl.baseline_spectrum(slgl.DensityProfile(a, alpha), 12)
    lam, nm = closed_form.spectrum(a, alpha, 0.0, 0.0, 12)
    assert np.abs(lam - base.lambdas0).max() <= 1e-10
    assert np.abs(nm / base.normings0 - 1.0).max() <= 1e-8


def test_low_eigenvalue_below_potential_uses_cosh_branch():
    # alpha = 0.3 puts lam_1^2 rho below c on the right piece, where k is
    # imaginary; Delta must still be real and its first zero positive
    lam = closed_form.eigenvalues(1.0, 0.3, 0.9, 0.9, 3)
    assert lam[0] > 0 and np.all(np.diff(lam) > 0)
    assert np.abs(closed_form.delta(1.0, 0.3, 0.9, 0.9, lam)).max() < 1e-10
    assert lam[0] ** 2 * 0.3**2 < 0.9


def test_stepped_potential_is_left_closed():
    x = np.array([0.0, 1.0, 1.0 + 1e-12, np.pi])
    assert list(closed_form.potential(1.0, 0.8, 0.3, x)) == [0.8, 0.8, 0.3, 0.3]
