"""Density profile: step values, travel-time maps, validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slgl import DensityProfile

A_REF = np.pi / 2


def test_rho_step_values(prof):
    assert prof.rho(0.5) == 1.0
    assert prof.rho(np.pi / 2) == 1.0  # left-closed at the interface
    assert prof.rho(3.0) == 4.0
    assert prof.srho(3.0) == 2.0


def test_rho_vectorized(prof):
    x = np.array([0.0, 1.0, np.pi / 2, 2.0, np.pi])
    np.testing.assert_allclose(prof.rho(x), [1.0, 1.0, 1.0, 4.0, 4.0])


def test_travel_time_endpoints(prof):
    assert prof.mu_plus(0.0) == 0.0
    assert np.isclose(prof.mu_plus(np.pi), 3 * np.pi / 2)
    assert np.isclose(prof.mu_minus(np.pi), -np.pi / 2)


def test_fold_and_span(prof):
    assert np.isclose(prof.fold, 3 * np.pi / 4)
    assert np.isclose(prof.mu_span, 3 * np.pi / 2)


def test_mu_plus_continuous_at_interface(prof):
    eps = 1e-12
    below = prof.mu_plus(A_REF - eps)
    above = prof.mu_plus(A_REF + eps)
    assert abs(above - below) < 1e-10


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DensityProfile(a=0.0, alpha=2.0)
    with pytest.raises(ValueError):
        DensityProfile(a=np.pi, alpha=2.0)
    with pytest.raises(ValueError):
        DensityProfile(a=1.0, alpha=-1.0)
    with pytest.raises(ValueError):
        DensityProfile(a=1.0, alpha=0.0)
    for alpha in (np.inf, np.nan):
        with pytest.raises(ValueError, match="must be finite"):
            DensityProfile(a=1.0, alpha=alpha)


def test_strict_rejects_unit_alpha():
    with pytest.raises(ValueError):
        DensityProfile(a=1.0, alpha=1.0)
    p = DensityProfile(a=1.0, alpha=1.0, strict=False)
    assert p.rho(2.0) == 1.0


def test_mu_plus_inverse_rejects_out_of_range(prof):
    with pytest.raises(ValueError):
        prof.mu_plus_inverse(np.array([-0.5]))
    with pytest.raises(ValueError):
        prof.mu_plus_inverse(np.array([prof.mu_span + 0.1]))


def test_mu_range_validation(prof):
    for method in (prof.rho, prof.srho, prof.mu_plus, prof.mu_minus):
        for x in (-0.1, np.pi + 0.1):
            with pytest.raises(ValueError):
                method(np.array([x]))


@given(
    a=st.floats(0.2, np.pi - 0.2),
    alpha=st.floats(0.3, 4.0).filter(lambda v: abs(v - 1.0) > 1e-3),
    frac=st.floats(0.0, 1.0),
)
def test_mu_plus_inverse_roundtrip(a, alpha, frac):
    p = DensityProfile(a=a, alpha=alpha)
    x = frac * np.pi
    xi = p.mu_plus(x)
    back = p.mu_plus_inverse(np.array([xi]))[0]
    assert abs(back - x) < 1e-9


@given(
    a=st.floats(0.2, np.pi - 0.2),
    alpha=st.floats(0.3, 4.0).filter(lambda v: abs(v - 1.0) > 1e-3),
)
def test_mu_plus_strictly_increasing(a, alpha):
    p = DensityProfile(a=a, alpha=alpha)
    x = np.linspace(0.0, np.pi, 101)
    assert np.all(np.diff(p.mu_plus(x)) > 0)
