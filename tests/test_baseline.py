"""Unperturbed operator: closed forms, interlacing brackets, normings."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import slgl
from dense_scan import dense_zeros, normings_at
from slgl import DensityProfile, baseline_spectrum, delta0, phi0
from slgl.baseline import bisect_many, certify_indices


def test_delta0_closed_form_values(prof):
    # Delta0(lam) = (3/4) cos(3 pi lam / 2) + (1/4) cos(pi lam / 2)
    assert np.isclose(delta0(prof, np.array([0.0]))[0], 1.0)
    assert abs(delta0(prof, np.array([1.0]))[0]) < 1e-14
    assert np.isclose(delta0(prof, np.array([1.0 / 3.0]))[0], np.sqrt(3) / 8)


def test_delta0_sign_change_brackets_first_eigenvalue(prof):
    lo = delta0(prof, np.array([1.0 / 3.0]))[0]
    hi = delta0(prof, np.array([0.5]))[0]
    assert lo > 0 > hi


def test_baseline_eigenvalues_include_odd_integers(prof, base150):
    lam = base150.lambdas0
    for target in (1.0, 3.0, 5.0):
        assert np.abs(lam - target).min() < 1e-9


def test_first_baseline_eigenvalue_location(base150):
    assert 1.0 / 3.0 < base150.lambdas0[0] < 0.5


def test_baseline_normings_positive_and_bounded(base150):
    al = base150.normings0
    assert np.all(al > 0)
    assert np.all(al < 4 * np.pi)


def test_classical_limit_spectrum(prof_classical):
    # alpha = 1: lambda_n = (2n-1)/2 and alpha_n = pi/2 in closed form
    spec = baseline_spectrum(prof_classical, 12)
    n = np.arange(1, 13)
    np.testing.assert_allclose(spec.lambdas0, (2 * n - 1) / 2, atol=1e-10)
    np.testing.assert_allclose(spec.normings0, np.pi / 2, rtol=1e-9)


def test_phi0_initial_values(prof):
    lam = np.array([0.7, 1.9, 3.3])
    vals = phi0(prof, np.array([0.0]), lam)
    np.testing.assert_allclose(vals[0], 1.0)


def test_phi0_matches_delta0_at_pi(prof):
    # delta0 is phi0 at x = pi, bit for bit, shaped like its lam
    lam = np.linspace(0.1, 8.0, 50)
    np.testing.assert_array_equal(delta0(prof, lam), phi0(prof, np.pi, lam)[0])
    scalar = delta0(prof, 2.5)
    assert np.shape(scalar) == ()
    assert scalar == phi0(prof, np.pi, 2.5)[0, 0]


def test_phi0_left_piece_is_plain_cosine(prof):
    lam = np.array([1.3, 2.6])
    x = np.array([0.2, 0.9, 1.4])
    np.testing.assert_allclose(
        phi0(prof, x, lam), np.cos(np.outer(x, lam)), atol=1e-12
    )


def test_bisect_many_finds_cosine_roots():
    f = lambda lam: np.cos(lam)
    lo = np.array([1.0, 4.0])
    hi = np.array([2.0, 5.0])
    roots = bisect_many(f, lo, hi, f(lo), f(hi))
    np.testing.assert_allclose(roots, [np.pi / 2, 3 * np.pi / 2], atol=1e-12)


def test_bisect_many_stops_unevaluated():
    # the brackets above: each bracket stops at its settled secant point
    # and leaves that point unevaluated, so f takes 6 points in 3 calls,
    # and each point is within tol = 1e-13 of its root
    lo, hi = np.array([1.0, 4.0]), np.array([2.0, 5.0])
    seen = []

    def f(lam):
        seen.append(lam.copy())
        return np.cos(lam)

    roots = bisect_many(f, lo, hi, np.cos(lo), np.cos(hi))
    assert [len(x) for x in seen] == [2, 2, 2]
    assert not np.isin(roots, np.concatenate(seen)).any()
    assert np.all(np.abs(roots - [np.pi / 2, 3 * np.pi / 2]) <= 1e-13)


@pytest.mark.parametrize("eps", [0.0, 1e-30])
def test_bisect_many_resolves_roots_on_bracket_ends(eps):
    # double roots at 1 (on lo) and 4 (on hi): the ends show no sign change
    f = lambda lam: (lam - 1.0) ** 2 * (lam - 4.0) ** 2 + eps
    lo, hi = np.array([1.0, 3.0]), np.array([2.0, 4.0])
    roots = bisect_many(f, lo, hi, f(lo), f(hi))
    np.testing.assert_array_equal(roots, [1.0, 4.0])


def test_bisect_many_takes_open_brackets_only():
    # the second bracket shows no sign change, so f never sees it again:
    # every call takes the first bracket's point alone
    seen = []

    def f(lam):
        seen.append(lam.copy())
        return np.cos(lam)

    lo, hi = np.array([1.0, 4.0]), np.array([2.0, 4.5])
    f_lo, f_hi = np.cos(lo), np.cos(hi)
    roots = bisect_many(f, lo, hi, f_lo, f_hi)
    assert seen and all(len(x) == 1 and 1.0 < x[0] < 2.0 for x in seen)
    assert abs(roots[0] - np.pi / 2) < 1e-13


def test_bisect_many_closes_brackets_above_512():
    # ulp(lambda) exceeds 1e-13 above lambda = 512, so each bracket's stop
    # width is floored at a few ulps of its ends; with 1e-13 alone no
    # bracket near lambda = 1000 could close and each ran all 320 steps
    calls = []

    def f(lam):
        calls.append(len(lam))
        return np.cos(lam)

    roots = (np.arange(316, 320) + 0.5) * np.pi
    lo, hi = roots - 0.3, roots + 0.4
    found = bisect_many(f, lo, hi, np.cos(lo), np.cos(hi))
    assert len(calls) <= 10
    assert np.all(np.abs(found - roots) <= 2 * np.spacing(roots))


def test_bisect_many_on_mixed_brackets_matches_each_bracket_alone():
    # one call holding brackets that stop in every way: cos on (1, 2)
    # settles, one narrower than its tol stops at its midpoint, x - 10.5
    # hits its exact zero at the first secant point, cos on (4, 4.5) shows
    # no sign change, x - 20 is zero on its lower end, and cos near 1000,
    # where tol is floored at 4 ulps; each bracket gets the root it gets
    # alone, bit for bit
    def f(lam):
        lam = np.asarray(lam)
        return np.where(np.abs(lam - 10.5) < 1.0, lam - 10.5,
                        np.where(np.abs(lam - 20.5) < 1.0, lam - 20.0, np.cos(lam)))

    narrow = 1.5 * np.pi - 2e-14
    lo = np.array([1.0, narrow, 10.0, 4.0, 20.0, 318.5 * np.pi - 0.3])
    hi = np.array([2.0, narrow + 5e-14, 11.0, 4.5, 21.0, 318.5 * np.pi + 0.4])
    together = bisect_many(f, lo, hi, f(lo), f(hi))
    alone = [bisect_many(f, lo[i:i + 1], hi[i:i + 1], f(lo[i:i + 1]), f(hi[i:i + 1]))[0]
             for i in range(len(lo))]
    np.testing.assert_array_equal(together, alone)
    assert together[1] == 0.5 * (lo[1] + hi[1])
    np.testing.assert_array_equal(together[2:5], [10.5, 4.5, 20.0])
    assert abs(together[0] - 0.5 * np.pi) <= 1e-13
    assert abs(together[5] - 318.5 * np.pi) <= 4 * np.spacing(1000.0)


def test_bisect_many_is_point_wise_on_both_stop_rules():
    # 24 brackets on the roots sqrt(k pi) of sin(lambda^2) e^(0.3 lambda),
    # of uneven widths and offsets, so their brackets stop after 3 to 10
    # evaluations: in one batch the open brackets' state is dropped at
    # every one of those steps, and each root is the one its bracket gets
    # alone, bit for bit
    def f(lam):
        lam = np.asarray(lam)
        return np.sin(lam**2) * np.exp(0.3 * lam)

    k = np.arange(1, 25)
    lo = np.maximum(np.sqrt(k * np.pi) - 0.01 - 0.5 * (7 * k % 24) / 24,
                    np.sqrt((k - 0.999) * np.pi))
    hi = np.minimum(np.sqrt(k * np.pi) + 0.01 + 0.5 * (11 * k % 24) / 24,
                    np.sqrt((k + 0.999) * np.pi))
    alone, steps = [], []
    for i in range(len(k)):
        calls = []
        alone.append(bisect_many(lambda x: calls.append(1) or f(x), lo[i : i + 1],
                                 hi[i : i + 1], f(lo[i : i + 1]), f(hi[i : i + 1]))[0])
        steps.append(len(calls))
    assert len(set(steps)) >= 4
    together = bisect_many(f, lo, hi, f(lo), f(hi))
    np.testing.assert_array_equal(together, alone)
    assert np.all(np.abs(together - np.sqrt(k * np.pi)) <= 1e-13)


def test_baseline_spectrum_invariants(prof, base150):
    assert np.all(np.diff(base150.lambdas0) > 0)
    assert base150.n_max == 150
    assert len(base150.lambdas0) == len(base150.normings0) == 150


def test_baseline_spectrum_matches_asymptotic_density(prof, base150):
    # counting function: lambda_n ~ n pi / mu_plus(pi)
    n = np.arange(1, 151)
    pred = n * np.pi / prof.mu_span
    assert np.abs(base150.lambdas0 - pred).max() < 0.45


@given(a=st.floats(0.01, np.pi - 0.01), alpha=st.floats(0.03, 30.0))
@example(a=1.0, alpha=15.0)  # a reference refined by a secant rule read lambda_1 5e-14 low
def test_baseline_eigenvalues_interlace_with_the_lattice(a, alpha):
    # (-1)^k Delta0(k pi / mu) >= min(1, 1/alpha), so lambda_k^0 lies in
    # ((k - 1) pi / mu, k pi / mu); each zero is at least min(alpha,
    # 1/alpha) / mu from the lattice (|Delta0'| <= max(1, 1/alpha) mu), so
    # a quarter of that as the scan step brackets every zero apart
    p = DensityProfile(a=a, alpha=alpha, strict=False)
    mu, n = p.mu_span, 30
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-double spectra
        lam = baseline_spectrum(p, n).lambdas0
    k = np.arange(1, n + 1)
    assert np.all(((k - 1) * np.pi / mu < lam) & (lam < k * np.pi / mu))
    step = min(alpha, 1.0 / alpha) / (4.0 * mu)
    ref = dense_zeros(lambda l: delta0(p, l), n, step, (n + 1) * np.pi / mu)
    np.testing.assert_allclose(lam, ref, rtol=1e-12)


def test_baseline_raises_when_bracket_ends_do_not_alternate(prof, monkeypatch):
    # a characteristic function of twice the frequency takes the value 1 on
    # every lattice point k pi / mu, so no bracket shows a sign change
    monkeypatch.setattr(
        slgl.baseline, "delta0", lambda p, lam: np.cos(2.0 * np.asarray(lam) * p.mu_span)
    )
    with pytest.raises(slgl.NumericalError, match=r"eigenvalue 1: .* \[0.000000, "):
        baseline_spectrum(prof, 5)


def test_certify_indices_names_the_first_misplaced_eigenvalue():
    certify_indices([0, 1, 2], "baseline")
    # a missed first eigenvalue shifts every count up by one
    with pytest.raises(slgl.NumericalError, match="baseline eigenvalue 1: .* 1 times"):
        certify_indices([1, 2, 3], "baseline")
    # two roots lost inside one bracket: the third returned is the fifth
    with pytest.raises(slgl.NumericalError, match="eigenvalue 3: .* 4 times"):
        certify_indices([0, 1, 4], "forward")


def test_baseline_rejects_bad_mode_count(prof):
    with pytest.raises(ValueError):
        baseline_spectrum(prof, 0)
    with pytest.raises(TypeError):
        baseline_spectrum(prof, 10.5)


@given(
    a=st.floats(0.3, np.pi - 0.3),
    alpha=st.floats(0.4, 3.0).filter(lambda v: abs(v - 1.0) > 1e-3),
    lam=st.floats(0.0, 40.0),
)
def test_delta0_amplitude_bound(a, alpha, lam):
    # |Delta0| <= max(1, 1/alpha) since the two cosine amplitudes are
    # (1 + 1/alpha)/2 and (1 - 1/alpha)/2
    p = DensityProfile(a=a, alpha=alpha)
    bound = max(1.0, 1.0 / alpha) + 1e-12
    assert abs(delta0(p, np.array([lam]))[0]) <= bound


@given(
    a=st.floats(0.01, np.pi - 0.01),
    alpha=st.floats(0.03, 30.0),
    k=st.integers(0, 10_000),
)
def test_delta0_alternates_on_the_lattice(a, alpha, k):
    # the premise of the interlacing brackets: (-1)^k Delta0(k pi / mu)
    # >= (1 + 1/alpha)/2 - |1 - 1/alpha|/2 = min(1, 1/alpha)
    p = DensityProfile(a=a, alpha=alpha, strict=False)
    value = (-1) ** k * delta0(p, np.array([k * np.pi / p.mu_span]))[0]
    assert value >= min(1.0, 1.0 / alpha) * (1.0 - 1e-9)


def test_norming_oracle_by_direct_quadrature(prof, base150):
    # independent route: dense trapezoid on each smooth piece, so the
    # density step never sits inside a panel
    lam = base150.lambdas0[:5]
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    xl = np.linspace(0, prof.a, 10001)
    xr = np.linspace(prof.a, np.pi, 10001)
    direct = trapezoid(phi0(prof, xl, lam) ** 2, xl, axis=0)
    direct += prof.alpha**2 * trapezoid(phi0(prof, xr, lam) ** 2, xr, axis=0)
    np.testing.assert_allclose(base150.normings0[:5], direct, rtol=1e-7)


@pytest.mark.parametrize("a, alpha", [(np.pi / 2, 2.0), (1.0, 0.3), (2.9, 3.0)])
def test_normings_match_the_forward_oracle(a, alpha):
    # on q = 0 the forward oracle's complex-step Wronskian matches the exact
    # normings to about 1e-13; the closed form must meet it to 1e-12
    prof = DensityProfile(a=a, alpha=alpha)
    base = baseline_spectrum(prof, 6)
    oracle = normings_at(prof, None, base.lambdas0)
    np.testing.assert_allclose(base.normings0, oracle, rtol=1e-12, atol=0)
