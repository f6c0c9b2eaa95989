"""Data-driven kernels: series evaluation, quadrature weights, tail fit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slgl
from slgl import KernelSeries, complete_tail
from slgl.baseline import phi0
from slgl.glm import slice_nodes
from slgl.kernels import hat_cos_weights


@pytest.fixture(scope="module")
def series30(prof, sin_data30, base150):
    return KernelSeries(prof, sin_data30, base150)


def brute_hat_weights(xi, lams, n_fine=4000):
    """Dense-trapezoid oracle for the hat-function cosine integrals."""
    s = np.linspace(xi[0], xi[-1], n_fine)
    W = np.zeros((len(lams), len(xi)))
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    for j in range(len(xi)):
        hat = np.zeros_like(s)
        if j > 0:
            mask = (s >= xi[j - 1]) & (s <= xi[j])
            hat[mask] = (s[mask] - xi[j - 1]) / (xi[j] - xi[j - 1])
        if j < len(xi) - 1:
            mask = (s >= xi[j]) & (s <= xi[j + 1])
            hat[mask] = (xi[j + 1] - s[mask]) / (xi[j + 1] - xi[j])
        for n, lam in enumerate(lams):
            W[n, j] = trapezoid(hat * np.cos(lam * s), s)
    return W


def test_hat_cos_weights_match_dense_quadrature():
    xi = np.array([0.0, 0.3, 0.35, 0.9, 1.7, 2.0])
    lams = np.array([0.0, 0.5, 3.0, 11.0])
    W = hat_cos_weights(xi, lams)
    W_ref = brute_hat_weights(xi, lams)
    assert np.abs(W - W_ref).max() < 5e-6


def test_hat_cos_weights_integrate_piecewise_linear_exactly():
    # sum_j v_j W[n, j] must equal int v(s) cos(lam s) ds for any
    # piecewise-linear v; compare against a dense trapezoid oracle
    rng = np.random.default_rng(7)
    xi = np.sort(np.concatenate([[0.0, 2.0], rng.uniform(0, 2, 6)]))
    v = rng.standard_normal(len(xi))
    lams = np.array([2.2, 7.7])
    W = hat_cos_weights(xi, lams)
    s = np.linspace(0, 2, 200001)
    vs = np.interp(s, xi, v)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    for n, lam in enumerate(lams):
        ref = trapezoid(vs * np.cos(lam * s), s)
        assert abs(W[n] @ v - ref) < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.0, 30.0),
    h=st.floats(1e-4, 0.5),
)
def test_hat_cos_weights_small_argument_stability(lam, h):
    # adjacent uniform cells; weights must stay finite and sum to the
    # exact full integral of cos over the span
    xi = np.array([0.0, h, 2 * h])
    W = hat_cos_weights(xi, np.array([lam]))
    assert np.all(np.isfinite(W))
    total = W[0].sum()
    # sinc form stays finite down to subnormal lam, where sin(2*lam*h)/lam
    # would underflow to 0/lam
    exact = 2 * h * np.sinc(lam * 2 * h / np.pi)
    assert abs(total - exact) < 1e-10 * max(1.0, 2 * h)


def _hat_weights_long_double(xi, lams):
    """Per-interval closed form of the hat weights in long double, written
    about each interval's midpoint m with theta = lam h / 2:

        int (1/2 -+ u/h) cos(lam (m + u)) du = (h/2) cos(lam m) sin(theta)/theta
                        +- (2 sin(lam m) / (h lam^2)) (sin theta - theta cos theta),

    the last factor by its Taylor series for |theta| < 1, where it cancels."""
    ld = np.longdouble
    xi = np.asarray(xi, dtype=ld)
    lam = np.asarray(lams, dtype=ld)[:, None]
    h = np.diff(xi)
    mid = xi[:-1] + h / 2
    th = lam * h / 2
    sinc = np.sin(th) / th
    k = np.arange(1, 15)
    g_series = sum(
        ld((-1) ** (j + 1) * 2 * j) / np.prod(np.arange(1, 2 * j + 2, dtype=ld)) * th ** (2 * j + 1)
        for j in k
    )
    g = np.where(np.abs(th) < 1, g_series, np.sin(th) - th * np.cos(th))
    sym = h / 2 * np.cos(lam * mid) * sinc
    anti = 2 * np.sin(lam * mid) / (h * lam**2) * g
    W = np.zeros((len(lams), len(xi)), dtype=ld)
    W[:, :-1] += sym + anti
    W[:, 1:] += sym - anti
    return W


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double"
)
@pytest.mark.parametrize(
    "xi",
    [
        np.sort(np.r_[0.4, 2.1, np.random.default_rng(3).uniform(0.4, 2.1, 30)]),
        np.r_[np.linspace(0.0, 1.3, 40), 1.3 + 2e-6, np.linspace(1.35, 2.5, 30)],
        np.linspace(0.0, np.pi / 200, 129),
    ],
    ids=["offset_start", "tiny_interval", "uniform_first_slice"],
)
def test_hat_cos_weights_match_long_double_reference(xi):
    # the by-parts weights difference the cos table: each entry carries an
    # absolute error of about eps (1 + lam max|xi|) / (lam^2 h) for the
    # shorter interval h beside its node (relative 8.7e-8 at lam = 0.37 on
    # the uniform grid); every row sums to (sin lam xi_last - sin lam xi_0) / lam
    eps = np.finfo(float).eps
    lams = np.array([0.37, 1.0, 2.9, 17.0, 60.0])
    W = hat_cos_weights(xi, lams)
    ref = _hat_weights_long_double(xi, lams).astype(float)
    h = np.diff(xi)
    h_beside = np.minimum(np.r_[h, np.inf], np.r_[np.inf, h])
    bound = eps * (1.0 + lams[:, None] * np.abs(xi).max()) / (lams[:, None] ** 2 * h_beside)
    assert np.all(np.abs(W - ref) <= 4.0 * bound)
    ends = (np.sin(lams * xi[-1]) - np.sin(lams * xi[0])) / lams
    np.testing.assert_allclose(W.sum(axis=1), ends, rtol=0, atol=1e-14 * (xi[-1] - xi[0]))


def test_f0_matches_direct_mode_sum(prof, sin_data30, base150, series30):
    # independent evaluation of the same series, mode by mode
    xi = np.array([0.4, 1.1])
    t = np.array([0.2, 0.8, 1.9])
    got = series30.f0(xi, t)
    direct = np.zeros((len(xi), len(t)))
    for n in range(len(sin_data30)):
        lam, al = sin_data30.lambdas[n], sin_data30.normings[n]
        lam0, al0 = base150.lambdas0[n], base150.normings0[n]
        ph = phi0(prof, t, np.array([lam]))[:, 0]
        ph0 = phi0(prof, t, np.array([lam0]))[:, 0]
        direct += np.outer(np.cos(lam * xi), ph) / al
        direct -= np.outer(np.cos(lam0 * xi), ph0) / al0
    assert np.abs(got - direct).max() < 1e-10


def test_f_combination_at_fold_point(prof, series30):
    # at x = fold = a(1 + 1/alpha): mu_plus = pi-image value, mu_minus = 0,
    # so F(x, t) = (3/4) F0(pi_image, t) + (1/4) F0(0, t) for alpha = 2
    x = prof.fold
    t = np.array([0.3, 1.0, 2.2])
    mp = prof.mu_plus(x)
    got = series30.f(x, t)
    expected = (
        0.75 * series30.f0(np.array([mp]), t) + 0.25 * series30.f0(np.array([0.0]), t)
    )[0]
    assert np.isclose(prof.mu_minus(x), 0.0, atol=1e-12)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_f_even_extension_in_mu_minus(prof, series30):
    # past the fold mu_minus is negative; F uses F0(|mu_minus|, .)
    x = 0.5 * (prof.fold + np.pi)
    t = np.array([0.7])
    mm = prof.mu_minus(x)
    assert mm < 0
    direct = 0.75 * series30.f0(np.array([prof.mu_plus(x)]), t) + 0.25 * series30.f0(
        np.array([abs(mm)]), t
    )
    np.testing.assert_allclose(series30.f(x, t), direct[0], atol=1e-12)


def test_series_rejects_data_longer_than_baseline(prof, sin_data30):
    base20 = slgl.baseline_spectrum(prof, 20)
    with pytest.raises(ValueError, match="baseline"):
        KernelSeries(prof, sin_data30, base20)


def _perturbed_series(a, alpha, n=30):
    # any spectral sequence works for an identity check of the formulas
    prof = slgl.DensityProfile(a, alpha)
    base = slgl.baseline_spectrum(prof, n)
    k = np.arange(1, n + 1)
    data = slgl.SpectralData(
        prof, base.lambdas0 + 0.05 / k, base.normings0 * (1.0 + 0.02 / k)
    )
    return prof, KernelSeries(prof, data, base)


@pytest.mark.parametrize(
    "a, alpha", [(np.pi / 2, 2.0), (1.0, 0.3), (0.4, 2.0), (2.9, 3.0)]
)
def test_slice_kernels_match_reference_formulas(a, alpha):
    # the one-table slice assembly against the general-t formulas, on a
    # left slice, right slices with the straddle pair, the fold and pi
    prof, ser = _perturbed_series(a, alpha)
    xs = [0.5 * a, a + 0.05, 0.5 * (a + np.pi), np.pi]
    if prof.fold < np.pi:
        xs.append(prof.fold)
    straddles = 0
    for x in xs:
        xi = slice_nodes(prof, x, 32)
        t = prof.mu_plus_inverse(xi)
        K, F = ser.slice_kernels(x, xi)
        assert np.abs(K - ser.f0_integrated(xi, t)).max() < 1e-12
        assert np.abs(F - ser.f(x, t)).max() < 1e-12
        xstar = abs(prof.mu_minus(x))
        straddles += bool(np.any(np.isclose(xi, xstar + 1e-6, rtol=0, atol=1e-12)))
    assert straddles >= 1


def test_baseline_equal_data_gives_zero_kernels(prof, base150):
    data = slgl.SpectralData(
        profile=prof, lambdas=base150.lambdas0[:20], normings=base150.normings0[:20]
    )
    ser = KernelSeries(prof, data, base150)
    xi = np.linspace(0, 2.0, 9)
    t = np.linspace(0, 1.5, 7)
    assert np.abs(ser.f0(xi, t)).max() == 0.0
    assert np.abs(ser.f(1.9, t)).max() == 0.0


def test_complete_tail_reproduces_baseline(prof, base150):
    # baseline-equal data has zero shifts and ratios, so the imputed
    # tail must coincide with the baseline itself
    data = slgl.SpectralData(
        profile=prof, lambdas=base150.lambdas0[:20], normings=base150.normings0[:20]
    )
    ext = complete_tail(data, base150, 40)
    np.testing.assert_allclose(ext.lambdas, base150.lambdas0[:40], rtol=1e-15)
    np.testing.assert_allclose(ext.normings, base150.normings0[:40], rtol=1e-15)


def test_complete_tail_predicts_held_out_modes(prof, base150):
    # fit on the first 24 sin-potential modes, compare the imputed tail
    # against the true forward spectrum
    data36 = slgl.spectral_data(prof, np.sin, 36)
    ext = complete_tail(data36.truncated(24), base150, 36)
    assert len(ext) == 36
    np.testing.assert_array_equal(ext.lambdas[:24], data36.lambdas[:24])
    dlam = np.abs(ext.lambdas[24:] - data36.lambdas[24:]).max()
    dal = np.abs(ext.normings[24:] / data36.normings[24:] - 1.0).max()
    assert dlam < 2e-4
    assert dal < 5e-3


def test_complete_tail_validates_arguments(prof, sin_data30, base150):
    with pytest.raises(ValueError):
        complete_tail(sin_data30, base150, 200)
    ext = complete_tail(sin_data30, base150, 30)
    assert ext is sin_data30
