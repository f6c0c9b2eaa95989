"""Forward spectral solver: oracle identities and input validation."""

import numpy as np
import pytest

import slgl
from dense_scan import dense_zeros
from slgl import (
    PotentialSpec,
    SpectralData,
    check_asymptotics,
    integrate_phi,
    norming_numbers,
    spectral_data,
)


def test_constant_shift_law_classical(prof_classical):
    # for rho = 1 and q = c: lambda_n = sqrt(((2n-1)/2)^2 + c)
    c = 0.7
    lams = spectral_data(prof_classical, PotentialSpec(kind="constant", c=c), 10).lambdas
    n = np.arange(1, 11)
    expected = np.sqrt(((2 * n - 1) / 2) ** 2 + c)
    np.testing.assert_allclose(lams, expected, atol=2e-8)
    # phi = cos(k x) with k pi = (n - 1/2) pi, so alpha_n = pi / 2
    als = norming_numbers(prof_classical, PotentialSpec(kind="constant", c=c), lams)
    np.testing.assert_allclose(als, np.pi / 2, rtol=1e-7)


def test_stepped_potential_matches_exact_pieces():
    # q = c1 on [0, a], c2 on (a, pi]: on each piece phi is a cos / sin
    # of k x with k = sqrt(lam^2 rho - c) (cosh / sinh when k is imaginary)
    prof = slgl.DensityProfile(a=1.0, alpha=0.5)
    c1, c2 = 0.9, 0.3
    q = PotentialSpec(kind="callable", fn=lambda x: np.where(x <= prof.a, c1, c2))
    data = spectral_data(prof, q, 10)

    def phi(x, lam):
        k1 = np.sqrt(lam**2 - c1 + 0j)
        k2 = np.sqrt(lam**2 * prof.alpha**2 - c2 + 0j)
        ya, dya = np.cos(k1 * prof.a), -k1 * np.sin(k1 * prof.a)
        t = x - prof.a
        right = ya * np.cos(k2 * t) + dya * np.sin(k2 * t) / k2
        return np.where(x <= prof.a, np.cos(k1 * x), right).real

    exact = dense_zeros(lambda lam: phi(np.pi, lam), 10, 0.01, 20.0)
    assert np.abs(data.lambdas - exact).max() < 1e-8
    # phi is one sinusoid per piece: 200 Gauss-Legendre nodes each are exact
    t, w = np.polynomial.legendre.leggauss(200)
    xl, wl = 0.5 * prof.a * (t + 1.0), 0.5 * prof.a * w
    xr, wr = prof.a + 0.5 * (np.pi - prof.a) * (t + 1.0), 0.5 * (np.pi - prof.a) * w
    normings = wl @ phi(xl[:, None], exact) ** 2 + prof.alpha**2 * (
        wr @ phi(xr[:, None], exact) ** 2
    )
    assert np.abs(data.normings / normings - 1.0).max() < 1e-6


def test_tabulated_step_off_interface_matches_exact_pieces():
    # samples c1, c1, c3, c3 at 0, b, b + 1e-9, pi with b < a: q steps
    # inside the left piece, so phi is a cos / sin on [0, b], [b, a] and
    # [a, pi]; the sample nodes are mesh nodes, so no cell straddles the step
    prof = slgl.DensityProfile(a=2.0, alpha=1.5)
    b, c1, c3 = 1.1, 0.8, -0.4
    q = PotentialSpec(
        kind="tabulated",
        x_samples=[0.0, b, b + 1e-9, np.pi],
        q_samples=[c1, c1, c3, c3],
    )
    lams = spectral_data(prof, q, 10).lambdas

    def delta(lam):
        y, dy = 1.0 + 0j, 0j
        for x0, x1, rho, c in [(0.0, b, 1.0, c1), (b, prof.a, 1.0, c3),
                               (prof.a, np.pi, prof.alpha**2, c3)]:
            k = np.sqrt(lam**2 * rho - c + 0j)
            t = x1 - x0
            y, dy = y * np.cos(k * t) + dy * np.sin(k * t) / k, (
                -k * y * np.sin(k * t) + dy * np.cos(k * t)
            )
        return y.real

    exact = dense_zeros(delta, 10, 0.01, 20.0)
    assert np.abs(lams - exact).max() < 1e-8


def test_stepped_potential_eigenvalues_to_rounding():
    # the closed-form Delta of a q that is constant on each piece, its
    # roots polished by Newton steps: every Magnus cell is exact, so the
    # oracle's roots are off by rounding alone (measured 7.1e-15, one ulp
    # of lambda_30 = 44.7; unpolished, the bracket midpoints read 2.8e-14)
    prof = slgl.DensityProfile(a=1.0, alpha=0.5)
    c1, c2 = 0.9, 0.3
    q = PotentialSpec(kind="callable", fn=lambda x: np.where(x <= prof.a, c1, c2))

    def delta(lam):
        k1 = np.sqrt(lam**2 - c1 + 0j)
        k2 = np.sqrt(lam**2 * prof.alpha**2 - c2 + 0j)
        t = np.pi - prof.a
        ya, dya = np.cos(k1 * prof.a), -k1 * np.sin(k1 * prof.a)
        return (ya * np.cos(k2 * t) + dya * np.sin(k2 * t) / k2).real

    exact = dense_zeros(delta, 30, 0.01, 60.0)
    for _ in range(3):
        exact = exact - delta(exact) * 2e-6 / (delta(exact + 1e-6) - delta(exact - 1e-6))
    lams = spectral_data(prof, q, 30).lambdas
    assert np.abs(lams - exact).max() <= 1.5e-14


def test_sturm_grid_extends_and_halves(prof_classical):
    # rho = 1 and q = 400: lambda_n = sqrt((n - 1/2)^2 + 400) starts near
    # 20, beyond the first counting grid, and successive eigenvalues are
    # 0.05 n apart, so the grid's gaps of 1/2 hold several of them
    q = PotentialSpec(kind="constant", c=400.0)
    n = np.arange(1, 9)
    lams = spectral_data(prof_classical, q, 8).lambdas
    np.testing.assert_allclose(lams, np.sqrt((n - 0.5) ** 2 + 400.0), rtol=0, atol=1e-13)


def test_gap_holding_two_eigenvalues_matches_dense_scan(prof):
    # q = 10 on the reference profile puts lambda_3 and lambda_4 in one gap
    # of the counting grid (spacing pi / (2 mu_plus(pi))), which is halved;
    # the reference scans Delta itself 32 times more densely
    q = PotentialSpec(kind="constant", c=10.0)
    dense = np.pi / (64 * prof.mu_span)
    ref = dense_zeros(lambda lam: integrate_phi(prof, q, lam)[0], 12, dense, 30.0)
    gaps = np.floor(ref / (np.pi / (2 * prof.mu_span)))
    assert np.any(gaps[1:] == gaps[:-1])
    np.testing.assert_allclose(spectral_data(prof, q, 12).lambdas, ref, rtol=0, atol=1e-12)


def _count_passes(monkeypatch):
    """Record each ``_propagate`` call of the oracle: its lambdas and
    whether it counts zeros."""
    import slgl.forward

    passes = []
    propagate = slgl.forward._propagate

    def counted(profile, q, ls, *args, **kwargs):
        passes.append((np.array(ls), bool(kwargs.get("count_zeros"))))
        return propagate(profile, q, ls, *args, **kwargs)

    monkeypatch.setattr(slgl.forward, "_propagate", counted)
    return passes


def test_spectral_data_integrates_few_lambdas(prof, monkeypatch):
    # a counting grid of 2 n + 4 = 64 points, refinement steps that leave
    # out closed brackets, and the norming pass: 267 lambdas here
    passes = _count_passes(monkeypatch)
    spectral_data(prof, np.sin, 30)
    assert sum(len(ls) for ls, _ in passes) <= 270


def test_spectral_data_refinement_is_cheap(prof, monkeypatch):
    # one counting pass, six Anderson-Bjorck steps (most brackets close
    # with a pair of points) and the norming pass: 8 passes here
    passes = _count_passes(monkeypatch)
    spectral_data(prof, np.sin, 30)
    assert len(passes) <= 8


@pytest.mark.parametrize("c, short", [(40.0, 1), (50.0, 2)])
def test_sturm_grid_extends_on_its_lattice(prof, monkeypatch, c, short):
    # q = c on the reference profile lifts lambda_n above the first
    # counting window of 2 n + 4 grid points by ``short`` eigenvalues; the
    # grid goes on along the same lattice k pi / (2 mu_plus(pi)), by fewer
    # points than a doubling, and the reference scans Delta itself 32
    # times more densely than the lattice
    n = 10
    q = PotentialSpec(kind="constant", c=c)
    step = np.pi / (2 * prof.mu_span)
    ref = dense_zeros(lambda lam: integrate_phi(prof, q, lam)[0], n, step / 32, 30.0)
    assert np.count_nonzero(ref <= (2 * n + 3) * step) == n - short
    passes = _count_passes(monkeypatch)
    lams = spectral_data(prof, q, n).lambdas
    first, more = (ls for ls, counting in passes[:2] if counting)
    assert len(first) == 2 * n + 4 and len(more) < len(first)
    np.testing.assert_array_equal(
        np.concatenate([first, more]), step * np.arange(len(first) + len(more))
    )
    np.testing.assert_allclose(lams, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("a, alpha", [(0.3, 0.5), (1.0, 0.5)])
def test_exponentially_decaying_eigenfunctions(a, alpha):
    # q = 100: the low modes decay exponentially across the right piece
    # (by up to e^-24), so a root a few ulps to one side of the true one
    # carries a growing mode that crosses zero inside (0, pi); each index
    # comes from the Sturm counts at its bracket ends instead
    c = 100.0
    prof = slgl.DensityProfile(a=a, alpha=alpha)
    t = np.pi - a

    def pieces(lam):
        return np.sqrt(lam**2 - c + 0j), np.sqrt(lam**2 * alpha**2 - c + 0j)

    def delta(lam):
        k1, k2 = pieces(lam)
        ya, dya = np.cos(k1 * a), -k1 * np.sin(k1 * a)
        return (ya * np.cos(k2 * t) + dya * np.sin(k2 * t) / k2).real

    exact = dense_zeros(delta, 30, 0.0099, 80.0)
    for _ in range(3):
        exact = exact - delta(exact) * 2e-6 / (delta(exact + 1e-6) - delta(exact - 1e-6))
    data = spectral_data(prof, PotentialSpec(kind="constant", c=c), 30)
    assert np.abs(data.lambdas - exact).max() <= 1e-12  # measured 7.1e-15
    # the eigenfunction as the solution that vanishes at pi on the right
    # piece, which stays stable where it decays; 200 Gauss-Legendre nodes
    # per piece are exact to rounding
    k1, k2 = pieces(exact)
    g, w = np.polynomial.legendre.leggauss(200)
    xl, wl = 0.5 * a * (g + 1.0), 0.5 * a * w
    xr, wr = a + 0.5 * t * (g + 1.0), 0.5 * t * w
    left = np.cos(k1 * xl[:, None]).real
    right = (np.cos(k1 * a) * np.sin(k2 * (np.pi - xr[:, None])) / np.sin(k2 * t)).real
    normings = wl @ left**2 + alpha**2 * (wr @ right**2)
    # measured 2.1e-8 on mode 1 of (1, 0.5): shooting forward across a
    # decay of e^-18 loses about that many digits
    np.testing.assert_allclose(data.normings, normings, rtol=1e-7)


def test_eigenvalue_index_is_certified(prof_classical):
    # rho = 1 and q = -2: lambda_n^2 = (n - 1/2)^2 - 2, so lambda_1^2 =
    # -1.75 and the first positive zero of Delta is the second eigenvalue
    # (its eigenfunction cos(3 x / 2) has one interior zero, at pi / 3)
    q = PotentialSpec(kind="constant", c=-2.0)
    with pytest.raises(slgl.NumericalError, match="eigenvalue 1: .* 1 times"):
        spectral_data(prof_classical, q, 5)


def test_classical_spectrum_across_mesh_densities(prof_classical):
    # rho = 1, q = 0: lambda_n = n - 1/2, and Delta vanishes exactly on
    # some scan nodes.  Modes above 128 run on a mesh twice as fine, and
    # every index is certified on its own mesh.
    lams = spectral_data(prof_classical, None, 200).lambdas
    np.testing.assert_allclose(lams, np.arange(200) + 0.5, rtol=0, atol=1e-10)


def test_zero_potential_matches_baseline(prof, base150, zero_data40):
    assert np.abs(zero_data40.lambdas - base150.lambdas0[:40]).max() < 1e-8
    rel = np.abs(zero_data40.normings / base150.normings0[:40] - 1.0).max()
    assert rel < 1e-6


def test_eigenfunction_boundary_condition(prof, sin_data30):
    # phi(0) = 1, so |Delta| here is the boundary residual relative to
    # sup |phi|.  Delta is point-wise: the first 10 eigenvalues alone
    # read what they read inside the whole batch, bit for bit.
    lam = sin_data30.lambdas
    vals = integrate_phi(prof, np.sin, lam)[0]
    first = integrate_phi(prof, np.sin, lam[:10])[0]
    assert np.abs(vals).max() <= 1e-9
    assert np.abs(first).max() <= 1e-9
    np.testing.assert_array_equal(first, vals[:10])


def test_characteristic_sign_change_between_eigenvalues(prof, sin_data30):
    lam = sin_data30.lambdas
    mids = 0.5 * (lam[:-1] + lam[1:])
    vals = integrate_phi(prof, np.sin, mids)[0]
    assert np.all(np.abs(vals) > 1e-6)
    signs = np.sign(vals)
    assert np.all(signs[:-1] == -signs[1:])


def test_norming_numbers_positive(prof, sin_data30):
    assert np.all(sin_data30.normings > 0)


def test_potential_spec_kinds():
    assert PotentialSpec(kind="zero")(np.array([1.0]))[0] == 0.0
    assert PotentialSpec(kind="constant", c=2.5)(np.array([1.0]))[0] == 2.5
    assert np.isclose(PotentialSpec(kind="sin")(np.array([1.0]))[0], np.sin(1.0))
    assert np.isclose(
        PotentialSpec(kind="cos", c=3.0)(np.array([1.0]))[0], 3.0 * np.cos(1.0)
    )
    # an omitted scale means 1, an explicit 0 means q = 0
    for kind in ("sin", "cos"):
        assert PotentialSpec(kind=kind, c=0.0)(np.array([1.0]))[0] == 0.0
        assert PotentialSpec(kind=kind, c=0)(np.array([1.0]))[0] == 0.0
    assert PotentialSpec(kind="constant")(np.array([1.0]))[0] == 0.0
    tab = PotentialSpec(
        kind="tabulated", x_samples=[0.0, np.pi], q_samples=[0.0, np.pi]
    )
    assert np.isclose(tab(np.array([1.0]))[0], 1.0)


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(kind="warp")
    with pytest.raises(ValueError):
        PotentialSpec(kind="tabulated", x_samples=[0.0, 1.0], q_samples=[0.0, 1.0])
    with pytest.raises(ValueError):
        PotentialSpec(
            kind="tabulated", x_samples=[0.0, 2.0, 1.0, np.pi], q_samples=[0] * 4
        )
    with pytest.raises(ValueError):
        PotentialSpec(kind="callable")


def test_spectral_data_validation(prof):
    with pytest.raises(ValueError):
        SpectralData(profile=prof, lambdas=[2.0, 1.0], normings=[1.0, 1.0])
    with pytest.raises(ValueError):
        SpectralData(profile=prof, lambdas=[1.0, 2.0], normings=[1.0, -1.0])
    with pytest.raises(ValueError):
        SpectralData(profile=prof, lambdas=[1.0, 2.0], normings=[1.0])
    with pytest.raises(ValueError):
        SpectralData(profile=prof, lambdas=[1.0, np.nan], normings=[1.0, 1.0])


def test_spectral_data_truncation(sin_data30):
    short = sin_data30.truncated(7)
    assert len(short) == 7
    np.testing.assert_array_equal(short.lambdas, sin_data30.lambdas[:7])


def test_eigenvalues_rejects_bad_count(prof):
    with pytest.raises(ValueError):
        spectral_data(prof, None, 0)


def test_check_asymptotics_scaled_gaps(prof, base150, sin_data30):
    report = check_asymptotics(sin_data30, base150)
    assert report.bounded
    assert report.sup_scaled_gap < 5.0
    # the scaled gaps must not grow with n (1/n decay of the raw gaps)
    first = np.abs(report.scaled_gaps[:10]).max()
    last = np.abs(report.scaled_gaps[-10:]).max()
    assert last < 4 * max(first, 0.1)


def test_check_asymptotics_rejects_profile_mismatch(prof, base150):
    other = slgl.DensityProfile(a=1.0, alpha=2.0)
    data = SpectralData(profile=other, lambdas=[1.0], normings=[1.0])
    with pytest.raises(ValueError):
        check_asymptotics(data, base150)


def test_spectral_data_oracle_is_deterministic(prof):
    d1 = spectral_data(prof, np.sin, 5)
    d2 = spectral_data(prof, np.sin, 5)
    np.testing.assert_array_equal(d1.lambdas, d2.lambdas)
    np.testing.assert_array_equal(d1.normings, d2.normings)


def test_norming_matches_characteristic_derivative(prof, sin_data30):
    # at an eigenvalue Delta = 0, so the Wronskian identity reduces to
    # alpha_n = phi'(pi) Delta'(lam_n) / (2 lam_n); take Delta' by central
    # differences (lam -/+ h share a mesh unless a density step lies
    # between them)
    lam = sin_data30.lambdas
    h = 1e-5
    y, dy = integrate_phi(prof, np.sin, np.concatenate([lam - h, lam + h, lam]))
    n = len(lam)
    ddelta = (y[n : 2 * n] - y[:n]) / (2 * h)
    expected = dy[2 * n :] * ddelta / (2 * lam)
    np.testing.assert_allclose(sin_data30.normings, expected, rtol=1e-7)


def test_integrate_phi_keeps_real_input_real(prof):
    y, dy = integrate_phi(prof, np.sin, [1.3, 2.0])
    assert y.dtype == np.float64 and dy.dtype == np.float64
    yc, dyc = integrate_phi(prof, np.sin, np.array([1.3, 2.0]) + 0j)
    np.testing.assert_array_equal(yc.real, y)
    np.testing.assert_array_equal(dyc.real, dy)
