"""Main integral equation: slice grids, assembly, solves, diagnostics."""

import numpy as np
import pytest

import slgl
from slgl import KernelSeries, assemble_slice, solve_slice
from slgl.glm import RESIDUAL_GATE, slice_nodes, solve_slices


@pytest.fixture(scope="module")
def series30(prof, sin_data30, base150):
    return KernelSeries(prof, sin_data30, base150)


def test_slice_nodes_left_piece_uniform(prof):
    # a left slice keeps the lattice nodes j h below its top - h/4, with
    # h = a / n1 and n1 = round(a m / mu_plus(pi)), then closes at its top
    m, x = 32, 1.0
    xi = slice_nodes(prof, x, m)
    h = prof.a / max(2, round(prof.a * m / prof.mu_span))
    np.testing.assert_array_equal(xi[:-1], np.arange(len(xi) - 1) * h)
    assert xi[-2] < x - h / 4 <= xi[-2] + h
    assert xi[-1] == prof.mu_plus(x)


def test_slice_nodes_right_piece_geometry(prof):
    x = 2.5
    xi = slice_nodes(prof, x, 96)
    top = prof.mu_plus(x)
    assert xi[0] == 0.0 and np.isclose(xi[-1], top)
    assert np.all(np.diff(xi) > 0)
    # the interface value a is a node, exactly
    assert prof.a in xi
    # a straddle pair encloses the kernel jump at |mu_minus(x)|
    xstar = abs(prof.mu_minus(x))
    assert np.any(np.isclose(xi, xstar - 1e-6, atol=1e-12))
    assert np.any(np.isclose(xi, xstar + 1e-6, atol=1e-12))


@pytest.mark.parametrize(
    "a, alpha, k",
    [(0.7, 0.6, 119), (1.0, 0.5, 191), (1.2, 1.15, 143), (1.55, 2.5, 138),
     (0.7, 0.6, 193), (1.0, 0.3, 64), (2.4, 0.6, 153)],
)
def test_slice_nodes_keep_grid_ends_and_interface(a, alpha, k):
    # slices x = k pi / 200 whose kernel jump |mu_minus(x)| lies within a
    # quarter lattice step of 0, a or mu_plus(x): the straddle pair joins
    # the grid without displacing any of those three nodes
    prof = slgl.DensityProfile(a, alpha)
    x = k * np.pi / 200
    xi = slice_nodes(prof, x, 128)
    xstar = abs(prof.mu_minus(x))
    assert xi[0] == 0.0
    assert a in xi
    assert xi[-1] == prof.mu_plus(x)
    assert np.all(np.diff(xi) > 0)
    for v in (xstar - 1e-6, xstar + 1e-6):
        assert np.abs(xi - v).min() < 1e-12


def test_slice_nodes_image_targets_on_lattice(prof):
    # reflection targets 2a - s for lattice points s <= a must land on
    # nodes, so the image ladder never interpolates off-lattice
    x = 2.9
    xi = slice_nodes(prof, x, 64)
    h1 = prof.a / max(2, round(prof.a * 64 / prof.mu_span))
    lattice = xi[np.isclose(xi % h1, 0.0, atol=1e-9) | np.isclose(xi % h1, h1, atol=1e-9)]
    targets = 2 * prof.a - lattice[lattice <= prof.a]
    top = xi[-1]
    for tgt in targets:
        if 0 <= tgt <= top:
            assert np.abs(xi - tgt).min() < 1e-9


def test_assemble_rejects_bad_positions(prof, series30):
    with pytest.raises(ValueError):
        assemble_slice(prof, series30, 0.0, 16)
    with pytest.raises(ValueError):
        assemble_slice(prof, series30, np.pi + 0.1, 16)
    with pytest.raises(ValueError):
        assemble_slice(prof, series30, 1.0, 4)
    # the per-slice entry points check their slice position once
    with pytest.raises(ValueError):
        slice_nodes(prof, np.pi + 0.1, 16)
    with pytest.raises(ValueError):
        series30.slice_kernels(np.pi + 0.1, np.linspace(0.0, 1.0, 5))


def test_assemble_at_endpoint_succeeds(prof, series30):
    system = assemble_slice(prof, series30, np.pi, 64)
    assert np.all(np.diff(system.nodes) > 0)
    assert np.all(np.isfinite(system.matrix))


def test_left_slice_identity_plus_compact(prof, series30):
    # for x <= a there are no image ladders: the matrix is I + quadrature
    x = 1.2
    system = assemble_slice(prof, series30, x, 48)
    K = series30.f0_integrated(system.nodes, system.nodes)
    np.testing.assert_allclose(
        system.matrix, K + np.eye(len(system.nodes)), atol=1e-12
    )


def _ladder_by_loop(profile, xi, M):
    """The image ladders stamped node by node, as a reference."""
    a, alpha = profile.a, profile.alpha
    n, top = len(xi), xi[-1]
    t = profile.mu_plus_inverse(xi)
    beta = (1.0 - alpha) / (1.0 + alpha)
    g_t = 2.0 / (1.0 + profile.srho(t))
    mup_t, mum_t = profile.mu_plus(t), profile.mu_minus(t)

    def add_at(i, p, c):
        if abs(c) < 1e-15 or p < 0 or p > top + 1e-12:
            return
        p = min(p, top)
        j = min(max(int(np.searchsorted(xi, p)) - 1, 0), n - 2)
        th = (p - xi[j]) / (xi[j + 1] - xi[j])
        M[i, j] += c * (1.0 - th)
        M[i, j + 1] += c * th

    for i in range(n):
        k = 1
        while mup_t[i] + 2 * a * k <= top + 1e-12:
            add_at(i, mup_t[i] + 2 * a * k, g_t[i] * beta**k)
            k += 1
        if t[i] <= a + 1e-12:
            k = 0
            while mum_t[i] + 2 * a * k <= top + 1e-12:
                add_at(i, mum_t[i] + 2 * a * k, beta ** (k + 1))
                k += 1
    return M


@pytest.mark.parametrize(
    "a, alpha", [(np.pi / 2, 2.0), (1.0, 0.3), (0.4, 2.0), (2.9, 3.0)]
)
def test_image_ladder_matches_node_loop(a, alpha):
    # the vectorised ladder against a per-node reference loop, on slices
    # with several images, the straddle pair and the fold
    profile = slgl.DensityProfile(a, alpha)
    base = slgl.baseline_spectrum(profile, 12)
    k = np.arange(1, 13)
    data = slgl.SpectralData(profile, base.lambdas0 + 0.05 / k, base.normings0)
    ser = KernelSeries(profile, data, base)
    xs = [0.5 * a, a, 0.5 * (a + np.pi), np.pi]
    if profile.fold < np.pi:
        xs.append(profile.fold)
    for x in xs:
        system = assemble_slice(profile, ser, x, 40)
        xi = system.nodes
        M = ser.slice_kernels(x, xi)[0]
        t = profile.mu_plus_inverse(xi)
        M[np.diag_indices(len(xi))] += 2.0 / (1.0 + profile.srho(t))
        M = _ladder_by_loop(profile, xi, M)
        assert np.abs(system.matrix - M).max() < 1e-14


@pytest.mark.parametrize(
    "a, alpha", [(1.55, 2.5), (0.69, 1.6), (1.55, 1.6), (np.pi / 2, 2.0)]
)
def test_interface_row_carries_each_ladder_once(a, alpha):
    # the row at xi = a takes the left-piece identity 1 and both ladders,
    # whose targets a + 2ak coincide: beyond the quadrature its stamps sum
    # to (1 + beta) sum_k beta^k over the targets inside the slice
    profile = slgl.DensityProfile(a, alpha)
    base = slgl.baseline_spectrum(profile, 12)
    n = np.arange(1, 13)
    data = slgl.SpectralData(profile, base.lambdas0 + 0.05 / n, base.normings0)
    ser = KernelSeries(profile, data, base)
    beta = (1.0 - alpha) / (1.0 + alpha)
    for x in np.arange(1, 201) * np.pi / 200:
        if x <= a:
            continue
        system = assemble_slice(profile, ser, x, 128)
        xi = system.nodes
        i = int(np.abs(xi - a).argmin())
        stamps = system.matrix[i] - ser.slice_kernels(x, xi)[0][i]
        k = np.arange(int((xi[-1] - a) // (2 * a)) + 1)
        assert abs(stamps.sum() - (1 + beta) * np.sum(beta**k)) < 1e-13, x


def test_condition_estimate_is_the_one_norm_condition_number(prof, series30):
    for x in (1.0, 2.0, np.pi):
        system = assemble_slice(prof, series30, x, 48)
        solve_slice(system)
        np.testing.assert_allclose(
            system.condition_estimate, np.linalg.cond(system.matrix, 1), rtol=1e-13
        )


def test_slice_solves_never_call_phi0(prof, series30, monkeypatch):
    # each slice's phi0 values come from its cos/sin tables
    calls = []
    phi0 = slgl.kernels.phi0

    def counted(*args):
        calls.append(1)
        return phi0(*args)

    monkeypatch.setattr(slgl.kernels, "phi0", counted)
    series30.f0_integrated(np.linspace(0.0, 1.0, 5), np.array([0.5]))
    assert len(calls) == 2  # the reference formula does reach the counter
    calls.clear()
    solve_slices(prof, series30, np.linspace(np.pi / 16, np.pi, 16), m=32)
    assert len(calls) == 0


def test_solve_slice_residual_recorded(prof, series30):
    system = assemble_slice(prof, series30, 2.0, 48)
    g = solve_slice(system)
    assert system.residual is not None and system.residual <= RESIDUAL_GATE
    assert system.condition_estimate is not None
    assert np.all(np.isfinite(g))


def test_solve_slice_matches_trapezoid_nystrom(prof, series30):
    # dual-route check: same equation discretized with plain trapezoid
    # sampling instead of product integration must agree closely
    x = 1.2
    system = assemble_slice(prof, series30, x, 96)
    g = solve_slice(system, estimate_condition=False)
    xi = system.nodes
    F0 = series30.f0(xi, xi)
    h = np.diff(xi)
    w = 0.5 * (np.r_[h, 0.0] + np.r_[0.0, h])
    M = F0.T * w[None, :] + np.eye(len(xi))
    g_ref = np.linalg.solve(M, -series30.f(x, xi))
    assert np.abs(g - g_ref).max() < 1e-4


def test_solution_refines_under_node_doubling(prof, series30):
    # the solved kernel endpoint stabilizes as the grid refines
    x = 2.0
    vals = {}
    for m in (32, 64, 128):
        g = solve_slice(
            assemble_slice(prof, series30, x, m), estimate_condition=False
        )
        vals[m] = g[-1]
    assert abs(vals[64] - vals[128]) < abs(vals[32] - vals[64])


def test_solve_slices_aggregates_diagnostics(prof, series30):
    xs = np.array([0.8, prof.a, 2.2, np.pi])
    sol = solve_slices(prof, series30, xs, m=32)
    assert [len(g) for g in sol.solutions] == [len(xi) for xi in sol.nodes]
    assert sol.residuals.shape == xs.shape and sol.conditions.shape == xs.shape
    assert np.all(sol.residuals <= RESIDUAL_GATE)
    assert np.all(np.isfinite(sol.conditions))


def test_baseline_equal_data_solves_to_zero_kernel(prof, base150):
    data = slgl.SpectralData(
        profile=prof, lambdas=base150.lambdas0[:20], normings=base150.normings0[:20]
    )
    ser = KernelSeries(prof, data, base150)
    sol = solve_slices(prof, ser, np.array([0.9, 2.4]), m=32)
    assert len(sol.solutions) == 2
    for g in sol.solutions:
        assert np.all(g == 0.0)


def test_interface_row_continuity(prof, series30):
    # collocation rows are continuous across t = a: solving two slices
    # whose grids bracket the interface gives nearby kernels
    g1 = solve_slice(
        assemble_slice(prof, series30, 2.2, 128), estimate_condition=False
    )
    g2 = solve_slice(
        assemble_slice(prof, series30, 2.2, 192), estimate_condition=False
    )
    assert abs(g1[-1] - g2[-1]) < 5e-4


def _perturbed_series(a, alpha, n=12):
    profile = slgl.DensityProfile(a, alpha)
    base = slgl.baseline_spectrum(profile, n)
    k = np.arange(1, n + 1)
    data = slgl.SpectralData(profile, base.lambdas0 + 0.05 / k, base.normings0)
    return profile, KernelSeries(profile, data, base)


def _assert_pass_matches_direct_solves(profile, ser, xs, m):
    sol = solve_slices(profile, ser, xs, m)
    assert sol.n_resolved == 0
    direct = []
    for x, xi in zip(xs, sol.nodes):
        system = assemble_slice(profile, ser, x, m)
        np.testing.assert_array_equal(system.nodes, xi)
        direct.append((solve_slice(system), system.condition_estimate))
    # relative to the grid's largest |g|: near x = 0 a slice's g is ~1e-3
    # and its right-hand side carries ~1e-15 of rounding either way
    scale = max(np.abs(g).max() for g, _ in direct)
    for (g, c), g_pass, c_pass in zip(direct, sol.solutions, sol.conditions):
        assert np.abs(g_pass - g).max() <= 1e-12 * scale
        assert abs(c_pass / c - 1.0) <= 1e-10
    assert np.all(sol.residuals <= RESIDUAL_GATE)


@pytest.mark.parametrize(
    "a, alpha", [(np.pi / 2, 2.0), (1.0, 0.5), (2.4, 0.6), (0.7, 1.6)]
)
def test_bordered_pass_matches_direct_slice_solves(a, alpha):
    # every slice of the reconstruction grid, from one bordering pass,
    # against its own system assembled and solved on the same nodes
    profile, ser = _perturbed_series(a, alpha)
    _assert_pass_matches_direct_solves(profile, ser, np.arange(1, 201) * np.pi / 200, 256)


def test_bordered_pass_matches_direct_solves_on_the_suite_slices(monkeypatch, prof, sin_data30):
    calls = []

    def recorded(profile, series, xs, m, **kwargs):
        calls.append((profile, series, np.asarray(xs), m))
        return solve_slices(profile, series, xs, m, **kwargs)

    monkeypatch.setattr(slgl.reconstruct, "solve_slices", recorded)
    slgl.verification_suite(prof, sin_data30)
    (profile, ser, xs, m), = calls
    assert np.all(np.diff(xs) > 0)
    _assert_pass_matches_direct_solves(profile, ser, xs, m)


def test_bordered_pass_checks_its_inputs(prof, series30):
    with pytest.raises(ValueError):
        solve_slices(prof, series30, [0.0, 1.0])
    with pytest.raises(ValueError):
        solve_slices(prof, series30, [1.0], m=4)
    sol = solve_slices(prof, series30, [])
    assert sol.solutions == [] and sol.n_resolved == 0
    with pytest.raises(RuntimeError):
        solve_slices(prof, series30, [2.0], condition_cap=1.0)


def test_bordered_slices_are_taken_only_where_the_pass_stands(prof, series30):
    xs = np.array([1.0, 2.0])
    bp = slgl.glm._BorderedPass(prof, series30, xs, 64)
    with pytest.raises(ValueError):
        assemble_slice(prof, series30, 1.0, 64, lattice=bp)  # not started
    it = iter(bp)
    i = next(it)
    with pytest.raises(ValueError):
        assemble_slice(prof, series30, float(xs[1 - i]), 64, lattice=bp)
    first = assemble_slice(prof, series30, float(xs[i]), 64, lattice=bp)
    assert isinstance(first, slgl.glm.BorderedSlice)
    with pytest.raises(ValueError):
        assemble_slice(prof, series30, float(xs[i]), 64, lattice=bp)  # taken
    next(it)  # the pass borders on to the second slice
    with pytest.raises(ValueError):
        solve_slice(first)


def test_bordered_pass_resolves_the_slices_it_cannot_certify(monkeypatch, prof, series30):
    # a slice whose low-rank residual misses the gate is solved directly
    # and counted; a NaN residual misses it too
    solve = slgl.glm._BorderedPass.solve

    def spoiled(self, *args):
        g, res, cond = solve(self, *args)
        return g, (np.nan if self.k % 2 else res), cond

    monkeypatch.setattr(slgl.glm._BorderedPass, "solve", spoiled)
    xs = np.linspace(0.3, np.pi, 12)
    sol = solve_slices(prof, series30, xs, 64)
    assert 0 < sol.n_resolved < len(xs)
    for x, g, c in zip(xs, sol.solutions, sol.conditions):
        system = assemble_slice(prof, series30, x, 64)
        np.testing.assert_allclose(g, solve_slice(system), rtol=0, atol=1e-12)
        assert abs(c / system.condition_estimate - 1.0) <= 1e-10
