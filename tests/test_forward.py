"""Forward spectral solver: oracle identities and input validation."""

import itertools
import warnings

import numpy as np
import pytest

import slgl
import slgl.forward
from dense_scan import dense_zeros, normings_at, phi_at_pi
from slgl import (
    PotentialSpec,
    SpectralData,
    check_asymptotics,
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
    als = normings_at(prof_classical, PotentialSpec(kind="constant", c=c), lams)
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
    # roots polished by Newton steps: every Magnus cell is exact, and so is
    # every merged run of them, so the oracle's roots are off by rounding
    # alone (measured: one ulp at most, 7.1e-15 at lambda_30 = 44.6,
    # 2.8e-14 at lambda_90 = 135.6 and 5.7e-14 at lambda_300 = 454.5, past
    # the 128 and 256 cells per unit rungs, where a merged cell spans up to
    # 32 rad; unpolished, the bracket midpoints read 2.8e-14 at 30 modes)
    prof = slgl.DensityProfile(a=1.0, alpha=0.5)
    c1, c2 = 0.9, 0.3
    q = PotentialSpec(kind="callable", fn=lambda x: np.where(x <= prof.a, c1, c2))

    def delta(lam):
        k1 = np.sqrt(lam**2 - c1 + 0j)
        k2 = np.sqrt(lam**2 * prof.alpha**2 - c2 + 0j)
        t = np.pi - prof.a
        ya, dya = np.cos(k1 * prof.a), -k1 * np.sin(k1 * prof.a)
        return (ya * np.cos(k2 * t) + dya * np.sin(k2 * t) / k2).real

    for n, lam_max in ((30, 60.0), (90, 160.0), (300, 520.0)):
        exact = dense_zeros(delta, n, 0.01, lam_max)
        for _ in range(3):
            exact = exact - delta(exact) * 2e-6 / (delta(exact + 1e-6) - delta(exact - 1e-6))
        lams = spectral_data(prof, q, n).lambdas
        assert np.all(np.abs(lams - exact) <= 2.0 * np.spacing(exact))


def _meshes(a, alpha, q, density, monkeypatch):
    """The unmerged mesh (``_RUN`` = 1) and the mesh at ``density``, each
    as (columns, split, flat)."""
    prof = slgl.DensityProfile(a=a, alpha=alpha, strict=False)
    qf = slgl.forward._as_potential(q)
    with monkeypatch.context() as m:
        m.setattr(slgl.forward, "_RUN", 1)
        fine = slgl.forward._mesh(prof, qf, density)
    return fine, slgl.forward._mesh(prof, qf, density)


@pytest.mark.parametrize("density", [80.0, 256.0])
@pytest.mark.parametrize("a, alpha, q", [
    (np.pi / 2, 1.0, None),
    (np.pi / 2, 2.0, PotentialSpec(kind="constant", c=0.7)),
    (1.0, 0.5, PotentialSpec(kind="callable", fn=lambda x: np.where(x <= 1.0, 0.9, 0.3))),
], ids=["zero-classical", "constant", "step"])
def test_flat_cells_merge_in_runs_of_at_most_32(a, alpha, q, density, monkeypatch):
    # q constant on each piece: every cell is flat, and the mesh takes
    # each piece in as few runs of at most 32 fine cells as there can be,
    # with the interface a node of both meshes (also at alpha = 1, where
    # rho does not change there)
    (fine, split, _), (merged, msplit, flat) = _meshes(a, alpha, q, density, monkeypatch)
    nodes = np.concatenate([[0.0], np.cumsum(fine[0][:, 0])])  # f = h on a flat cell
    merged_nodes = np.concatenate([[0.0], np.cumsum(merged[0][:, 0])])
    at = np.rint(np.interp(merged_nodes, nodes, np.arange(len(nodes)))).astype(int)
    assert np.abs(nodes[at] - merged_nodes).max() <= 1e-13
    assert np.diff(at).min() >= 1 and np.diff(at).max() <= 32
    assert at[msplit] == split and at[-1] == len(fine[0])
    assert len(merged[0]) == -(-split // 32) + -(-(len(fine[0]) - split) // 32)
    assert flat.all()
    # f = H, d = 0 and e = H (q - lambda^2 rho)
    width = merged[0][:, 0]
    qs = slgl.forward._as_potential(q)(merged_nodes[:-1] + width / 2)
    rho = np.where(np.arange(len(width)) < msplit, 1.0, alpha**2)
    assert not np.any(merged[1]) and not np.any(merged[2])
    np.testing.assert_array_equal(merged[3][:, 0], width * qs)
    np.testing.assert_array_equal(merged[4][:, 0], -width * rho)


def test_scalar_callable_potential_matches_constant(prof):
    # a callable q that returns one number for all x is flat everywhere
    data = spectral_data(prof, lambda x: 0.7, 10)
    exact = spectral_data(prof, PotentialSpec(kind="constant", c=0.7), 10)
    np.testing.assert_array_equal(data.lambdas, exact.lambdas)
    np.testing.assert_array_equal(data.normings, exact.normings)


def test_mesh_without_flat_cells_is_not_merged(monkeypatch):
    # q = sin: no cell is flat, so the mesh keeps all its cells and marks
    # none of them flat
    (fine, split, _), (cells, msplit, flat) = _meshes(np.pi / 2, 2.0, PotentialSpec(kind="sin"),
                                                      80.0, monkeypatch)
    assert len(cells[0]) == len(fine[0]) == 252 and msplit == split == 126
    assert flat is None


def test_cell_with_equal_outer_samples_is_not_flat(prof):
    # q1 == q3 != q2 gives k2 = 0 and so d = 0, as on a flat cell, but the
    # cell is not flat and is not merged (``_mesh`` reads q at the three
    # Gauss points of every cell in turn: q1, q2, q3)
    samples = itertools.cycle([0.0, 1.0, 0.0])
    q = slgl.forward._as_potential(lambda x: next(samples))
    cells, split, flat = slgl.forward._mesh(prof, q, 80.0)
    assert not np.any(cells[1]) and not np.any(cells[2])
    assert flat is None and len(cells[0]) == 252 and split == 126


def test_tabulated_flat_stretch_merges_alone(monkeypatch):
    # q = 0.5 on [1, 2] and linear elsewhere: the 80 cells of [1, 2] make
    # runs of 32, 32 and 16, the only flat cells, and every other cell
    # stays as it is
    q = PotentialSpec(kind="tabulated", x_samples=[0.0, 1.0, 2.0, np.pi],
                      q_samples=[0.3, 0.5, 0.5, 0.9])
    (fine, split, _), (merged, msplit, flat) = _meshes(2.5, 2.0, q, 80.0, monkeypatch)
    first = int(np.argmin(np.abs(np.cumsum(fine[0][:, 0]) - 1.0))) + 1  # the node at x = 1
    assert len(merged[0]) == len(fine[0]) - 80 + 3 and msplit == split - 77
    for f, m in zip(fine, merged):
        np.testing.assert_array_equal(m[:first], f[:first])
        np.testing.assert_array_equal(m[first + 3:], f[first + 80:])
    np.testing.assert_allclose(merged[0][first : first + 3, 0], [0.4, 0.4, 0.2], rtol=1e-14)
    np.testing.assert_array_equal(np.nonzero(flat)[0], first + np.arange(3))


@pytest.mark.parametrize("q", [
    None,
    PotentialSpec(kind="constant", c=0.6),
    PotentialSpec(kind="constant", c=100.0),
    PotentialSpec(kind="constant", c=-0.1),
    PotentialSpec(kind="callable", fn=lambda x: np.where(x <= 1.0, 0.9, 0.3)),
], ids=["zero", "constant", "constant-100", "constant-negative", "step"])
def test_flat_cells_count_the_zeros_of_the_unmerged_mesh(q, monkeypatch):
    # on each density's own lambdas (|lambda| max(1, alpha) up to 40, 128
    # and 256, where a flat cell spans up to 32 rad), the Sturm count on
    # the merged mesh, which counts a flat cell of phase above pi by the
    # turns of its Pruefer angle, is the count of the unmerged mesh's node
    # sign changes, except where Delta is 0 to rounding (lambda = 1, 7 and
    # 17 of q = 0 on (pi/2, 2)); there each count has the sign of its own
    # mesh's Delta
    for a, alpha in [(np.pi / 2, 2.0), (1.0, 0.5), (2.4, 0.6), (0.2, 2.0), (2.9, 3.0),
                     (0.3, 0.5)]:
        for density, lo, hi in [(80.0, 0.0, 40.0), (128.0, 40.0, 128.0), (256.0, 128.0, 256.0)]:
            lams = np.linspace(lo, hi, 301)[1:] / max(1.0, alpha)
            assert np.all(slgl.forward._densities(lams, alpha) == density)
            counted = [slgl.forward._march(cells, lams**2, 1, True, flat)
                       for cells, _, flat in _meshes(a, alpha, q, density, monkeypatch)]
            (fine, fine_zeros), (merged, zeros) = ((v[0, 0], z) for v, z in counted)
            for delta, n in counted:
                assert np.array_equal(np.signbit(delta[0, 0]), n % 2 == 1)
            off = zeros != fine_zeros
            assert np.abs(zeros - fine_zeros).max() <= 1
            assert np.all(np.abs(fine[off]) <= 1e-14) and np.all(np.abs(merged[off]) <= 1e-14)


@pytest.mark.parametrize("q", [
    PotentialSpec(kind="constant", c=1e300),
    PotentialSpec(kind="constant", c=-1e300),
    PotentialSpec(kind="tabulated", x_samples=[0.0, 1.0, np.pi], q_samples=[0.0, 1e308, 0.0]),
    PotentialSpec(kind="tabulated", x_samples=[0.0, 1.0, np.pi], q_samples=[0.0, -1e308, 0.0]),
], ids=["constant", "constant-negative", "tabulated", "tabulated-negative"])
def test_potential_beyond_the_float_range_fails_cleanly(prof, q):
    # the cells' states or coefficients overflow, or a flat cell's phase
    # (1e150 rad) is beyond counting in turns: NumericalError, and no
    # RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(slgl.NumericalError):
            spectral_data(prof, q, 5)


def test_eigenvalue_error_is_sixth_order(prof, monkeypatch):
    # q = 3 cos at 10 modes on one fixed mesh density: halving the cells
    # from 32 to 64 per unit cuts the lambda error against 256 per unit by
    # 61x (measured; an order-4 scheme gives 16x)
    import slgl.forward

    q = PotentialSpec(kind="cos", c=3.0)
    lams = {}
    for density in (32, 64, 256):
        monkeypatch.setattr(slgl.forward, "_densities",
                            lambda ls, alpha, d=density: np.full(np.shape(ls), float(d)))
        lams[density] = spectral_data(prof, q, 10).lambdas
    coarse, fine = (np.abs(lams[d] - lams[256]).max() for d in (32, 64))
    assert coarse >= 40 * fine > 0


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
    ref = dense_zeros(lambda lam: phi_at_pi(prof, q, lam)[0], 12, dense, 30.0)
    gaps = np.floor(ref / (np.pi / (2 * prof.mu_span)))
    assert np.any(gaps[1:] == gaps[:-1])
    np.testing.assert_allclose(spectral_data(prof, q, 12).lambdas, ref, rtol=0, atol=1e-12)


def _count_passes(monkeypatch):
    """Record each pass of the oracle, ``_propagate`` calls and the
    norming pass: its lambdas and whether it counts zeros."""
    import slgl.forward

    passes = []
    propagate, norming_pass = slgl.forward._propagate, slgl.forward._norming_pass

    def counted(profile, q, ls, *args, **kwargs):
        passes.append((np.array(ls), bool(kwargs.get("count_zeros"))))
        return propagate(profile, q, ls, *args, **kwargs)

    def counted_norming(profile, q, ls, *args, **kwargs):
        passes.append((np.array(ls), False))
        return norming_pass(profile, q, ls, *args, **kwargs)

    monkeypatch.setattr(slgl.forward, "_propagate", counted)
    monkeypatch.setattr(slgl.forward, "_norming_pass", counted_norming)
    return passes


def test_spectral_data_integrates_few_lambdas(prof, monkeypatch):
    # a counting grid of 2 n + 4 = 64 points, refinement steps that leave
    # out settled brackets without evaluating their last point, and the
    # norming pass, whose Newton step certifies each root: 208 lambdas
    # here (233 when a point settled only where its move squared was at
    # most tol / 4 times the move just before it)
    passes = _count_passes(monkeypatch)
    spectral_data(prof, np.sin, 30)
    assert sum(len(ls) for ls, _ in passes) <= 210


def test_spectral_data_refinement_is_cheap(prof, monkeypatch):
    # one counting pass, six Anderson-Bjorck steps (a bracket stops where
    # its secant point settles; the last two hold only the lowest
    # eigenvalue, whose first secant point is off by 29% of its bracket)
    # and the norming pass: 8 passes here
    passes = _count_passes(monkeypatch)
    spectral_data(prof, np.sin, 30)
    assert len(passes) <= 8


def _cell_steps(monkeypatch, profile, q, n):
    """Cells times lambdas over every propagator that
    ``spectral_data(profile, q, n)`` builds, a complex lambda counted twice."""
    steps = []
    propagators = slgl.forward._propagators

    def counted(cells, lam2):
        steps.append(len(cells[0]) * lam2.size * (2 if np.iscomplexobj(lam2) else 1))
        return propagators(cells, lam2)

    monkeypatch.setattr(slgl.forward, "_propagators", counted)
    spectral_data(profile, q, n)
    return sum(steps)


def test_spectral_data_cell_steps(prof, monkeypatch):
    # all but three of the 208 lambdas (30 of them complex) have
    # |lambda| alpha <= 40 and take 80 cells per unit (252 cells), which
    # makes 60,432 here; with the settling rule that looked one move back
    # (233 lambdas) it was 66,732, with a closing pair per bracket (267
    # lambdas) 75,300, and at 128 cells per unit below |lambda| alpha = 128
    # (403 cells) 119,988
    assert _cell_steps(monkeypatch, prof, np.sin, 30) <= 61_000


@pytest.mark.parametrize("a, alpha, q, n, budget", [
    (1.0, 0.5, PotentialSpec(kind="callable", fn=lambda x: np.where(x <= 1.0, 0.9, 0.3)),
     30, 2_500),
    (np.pi / 2, 2.0, PotentialSpec(kind="constant", c=0.6), 20, 1_300),
], ids=["step", "constant"])
def test_flat_potential_cell_steps(monkeypatch, a, alpha, q, n, budget):
    # q constant on each piece: every pass, the counting pass included,
    # runs on 8 or 9 merged cells at 80 cells per unit, which makes 2,424
    # for the step and 1,272 for the constant (19,593 and 12,008 when the
    # counting pass marched the 252 unmerged cells)
    assert _cell_steps(monkeypatch, slgl.DensityProfile(a=a, alpha=alpha), q, n) <= budget


@pytest.mark.parametrize("n, marches", [(30, 10), (90, 16)])
def test_one_march_per_mesh_density_per_pass(prof, monkeypatch, n, marches):
    # each pass integrates all the lambdas of one mesh density at once; the
    # norming pass marches twice per density, the state across the cells
    # left of a and the propagator across those right of it
    import slgl.forward

    march, densities = slgl.forward._march, slgl.forward._densities
    calls = []
    monkeypatch.setattr(slgl.forward, "_march",
                        lambda *args, **kwargs: calls.append(1) or march(*args, **kwargs))
    passes = _count_passes(monkeypatch)
    spectral_data(prof, np.sin, n)
    per_pass = [len(set(densities(ls, prof.alpha).tolist())) for ls, _ in passes]
    # the last pass is the norming pass
    assert len(calls) == sum(per_pass) + per_pass[-1] == marches


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
    ref = dense_zeros(lambda lam: phi_at_pi(prof, q, lam)[0], n, step / 32, 30.0)
    assert np.count_nonzero(ref <= (2 * n + 3) * step) == n - short
    passes = _count_passes(monkeypatch)
    lams = spectral_data(prof, q, n).lambdas
    first, more = (ls for ls, counting in passes[:2] if counting)
    assert len(first) == 2 * n + 4 and len(more) < len(first)
    np.testing.assert_array_equal(
        np.concatenate([first, more]), step * np.arange(len(first) + len(more))
    )
    np.testing.assert_allclose(lams, ref, rtol=0, atol=1e-12)


def _constant_potential_spectrum(a, alpha, c, n):
    """The first n eigenvalues of the constant potential q = c from the
    closed-form Delta, polished by Newton steps, and their normings by
    quadrature of the eigenfunction: on the right piece it is taken as the
    solution that vanishes at pi, which stays stable where it decays, and
    200 Gauss-Legendre nodes per piece are exact to rounding.  That
    solution is scaled by 1 / sin(k2 (pi - a)), so a mode where that sine
    is near 0 loses its reference norming (modes 13 and 20 of q = 100 on
    (pi/2, 2))."""
    t = np.pi - a

    def pieces(lam):
        return np.sqrt(lam**2 - c + 0j), np.sqrt(lam**2 * alpha**2 - c + 0j)

    def delta(lam):
        k1, k2 = pieces(lam)
        ya, dya = np.cos(k1 * a), -k1 * np.sin(k1 * a)
        return (ya * np.cos(k2 * t) + dya * np.sin(k2 * t) / k2).real

    exact = dense_zeros(delta, n, 0.0099, 80.0)
    for _ in range(3):
        exact = exact - delta(exact) * 2e-6 / (delta(exact + 1e-6) - delta(exact - 1e-6))
    k1, k2 = pieces(exact)
    g, w = np.polynomial.legendre.leggauss(200)
    xl, wl = 0.5 * a * (g + 1.0), 0.5 * a * w
    xr, wr = a + 0.5 * t * (g + 1.0), 0.5 * t * w
    left = np.cos(k1 * xl[:, None]).real
    right = (np.cos(k1 * a) * np.sin(k2 * (np.pi - xr[:, None])) / np.sin(k2 * t)).real
    return exact, wl @ left**2 + alpha**2 * (wr @ right**2)


@pytest.mark.parametrize("a, alpha", [(0.3, 0.5), (1.0, 0.5)])
def test_exponentially_decaying_eigenfunctions(a, alpha):
    # q = 100: the low modes decay exponentially across the right piece
    # (by up to e^-24), so a root a few ulps to one side of the true one
    # carries a growing mode that crosses zero inside (0, pi); each index
    # comes from the Sturm counts at its bracket ends instead
    c = 100.0
    prof = slgl.DensityProfile(a=a, alpha=alpha)
    exact, normings = _constant_potential_spectrum(a, alpha, c, 30)
    data = spectral_data(prof, PotentialSpec(kind="constant", c=c), 30)
    assert np.abs(data.lambdas - exact).max() <= 1e-12  # measured 7.1e-15
    # measured 4.3e-13 on (1, 0.5) and 1.2e-12 on (0.3, 0.5): the normings
    # are matched at a, so no solution is shot across the decay (a
    # Wronskian at pi, shooting forward across a decay of e^-18, was off
    # by 2.1e-8 on mode 1 of (1, 0.5))
    np.testing.assert_allclose(data.normings, normings, rtol=1e-11)


def test_root_that_misses_the_newton_certificate_gets_a_second_pass(prof, monkeypatch):
    # q = 100 at 30 modes: the refinement stops lambda_10 where the norming
    # pass's Newton step is 1.45e-13, beyond the 1e-13 it certifies, so the
    # norming pass runs again at lambda_10 - delta, and that root and its
    # norming come from the second pass
    import slgl.forward

    calls = []
    norming_pass = slgl.forward._norming_pass
    monkeypatch.setattr(slgl.forward, "_norming_pass",
                        lambda p, q, ls, *args: calls.append(np.array(ls))
                        or norming_pass(p, q, ls, *args))
    data = spectral_data(prof, PotentialSpec(kind="constant", c=100.0), 30)
    assert [len(ls) for ls in calls] == [30, 1]
    assert calls[1][0] != calls[0][9]
    exact, normings = _constant_potential_spectrum(prof.a, prof.alpha, 100.0, 30)
    assert abs(data.lambdas[9] - exact[9]) <= 1e-12
    assert abs(data.normings[9] / normings[9] - 1.0) <= 1e-12


def test_cancelled_normings_raise_numerical_error(prof):
    # q = 1e4 (1 + cos x): phi_L grows by about e^200 across the left
    # piece while the low modes live near pi, so W_L(a) - c^2 W_R(a)
    # cancels and half the normings come out negative; that is a
    # numerical failure, not SpectralData's ValueError
    q = PotentialSpec(kind="callable", fn=lambda x: 1e4 * (1.0 + np.cos(x)))
    with pytest.raises(slgl.NumericalError, match="norming number"):
        spectral_data(prof, q, 10)


@pytest.mark.parametrize("z", [
    np.array([[0.3 - 0.2j, -1.0 + 0j], [1e-3j, 0.9 + 0.4j]]),  # |z| <= 1: the series
    np.array([[2.0 + 1e-20j, -50.0 - 1e-18j], [4.0j, 900.0 + 0j]]),  # the closed form
    np.array([[0.5 + 1e-20j, -30.0 + 1e-19j, 1.0 + 0j], [1.5j, -0.2 + 0j, 600.0 - 2j]]),
    np.zeros((2, 0), dtype=complex),
    np.array([[0.3, -1.0, 0.0], [4.0, -50.0, 900.0]]),  # real z: cos / sin or cosh / sinh
], ids=["small", "large", "mixed", "empty", "real"])
def test_cosh_sinhc_is_point_wise(z):
    # each entry takes its branch alone (Taylor series where |z| <= 1,
    # closed form elsewhere), so a batch of any mix gives each entry the
    # bits it gets by itself
    c, sc = slgl.forward._cosh_sinhc(z)
    assert c.shape == sc.shape == z.shape and c.dtype == sc.dtype == z.dtype
    for i in np.ndindex(z.shape):
        alone = slgl.forward._cosh_sinhc(z[i][None])
        assert (c[i], sc[i]) == (alone[0][0], alone[1][0])
    s = np.sqrt(z.astype(complex))
    np.testing.assert_allclose(c, np.cosh(s), rtol=1e-13)
    np.testing.assert_allclose(sc, np.where(s == 0, 1.0, np.sinh(s) / np.where(s == 0, 1.0, s)),
                               rtol=1e-13)


@pytest.mark.parametrize("a, alpha", [(0.3, 0.5), (1.0, 0.5)])
def test_decaying_normings_do_not_move_off_the_root(a, alpha):
    # q = 100: a lambda a few ulps off the root puts a growing mode on a
    # solution shot across the right piece; the normings matched at a
    # take neither solution across it, so they barely move (a Wronskian
    # at pi moved by up to 4.7e-8 here)
    prof = slgl.DensityProfile(a=a, alpha=alpha)
    q = PotentialSpec(kind="constant", c=100.0)
    lams = spectral_data(prof, q, 30).lambdas
    at_root = normings_at(prof, q, lams)
    for shift in (-5e-14, 5e-14):
        np.testing.assert_allclose(normings_at(prof, q, lams + shift), at_root, rtol=1e-11)


def test_eigenvalue_index_is_certified(prof_classical):
    # rho = 1 and q = -2: lambda_n^2 = (n - 1/2)^2 - 2, so lambda_1^2 =
    # -1.75 and the first positive zero of Delta is the second eigenvalue
    # (its eigenfunction cos(3 x / 2) has one interior zero, at pi / 3)
    q = PotentialSpec(kind="constant", c=-2.0)
    with pytest.raises(slgl.NumericalError, match="eigenvalue 1: .* 1 times"):
        spectral_data(prof_classical, q, 5)


def test_classical_spectrum_across_mesh_densities(prof_classical):
    # rho = 1, q = 0: lambda_n = n - 1/2, and Delta vanishes exactly on
    # some scan nodes.  The modes run on three meshes (80 cells per unit
    # up to lambda = 40, 128 up to 128, 256 above), and every index is
    # certified on its own mesh.
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
    vals = phi_at_pi(prof, np.sin, lam)[0]
    first = phi_at_pi(prof, np.sin, lam[:10])[0]
    assert np.abs(vals).max() <= 1e-9
    assert np.abs(first).max() <= 1e-9
    np.testing.assert_array_equal(first, vals[:10])


def test_characteristic_sign_change_between_eigenvalues(prof, sin_data30):
    lam = sin_data30.lambdas
    mids = 0.5 * (lam[:-1] + lam[1:])
    vals = phi_at_pi(prof, np.sin, mids)[0]
    assert np.all(np.abs(vals) > 1e-6)
    signs = np.sign(vals)
    assert np.all(signs[:-1] == -signs[1:])


def test_normings_positive(prof, sin_data30):
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
    for c in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            PotentialSpec(kind="constant", c=c)


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
    assert len(sin_data30.truncated(np.int64(0))) == 0


def test_spectral_data_truncation_rejects_bad_counts(sin_data30):
    # a negative count would slice from the end: -1 on 2 modes kept 1
    with pytest.raises(ValueError, match="-1 modes"):
        sin_data30.truncated(2).truncated(-1)
    with pytest.raises(TypeError):
        sin_data30.truncated(2.0)


def test_eigenvalues_rejects_bad_count(prof):
    with pytest.raises(ValueError):
        spectral_data(prof, None, 0)
    with pytest.raises(TypeError):
        spectral_data(prof, None, 10.5)
    assert len(spectral_data(prof, None, np.int64(3))) == 3


def test_check_asymptotics_bounds_decaying_gaps(prof, base150, sin_data30):
    report = check_asymptotics(sin_data30, base150)
    assert report.bounded
    assert report.sup_scaled_gap < 5.0
    # the scaled gaps n (lambda_n - lambda_n^0) must not grow with n (1/n
    # decay of the raw gaps), and the report holds their supremum
    n = np.arange(1, 31)
    scaled = np.abs(n * (sin_data30.lambdas - base150.lambdas0[:30]))
    assert report.sup_scaled_gap == scaled.max()
    assert scaled[-10:].max() < 4 * max(scaled[:10].max(), 0.1)


def test_check_asymptotics_rejects_empty_data(prof, base150):
    with pytest.raises(ValueError, match="at least one mode"):
        check_asymptotics(SpectralData(prof, [], []), base150)


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
    y, dy = phi_at_pi(prof, np.sin, np.concatenate([lam - h, lam + h, lam]))
    n = len(lam)
    ddelta = (y[n : 2 * n] - y[:n]) / (2 * h)
    expected = dy[2 * n :] * ddelta / (2 * lam)
    np.testing.assert_allclose(sin_data30.normings, expected, rtol=1e-7)


def test_propagate_keeps_real_input_real(prof):
    # the counting and refinement passes run in real arithmetic, the
    # norming pass in complex; a real lambda given as complex agrees to
    # rounding, not bitwise
    lams, q = np.array([1.3, 2.0]), PotentialSpec(kind="sin")
    y, dy, _ = slgl.forward._propagate(prof, q, lams)
    yc, dyc, _ = slgl.forward._propagate(prof, q, lams.astype(complex))
    assert y.dtype == dy.dtype == np.float64 and yc.dtype == dyc.dtype == np.complex128
    np.testing.assert_allclose(yc, y, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(dyc, dy, rtol=1e-12, atol=1e-15)
