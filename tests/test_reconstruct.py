"""Potential recovery and the verification machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slgl
from slgl import DensityProfile, SpectralData, potential_from_kernel, reconstruct_full
from slgl.reconstruct import cascade_response, conv_cascade, extension_cap


def synthetic_diagonal(profile, diag_fn, n=41):
    xg = np.linspace(0.0, np.pi, n)
    ia = int(np.argmin(np.abs(xg - profile.a)))
    xg[ia] = profile.a
    return xg, diag_fn(xg)


def test_synthetic_quadratic_diagonal_gives_linear_potential(prof_classical):
    # diagonal x^2/2 with rho = 1: q = 2 d/dx (x^2/2) = 2x, exactly,
    # because the per-piece second-order gradient is exact on quadratics
    xg, diag = synthetic_diagonal(prof_classical, lambda x: x**2 / 2)
    q = potential_from_kernel(prof_classical, xg, diag)
    np.testing.assert_allclose(q, 2 * xg, atol=1e-12)


def test_scaling_uses_density_jump(prof):
    # same diagonal slope s on both pieces: q = 4 rho/(sqrt(rho)+1) * s.
    # The recovery rescales the first right-piece node by the physical
    # interface jump ratio, so the first two right nodes are excluded.
    # The node at x = a reports the left limit.
    xg, diag = synthetic_diagonal(prof, lambda x: 0.5 * x)
    q = potential_from_kernel(prof, xg, diag)
    h = np.pi / (len(xg) - 1)
    left = xg <= prof.a
    right = xg > prof.a + 2.5 * h
    np.testing.assert_allclose(q[left], 4 / 2 * 0.5, atol=1e-10)
    np.testing.assert_allclose(q[right], 16 / 3 * 0.5, atol=1e-10)


def test_gradient_never_crosses_the_interface(prof):
    # a diagonal jump at x = a must not contaminate interior derivatives
    def diag_fn(x):
        return np.where(x <= prof.a, 0.0, 1.0)

    xg, diag = synthetic_diagonal(prof, diag_fn, n=81)
    q = potential_from_kernel(prof, xg, diag)
    interior_left = xg < prof.a - 0.2
    interior_right = xg > prof.a + 0.2
    assert np.abs(q[interior_left]).max() < 1e-12
    assert np.abs(q[interior_right]).max() < 1e-12


def test_potential_from_kernel_needs_enough_slices(prof):
    xg, diag = synthetic_diagonal(prof, lambda x: x, n=4)
    with pytest.raises(ValueError):
        potential_from_kernel(prof, xg, diag)


def test_conv_cascade_preserves_constants():
    y = np.full(64, 3.25)
    out = conv_cascade(y, (np.ones(5), np.ones(5), np.array([1.0, 2.0, 1.0])))
    np.testing.assert_allclose(out, 3.25, rtol=1e-14)


def test_conv_cascade_preserves_linear_in_interior():
    x = np.linspace(0, 1, 64)
    out = conv_cascade(x, (np.ones(5), np.ones(5), np.array([1.0, 2.0, 1.0])))
    np.testing.assert_allclose(out[6:-6], x[6:-6], atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=12, max_size=60))
def test_conv_cascade_respects_range(values):
    y = np.array(values)
    out = conv_cascade(y, (np.ones(5), np.ones(3)))
    assert out.max() <= y.max() + 1e-12
    assert out.min() >= y.min() - 1e-12


def test_cascade_response_dc_and_nulls():
    assert np.isclose(cascade_response(np.array([0.0]))[0], 1.0)
    # box-5 null at 2 pi / 5, binomial null at pi
    assert abs(cascade_response(np.array([2 * np.pi / 5]))[0]) < 1e-14
    assert abs(cascade_response(np.array([np.pi]))[0]) < 1e-14


def test_extension_cap_bounds(prof):
    hx = np.pi / 200
    cap = extension_cap(hx, [1.0, prof.alpha], lam_top=20.0)
    assert cap <= 3.2 * 20.0
    assert cap <= 0.475 * np.pi / (hx * prof.alpha)
    # ripple frequencies of both pieces land in the filter stop band
    oms = 2.0 * cap * np.array([1.0, prof.alpha]) * hx
    oms = np.abs((oms + np.pi) % (2 * np.pi) - np.pi)
    assert cascade_response(oms).max() < 0.05


def test_reconstruct_requires_minimum_data(prof, base150):
    data = slgl.SpectralData(
        profile=prof, lambdas=base150.lambdas0[:3], normings=base150.normings0[:3]
    )
    with pytest.raises(ValueError):
        reconstruct_full(prof, data)


def test_reconstruct_warns_on_shape_violation(prof, base150):
    # a constant +0.5 eigenvalue offset violates the 1/n gap decay
    data = slgl.SpectralData(
        profile=prof,
        lambdas=base150.lambdas0[:12] + 0.5,
        normings=base150.normings0[:12],
    )
    with pytest.warns(RuntimeWarning):
        reconstruct_full(prof, data, n_slices=24, m=16, smooth=False)


def test_reconstruction_result_metadata(recon30):
    meta = recon30.meta
    assert meta["n_modes_supplied"] == 30
    assert meta["n_modes_used"] >= 30
    assert meta["n_slices"] == 200
    assert meta["asymptotics_bounded"] is True
    assert recon30.residual_max <= 1e-10
    assert np.isfinite(recon30.condition_max)


def test_reconstruction_records_the_bordered_pass(recon30):
    meta = recon30.meta
    assert meta["slices_resolved"] == 0
    assert 0.0 < meta["pass_schur_min"] < np.inf
    assert meta["x_condition_max"] == recon30.x_grid[np.argmax(recon30.conditions)]
    assert meta["x_residual_max"] == recon30.x_grid[np.argmax(recon30.residuals)]


def test_reconstruction_row_at_x0_is_zero(recon30):
    # x = 0 is an empty slice: no solve, its kernel is identically zero
    assert recon30.x_grid[0] == 0.0
    for v in (recon30.diagonal, recon30.a0, recon30.residuals, recon30.conditions):
        assert v[0] == 0.0
    assert np.all(recon30.conditions[1:] > 0.0)


def test_interface_node_reports_the_left_limit(recon30, prof):
    # q = sin is continuous, so the node at x = a must read sin(a); it
    # reads 1.006 on recon30 and 0.845 at (a, alpha) = (1, 0.5)
    low = DensityProfile(a=1.0, alpha=0.5)
    recon_low = reconstruct_full(low, slgl.spectral_data(low, np.sin, 20))
    for res, p in ((recon30, prof), (recon_low, low)):
        q_a = res.q_values[np.flatnonzero(res.x_grid == p.a)[0]]
        assert abs(q_a - np.sin(p.a)) <= 0.02


def test_reconstruction_grid_contains_interface(recon30, prof):
    assert np.abs(recon30.x_grid - prof.a).min() == 0.0
    assert recon30.x_grid[0] == 0.0 and np.isclose(recon30.x_grid[-1], np.pi)


def test_interior_accuracy_beats_full_range(recon30, prof):
    from qerror import rel_l2

    q_true = np.sin(recon30.x_grid)
    full = rel_l2(recon30.x_grid, recon30.q_values, q_true)
    inner = (recon30.x_grid > 0.35) & (recon30.x_grid < np.pi - 0.35)
    mask_seam = np.abs(recon30.x_grid - prof.a) > 0.35
    mask_fold = np.abs(recon30.x_grid - prof.fold) > 0.35
    sel = inner & mask_seam & mask_fold
    core = rel_l2(recon30.x_grid[sel], recon30.q_values[sel], q_true[sel])
    assert core < full
    assert core < 0.03


def test_stepped_round_trip_across_the_family():
    # q = 0.8 on [0, a], 0.4 beyond, from the forward oracle's 30 modes;
    # the interface rows once carried beta twice on these profiles
    # (rel L2 0.180, 0.041 and 6.70; condition 630 on (1.55, 2.5)), and
    # a = 0.68 against 0.69 read 0.008 against 0.180
    from qerror import rel_l2

    err, cond = {}, {}
    for a, alpha in ((0.68, 1.6), (0.69, 1.6), (1.55, 1.6), (1.55, 2.5)):
        p = DensityProfile(a, alpha)
        res = reconstruct_full(
            p, slgl.spectral_data(p, lambda x: np.where(x <= a, 0.8, 0.4), 30)
        )
        q_true = np.where(res.x_grid <= a, 0.8, 0.4)
        err[a, alpha] = rel_l2(res.x_grid, res.q_values, q_true)
        cond[a, alpha] = res.condition_max
    print(f"stepped round trip rel L2 {err}, condition {cond}")
    assert err[0.69, 1.6] <= 0.02
    assert err[1.55, 1.6] <= 0.02
    assert err[1.55, 2.5] <= 0.06
    assert cond[1.55, 2.5] <= 200.0
    assert 0.5 <= err[0.68, 1.6] / err[0.69, 1.6] <= 2.0


def test_unsmoothed_reconstruction_is_noisier_but_unbiased(prof, sin_data30):
    from qerror import rel_l2

    raw = reconstruct_full(prof, sin_data30, smooth=False)
    q_true = np.sin(raw.x_grid)
    sel = (raw.x_grid > 0.3) & (raw.x_grid < np.pi - 0.3)
    err_raw = rel_l2(raw.x_grid[sel], raw.q_values[sel], q_true[sel])
    assert np.isfinite(err_raw)
    # the truncation ripple dominates the raw derivative; smoothing is
    # what makes the pipeline accurate
    assert err_raw > 0.05


def test_verification_suite_fast_configuration(prof, sin_data30):
    # half the default node lattice: its 73 slices hold 4,495 nodes, where
    # m = 64 intervals on every slice held 4,834 before the slices shared
    # one lattice; at m = 64 they hold 2,267 and ortho reads 1.31e-3
    suite = slgl.verification_suite(
        prof,
        sin_data30,
        n_modes=16,
        m=128,
        m_boundary=256,
    )
    assert suite["boundary"] < 1e-3
    assert suite["ortho"] < 1e-3
    assert suite["parseval"] < 1e-2
    for key in ("boundary", "ortho", "parseval"):
        assert suite[f"{key}_degradation"] > 10.0


def test_verification_suite_makes_one_pass_per_slice(monkeypatch, prof, sin_data30):
    # the data and the shifted eigenvalues are one stacked set: one phi0
    # and one hat_cos_weights call per slice, plus one hat_cos_weights
    # call for the boundary slice at x = pi
    lam_counts = {"phi0": [], "hat_cos_weights": []}
    for name, log in lam_counts.items():
        fn = getattr(slgl.reconstruct, name)

        def counted(*args, _fn=fn, _log=log):
            _log.append(len(args[-1]))
            return _fn(*args)

        monkeypatch.setattr(slgl.reconstruct, name, counted)
    n_modes = 8
    suite = slgl.verification_suite(
        prof, sin_data30, n_modes=n_modes, m=32, m_boundary=64
    )
    # every Gauss-Legendre node is a slice: per piece, 2.5 nodes per period
    # of the top Gram frequency 2 lam_top sqrt(rho), plus 16
    lam_top = sin_data30.lambdas[n_modes - 1] + suite["shift"]
    sized = [
        int(np.ceil(1.25 * 2 * lam_top * srho * length / np.pi)) + 16
        for srho, length in ((1.0, prof.a), (prof.alpha, np.pi - prof.a))
    ]
    assert suite["quadrature_nodes"] == sized
    n_slices = sum(sized)
    assert lam_counts["phi0"] == [2 * n_modes] * n_slices
    assert lam_counts["hat_cos_weights"] == [2 * n_modes] * (n_slices + 1)


def test_verification_suite_sizes_its_baseline_to_the_scored_modes(prof, sin_data30):
    # 10 measured modes, 40 modes scored: the suite's own baseline covers
    # the 30 completed ones
    suite = slgl.verification_suite(prof, sin_data30.truncated(10), m=32, m_boundary=64)
    assert suite["n_modes"] == 40
    assert np.isfinite(suite["boundary"])


BASELINE_EQUAL_CELLS = [(np.pi / 2, 2.0), (1.0, 0.5), (2.9, 3.0), (0.4, 3.0)]


def baseline_equal_suites(n_modes):
    # data equal to the baseline spectrum: the kernel is exactly 0, so the
    # Gram scores measure the suite's x-quadrature alone
    for a, alpha in BASELINE_EQUAL_CELLS:
        profile = DensityProfile(a=a, alpha=alpha)
        base = slgl.baseline_spectrum(profile, n_modes)
        data = SpectralData(profile, base.lambdas0, base.normings0)
        yield slgl.verification_suite(
            profile, data, n_modes=n_modes, m=16, m_boundary=16
        )


@pytest.mark.parametrize("n_modes", [40, 80])
def test_suite_quadrature_is_exact_on_baseline_data(n_modes):
    for suite in baseline_equal_suites(n_modes):
        assert suite["ortho"] <= 1e-12
        assert suite["norming"] <= 1e-12


def test_suite_quadrature_at_half_its_size_is_not_exact(monkeypatch):
    node_count = slgl.reconstruct._node_count
    monkeypatch.setattr(
        slgl.reconstruct, "_node_count", lambda *args: node_count(*args) // 2
    )
    worst = max(max(s["ortho"], s["norming"]) for s in baseline_equal_suites(40))
    assert worst > 1e-12


def test_suite_parseval_holds_as_its_quadrature_grows(monkeypatch, prof, sin_data30):
    # every slice takes its nodes from one lattice, so the kernel error is
    # smooth in x and more quadrature nodes no longer move the score
    node_count = slgl.reconstruct._node_count
    scores = []
    for scale in (1.5, 2, 4, 8):
        monkeypatch.setattr(
            slgl.reconstruct, "_node_count",
            lambda *args, scale=scale: int(scale * node_count(*args)),
        )
        scores.append(slgl.verification_suite(prof, sin_data30)["parseval"])
    print(f"parseval at 1.5 / 2 / 4 / 8 times the sized rule: {scores}")
    assert max(scores) / min(scores) <= 1.15


def test_suite_negative_control_is_much_worse(suite30):
    assert suite30["boundary_shifted"] > 0.05
    assert suite30["ortho_shifted"] > 0.05
    assert suite30["parseval_shifted"] > 0.05
