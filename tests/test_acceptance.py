"""Acceptance gate: the eight end-to-end criteria for the toolkit.

Each test prints one line with the measured values before asserting, so
a failing run shows exactly which gate was missed and by how much.
Heavy inputs come from session fixtures (see conftest); the two
criteria with their own runtime budgets time their work in-test.
"""

import time

import numpy as np
import pytest

import slgl
from qerror import rel_l2
from slgl import KernelSeries, assemble_slice, complete_tail, solve_slice


def test_criterion_1_baseline_identity(prof, base150):
    # baseline-equal data must reconstruct the zero potential exactly:
    # every series term cancels pairwise, so the solved kernel, its
    # diagonal, and the derivative are all identically zero
    data = slgl.SpectralData(
        profile=prof,
        lambdas=base150.lambdas[:40],
        normings=base150.normings[:40],
    )
    t0 = time.perf_counter()
    res = slgl.reconstruct_full(prof, data)
    dt = time.perf_counter() - t0
    peak = float(np.abs(res.q_values).max())
    print(
        f"criterion 1 baseline identity: max|q| = {peak:.3e} (gate 1e-12), "
        f"runtime {dt:.2f}s (gate 5s)"
    )
    assert peak <= 1e-12
    assert dt < 5.0


def test_criterion_2_classical_closed_form(prof_classical):
    # alpha = 1 and the closed-form data of q = 1/2: eigenvalues
    # sqrt(((2n-1)/2)^2 + 1/2), normings pi/2; interior error <= 2%
    n = np.arange(1, 41)
    lam = np.sqrt(((2 * n - 1) / 2) ** 2 + 0.5)
    data = slgl.SpectralData(
        profile=prof_classical, lambdas=lam, normings=np.full(40, np.pi / 2)
    )
    t0 = time.perf_counter()
    res = slgl.reconstruct_full(prof_classical, data)
    dt = time.perf_counter() - t0
    inner = (res.x_grid >= 0.2) & (res.x_grid <= np.pi - 0.2)
    err = float(np.abs(res.q_values[inner] - 0.5).max()) / 0.5
    print(
        f"criterion 2 classical round trip: interior max error = "
        f"{err * 100:.3f}% (gate 2%), runtime {dt:.1f}s (gate 60s)"
    )
    assert err <= 0.02
    assert dt < 60.0


def test_criterion_3_discontinuous_round_trip(recon10, recon20, recon30):
    errs = {}
    for n, res in ((10, recon10), (20, recon20), (30, recon30)):
        errs[n] = rel_l2(res.x_grid, res.q_values, np.sin(res.x_grid))
    print(
        "criterion 3 discontinuous round trip: rel L2 "
        f"{errs[10] * 100:.2f}% / {errs[20] * 100:.2f}% / {errs[30] * 100:.2f}% "
        "at 10/20/30 modes (gate: <= 10% at 30, monotone decreasing)"
    )
    assert errs[30] <= 0.10
    assert errs[10] > errs[20] > errs[30]


def test_criterion_4_forward_oracle_fidelity(prof, base150, zero_data40):
    dlam = float(np.abs(zero_data40.lambdas - base150.lambdas[:40]).max())
    dal = float(
        np.abs(zero_data40.normings / base150.normings[:40] - 1.0).max()
    )
    print(
        f"criterion 4 forward fidelity: max|dlambda| = {dlam:.2e} (gate 1e-8), "
        f"max rel |dalpha| = {dal:.2e} (gate 1e-6)"
    )
    assert dlam <= 1e-8
    assert dal <= 1e-6


def test_criterion_5_asymptotics_shape(prof, base150, sin_data30):
    # regression fixture recorded on the first verified run:
    # sup n|dlambda| = 0.328, sup n|dalpha| = 2.004 for this dataset
    report = slgl.check_asymptotics(sin_data30, base150)
    print(
        f"criterion 5 asymptotics shape: sup n|dlambda| = "
        f"{report.sup_scaled_gap:.4f} (gate 0.5), sup n|dalpha| = "
        f"{report.sup_scaled_norming_gap:.4f} (gate 3.0)"
    )
    assert report.bounded
    assert report.sup_scaled_gap <= 0.5
    assert report.sup_scaled_norming_gap <= 3.0


def test_criterion_6_collocation_residuals(recon30):
    res = recon30.residual_max
    cond = recon30.condition_max
    print(
        f"criterion 6 main-equation residual: max relative residual = "
        f"{res:.2e} (gate 1e-10), max condition estimate = {cond:.1f} "
        "(bound 150, regression fixture)"
    )
    assert res <= 1e-10
    assert np.all(np.isfinite(recon30.conditions))
    assert cond <= 150.0


def test_criterion_7_verification_suite(suite30):
    s = suite30
    print(
        "criterion 7 verification suite: boundary "
        f"{s['boundary']:.2e} (gate 1e-3), ortho {s['ortho']:.2e} (gate 1e-3), "
        f"parseval {s['parseval']:.2e} (gate 1e-2); degradations "
        f"{s['boundary_degradation']:.0f}x / {s['ortho_degradation']:.0f}x / "
        f"{s['parseval_degradation']:.0f}x (gate >= 10x each)"
    )
    assert s["boundary"] <= 1e-3
    assert s["ortho"] <= 1e-3
    assert s["parseval"] <= 1e-2
    assert s["boundary_degradation"] >= 10.0
    assert s["ortho_degradation"] >= 10.0
    assert s["parseval_degradation"] >= 10.0


def test_criterion_8_mesh_convergence(prof, base150, sin_data30, recon30):
    # second-order convergence of the kernel diagonal at the designated
    # slice x = 2.0 under node doubling: successive differences shrink
    # by a factor in [3, 5]
    n_ext = recon30.meta["n_modes_used"]
    ext = complete_tail(sin_data30, base150, n_ext)
    series = KernelSeries(prof, ext, base150)
    d = {}
    for m in (64, 128, 256, 512):
        g = solve_slice(
            assemble_slice(prof, series, 2.0, m), estimate_condition=False
        )
        d[m] = g[-1]
    r1 = (d[64] - d[128]) / (d[128] - d[256])
    r2 = (d[128] - d[256]) / (d[256] - d[512])
    print(
        f"criterion 8 mesh convergence: halving ratios {r1:.2f}, {r2:.2f} "
        "(gate [3, 5], order ~2)"
    )
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0
