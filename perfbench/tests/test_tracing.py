"""Layer tracing: wrappers reach every import site and come back out."""

import numpy as np

import slgl
import slgl.kernels
import slgl.reconstruct
import tracing


def test_install_wraps_every_import_site_and_uninstall_restores():
    orig = slgl.baseline.phi0
    t = tracing.Tracer()
    t.install()
    try:
        for mod in (slgl, slgl.baseline, slgl.kernels, slgl.reconstruct):
            assert mod.phi0 is not orig
            assert mod.phi0.__traced_original__ is orig
        assert slgl.reconstruct.hat_cos_weights is slgl.kernels.hat_cos_weights
    finally:
        t.uninstall()
    for mod in (slgl, slgl.baseline, slgl.kernels, slgl.reconstruct):
        assert mod.phi0 is orig
    assert slgl.DensityProfile.rho.__name__ == "rho"
    assert not hasattr(slgl.DensityProfile.rho, "__traced_original__")


def test_self_time_subtracts_children():
    # op [0, 10] > a [1, 4] > b [2, 3]; plus c [5, 6] under op
    spans = [
        [0, 0, -1, "op", 0.0, 10.0, None, 0.0],
        [0, 1, 0, "x.a", 1.0, 4.0, None, 0.0],
        [0, 2, 1, "x.b", 2.0, 3.0, None, 0.0],
        [0, 3, 0, "x.c", 5.0, 6.0, None, 0.5],
    ]
    st = tracing.self_times(spans)
    assert st == {0: 10.0 - 3.0 - 1.0 - 0.5, 1: 2.0, 2: 1.0, 3: 1.0}
    prof = tracing.op_profile(spans)
    assert prof["op_s"] == 10.0
    assert prof["unattributed_s"] == 5.5


def test_traced_reconstruction_counts_slices_and_attributes_time():
    profile = slgl.DensityProfile(np.pi / 2, 2.0)
    data = slgl.spectral_data(profile, None, 8)
    t = tracing.Tracer()
    t.install()
    try:
        t.op_id = 1
        root = t.begin("op")
        slgl.reconstruct_full(profile, data, n_slices=16, m=16)
        t.end(root)
    finally:
        t.uninstall()
    prof = tracing.op_profile([s for s in t.spans if s[0] == 1])
    m = tracing.layer_metrics([prof])
    assert m["glm.assemble_slice.calls"] == 16
    assert m["glm.solve_slice.cond.calls"] == 16
    assert m["glm.slices_per_op"] == 16
    assert m["kernels.modes_used"] == 8
    assert m["baseline.phi0.calls"] > 0
    # self times and the excluded probe time add up to the op's wall time
    named = sum(a["self_s"] for a in prof["names"].values())
    probe = sum(s[7] for s in t.spans if s[0] == 1)
    assert abs(named + prof["unattributed_s"] + probe - prof["op_s"]) < 1e-9
