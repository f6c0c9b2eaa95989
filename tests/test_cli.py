"""Command line contract: exit codes, file formats, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import slgl
from slgl import DensityProfile, baseline_spectrum
from slgl.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_THRESHOLD,
    RECON_HEADER,
    SPECTRUM_HEADER,
    ConfigError,
    _atomic_write,
    _emit,
    main,
)

A_STR = repr(np.pi / 2)


def write_config(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def assert_csv_matches_json(csv_path, obj):
    """Both formats hold the same numbers: each CSV cell, written with
    %.17g, parses back to the float in the JSON table (empty cells and
    null columns alike)."""
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert sorted(header) == sorted(obj)
    rows = [ln.split(",") for ln in lines[1:]]
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        if obj[name] is None:
            assert cells == [""] * len(rows)
        else:
            assert [float(c) for c in cells] == obj[name]


@pytest.fixture()
def base_cfg():
    return {"profile": {"a": np.pi / 2, "alpha": 2.0}, "modes": 6}


def run(args):
    return main([str(a) for a in args])


def diag_x(out):
    """The x column of the reconstruction table in ``out``."""
    lines = (out / "reconstruction.csv").read_text().splitlines()[1:]
    return [float(ln.split(",")[0]) for ln in lines]


def test_baseline_csv_golden(tmp_path, base_cfg):
    cfg = write_config(tmp_path / "c.json", base_cfg)
    out = tmp_path / "out"
    assert run(["baseline", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    lines = (out / "baseline_spectrum.csv").read_text().splitlines()
    assert lines[0] == SPECTRUM_HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[1]) - 0.3918265520306173) < 1e-12
    assert abs(float(first[2]) - np.pi) < 1e-10


@pytest.mark.parametrize(
    "command, section",
    [
        ("baseline", {}),
        ("reconstruct", {"reconstruction": {"n_slices": 60, "nodes_per_slice": 32}}),
        (
            "verify",
            {
                "verify": {
                    "modes": 8,
                    "nodes_per_slice": 32,
                }
            },
        ),
    ],
    ids=("baseline", "reconstruct", "verify"),
)
def test_outputs_are_deterministic(tmp_path, base_cfg, command, section):
    # eigenvalues shifted off the baseline by 0.1 / lambda: a nonzero kernel
    base = baseline_spectrum(DensityProfile(a=np.pi / 2, alpha=2.0), 8)
    data = {
        "lambda": (base.lambdas + 0.1 / base.lambdas).tolist(),
        "alpha": base.normings.tolist(),
    }
    cfg = write_config(tmp_path / "c.json", {**base_cfg, "data": data, **section})
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert run([command, "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_modes_flag_overrides_config(tmp_path, base_cfg):
    cfg = write_config(tmp_path / "c.json", base_cfg)
    out = tmp_path / "out"
    assert (
        run(["baseline", "--config", cfg, "--out", out, "--modes", 3, "--quiet"])
        == EXIT_OK
    )
    lines = (out / "baseline_spectrum.csv").read_text().splitlines()
    assert len(lines) == 4


def test_json_format_output(tmp_path, base_cfg):
    cfg = write_config(tmp_path / "c.json", base_cfg)
    out = tmp_path / "out"
    assert (
        run(
            [
                "baseline",
                "--config",
                cfg,
                "--out",
                out,
                "--format",
                "json",
                "--quiet",
            ]
        )
        == EXIT_OK
    )
    obj = json.loads((out / "baseline_spectrum.json").read_text())
    assert obj["n"] == [1, 2, 3, 4, 5, 6]
    assert len(obj["lambda"]) == 6


@pytest.mark.parametrize("kind", ["sin", "cos"])
def test_forward_named_potential_with_zero_scale_is_zero(tmp_path, base_cfg, kind):
    # an explicit c = 0 scales the named family to q = 0, not to 1
    spectra = []
    for name, potential in (("z", {"kind": "zero"}), ("n", {"kind": kind, "c": 0})):
        cfg = write_config(tmp_path / f"{name}.json", {**base_cfg, "potential": potential})
        out = tmp_path / name
        assert run(["forward", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
        spectra.append((out / "forward_spectrum.csv").read_bytes())
    assert spectra[0] == spectra[1]


def test_forward_zero_matches_baseline(tmp_path, base_cfg):
    cfg = write_config(
        tmp_path / "c.json", {**base_cfg, "potential": {"kind": "zero"}}
    )
    out = tmp_path / "out"
    assert run(["baseline", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    assert run(["forward", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    lam_b = [
        float(ln.split(",")[1])
        for ln in (out / "baseline_spectrum.csv").read_text().splitlines()[1:]
    ]
    lam_f = [
        float(ln.split(",")[1])
        for ln in (out / "forward_spectrum.csv").read_text().splitlines()[1:]
    ]
    assert max(abs(b - f) for b, f in zip(lam_b, lam_f)) < 1e-8
    report = json.loads((out / "asymptotics.json").read_text())
    assert report["bounded"] is True
    assert report["sup_scaled_gap"] < 1e-6
    assert report["sup_scaled_norming_gap"] < 1e-4


def test_forward_reports_data_outside_the_caps_as_unbounded(tmp_path, base_cfg):
    # q = 5 shifts lambda_n^2 by about 5 / rho: the scaled norming gap
    # reads about 599, far above its cap of 20
    cfg = write_config(
        tmp_path / "c.json",
        {**base_cfg, "modes": 10, "potential": {"kind": "constant", "c": 5.0}},
    )
    out = tmp_path / "out"
    assert run(["forward", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    report = json.loads((out / "asymptotics.json").read_text())
    assert report["sup_scaled_norming_gap"] > 20.0
    assert report["bounded"] is False


def test_missing_config_file_is_config_error(tmp_path):
    assert run(["baseline", "--config", tmp_path / "nope.json"]) == EXIT_CONFIG


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["baseline", "--config", path]) == EXIT_CONFIG


def test_invalid_profile_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path / "c.json", {"profile": {"a": np.pi / 2, "alpha": 1.0}, "modes": 3}
    )
    assert run(["baseline", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "section, key",
    [
        ({"profile": {"a": np.pi / 2, "alpha": float("inf")}}, "'alpha'"),
        ({"potential": {"kind": "constant", "c": float("nan")}}, "'c'"),
        ({"data": {"lambda": [0.5, float("nan"), 2.5], "alpha": [1.0] * 3}}, "'lambda'"),
    ],
    ids=["alpha_infinity", "constant_c_nan", "data_lambda_nan"],
)
def test_non_finite_config_number_is_config_error(tmp_path, capsys, section, key):
    # json reads NaN and Infinity; the config check rejects them by key
    cfg = write_config(tmp_path / "c.json",
                       {"profile": {"a": np.pi / 2, "alpha": 2.0}, "modes": 4, **section})
    capsys.readouterr()
    command = "reconstruct" if "data" in section else "forward"
    assert run([command, "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "must be finite" in err
    assert not (tmp_path / "o").exists()


def test_data_file_missing_lambda_column(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("n,lam,alpha\n1,0.5,3.14\n")
    cfg = write_config(
        tmp_path / "c.json",
        {"profile": {"a": np.pi / 2, "alpha": 2.0}, "data_file": "d.csv"},
    )
    out = tmp_path / "out"
    assert run(["reconstruct", "--config", cfg, "--out", out]) == EXIT_CONFIG
    # no partial outputs on failure
    assert not out.exists()


def test_data_file_non_numeric_is_config_error(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("n,lambda,alpha\n1,abc,3.14\n")
    cfg = write_config(
        tmp_path / "c.json",
        {"profile": {"a": np.pi / 2, "alpha": 2.0}, "data_file": "d.csv"},
    )
    assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG


def test_decreasing_eigenvalues_rejected(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("n,lambda,alpha\n1,2.0,3.0\n2,1.0,3.0\n")
    cfg = write_config(
        tmp_path / "c.json",
        {"profile": {"a": np.pi / 2, "alpha": 2.0}, "data_file": "d.csv"},
    )
    assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG


def test_unknown_reconstruction_option_rejected(tmp_path, base_cfg):
    cfg = write_config(
        tmp_path / "c.json",
        {**base_cfg, "data": {"lambda": [1.0], "alpha": [1.0]},
         "reconstruction": {"turbo": True}},
    )
    assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "section, key",
    [
        ({"profile": {"a": np.pi / 2, "alpha": 2.0, "strikt": False}}, "strikt"),
        ({"potential": {"kind": "sin", "C": 3}}, "C"),
        ({"potential": {"kind": "zero", "c": 1}}, "c"),
        ({"roundtrip": {"tolerence": 0.1}}, "tolerence"),
        ({"verify": {"max_normings": 1e-30}}, "max_normings"),
        # the quadrature is sized from the modes scored, not set
        ({"verify": {"panels": [256, 384]}}, "panels"),
        # the slice at x = pi takes twice the nodes_per_slice intervals
        ({"verify": {"boundary_nodes": 512}}, "boundary_nodes"),
        ({"data": {"lambda": [1.0], "alpha": [1.0], "lambdas": [1.0]}}, "lambdas"),
    ],
    ids=("profile", "potential_sin", "potential_zero", "roundtrip", "verify",
         "verify_panels", "verify_boundary_nodes", "data"),
)
@pytest.mark.parametrize("command", ["baseline", "roundtrip", "verify"])
def test_unknown_key_rejected_in_every_section(
    tmp_path, base_cfg, capsys, section, key, command
):
    data = {"lambda": [0.4, 1.0, 1.6, 2.4], "alpha": [3.1, 1.6, 3.1, 3.2]}
    cfg = write_config(tmp_path / "c.json", {**base_cfg, "data": data, **section})
    out = tmp_path / "o"
    capsys.readouterr()
    assert run([command, "--config", cfg, "--out", out, "--quiet"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(key) in err
    assert "known keys are" in err
    assert not out.exists()


def test_roundtrip_zero_potential_passes(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "modes": 6,
            "potential": {"kind": "zero"},
            "reconstruction": {"n_slices": 60, "nodes_per_slice": 32},
            "roundtrip": {"tolerance": 0.05},
        },
    )
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert run(["roundtrip", "--config", cfg, "--out", out, "--format", fmt,
                    "--quiet"]) == EXIT_OK
        report = json.loads((out / "roundtrip_report.json").read_text())
        assert report["passed"] is True
        assert report["rel_l2_error"] < 1e-3
    recon = (tmp_path / "csv" / "reconstruction.csv").read_text().splitlines()
    assert recon[0] == RECON_HEADER
    # true potential is known in a roundtrip: the error column is filled
    assert recon[1].split(",")[3] != ""
    recon_json = json.loads((tmp_path / "json" / "reconstruction.json").read_text())
    assert None not in (recon_json["q_true_if_known"], recon_json["abs_error"])
    assert_csv_matches_json(tmp_path / "csv" / "reconstruction.csv", recon_json)
    assert_csv_matches_json(
        tmp_path / "csv" / "forward_spectrum.csv",
        json.loads((tmp_path / "json" / "forward_spectrum.json").read_text()),
    )


def test_roundtrip_zero_potential_meets_tight_tolerance(tmp_path):
    # the oracle is exact on a constant q up to rounding, so the roundtrip
    # reads about 2.7e-12, near the 2.0e-12 the pipeline reads on the
    # exact closed-form spectrum; a 1e-10 tolerance leaves a 30x margin
    cfg = write_config(
        tmp_path / "c.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "modes": 6,
            "potential": {"kind": "zero"},
            "reconstruction": {"n_slices": 60, "nodes_per_slice": 32},
            "roundtrip": {"tolerance": 1e-10},
        },
    )
    out = tmp_path / "out"
    assert run(["roundtrip", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    report = json.loads((out / "roundtrip_report.json").read_text())
    assert report["passed"] is True


def test_roundtrip_threshold_violation_exits_4(tmp_path):
    # 6 modes of q = sin reconstruct q only roughly (rel L2 error near 5)
    cfg = write_config(
        tmp_path / "c.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "modes": 6,
            "potential": {"kind": "sin"},
            "reconstruction": {"n_slices": 60, "nodes_per_slice": 32},
            "roundtrip": {"tolerance": 1e-12},
        },
    )
    out = tmp_path / "out"
    assert run(["roundtrip", "--config", cfg, "--out", out, "--quiet"]) == (
        EXIT_THRESHOLD
    )
    report = json.loads((out / "roundtrip_report.json").read_text())
    assert report["passed"] is False


def test_reconstruct_from_forward_csv(tmp_path):
    cfg_fwd = write_config(
        tmp_path / "f.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "modes": 8,
            "potential": {"kind": "sin"},
        },
    )
    out = tmp_path / "out"
    assert run(["forward", "--config", cfg_fwd, "--out", out, "--quiet"]) == EXIT_OK
    cfg_rec = write_config(
        tmp_path / "r.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "data_file": str(out / "forward_spectrum.csv"),
            "reconstruction": {"n_slices": 60, "nodes_per_slice": 32},
        },
    )
    assert run(["reconstruct", "--config", cfg_rec, "--out", out, "--quiet"]) == (
        EXIT_OK
    )
    lines = (out / "reconstruction.csv").read_text().splitlines()
    assert lines[0] == RECON_HEADER
    assert len(lines) == 62
    # unknown true potential: empty q_true and abs_error cells
    assert lines[1].endswith(",,")
    diag = json.loads((out / "reconstruction_diagnostics.json").read_text())
    assert diag["residual_max"] <= 1e-10
    # the bordered pass: no slice solved directly, and where the worst condition is
    assert diag["meta"]["slices_resolved"] == 0
    assert diag["meta"]["pass_schur_min"] > 0.0
    assert diag["meta"]["x_condition_max"] in diag_x(out)


def test_reconstruct_from_forward_json(tmp_path, capsys):
    cfg_fwd = write_config(
        tmp_path / "f.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "modes": 8,
            "potential": {"kind": "sin"},
        },
    )
    out = tmp_path / "out"
    assert (
        run(["forward", "--config", cfg_fwd, "--out", out, "--format", "json",
             "--quiet"])
        == EXIT_OK
    )
    spectrum = json.loads((out / "forward_spectrum.json").read_text())
    rec = {
        "profile": {"a": np.pi / 2, "alpha": 2.0},
        "data_file": str(out / "forward_spectrum.json"),
        "reconstruction": {"n_slices": 60, "nodes_per_slice": 32},
    }
    cfg_rec = write_config(tmp_path / "r.json", rec)
    assert run(["reconstruct", "--config", cfg_rec, "--out", out, "--quiet"]) == (
        EXIT_OK
    )
    assert spectrum["n"] == list(range(1, 9))
    assert all(type(n) is int for n in spectrum["n"])
    # the same reconstruction as JSON: no truth gives null truth columns
    out_json = tmp_path / "out_json"
    assert run(["reconstruct", "--config", cfg_rec, "--out", out_json,
                "--format", "json", "--quiet"]) == EXIT_OK
    recon = json.loads((out_json / "reconstruction.json").read_text())
    assert recon["q_true_if_known"] is None and recon["abs_error"] is None
    assert len(recon["x"]) == len(recon["q_reconstructed"]) == 61
    assert_csv_matches_json(out / "reconstruction.csv", recon)
    # keys other than "lambda" / "alpha" / "n" are refused, naming them
    old = tmp_path / "old.json"
    old.write_text(
        json.dumps({"lambdas": spectrum["lambda"], "normings": spectrum["alpha"]})
    )
    capsys.readouterr()
    rec["data_file"] = str(old)
    cfg_old = write_config(tmp_path / "r_old.json", rec)
    assert run(["reconstruct", "--config", cfg_old, "--out", tmp_path / "o2"]) == (
        EXIT_CONFIG
    )
    err = capsys.readouterr().err
    assert "unknown keys ['lambdas', 'normings']" in err
    assert "known keys are ['alpha', 'lambda', 'n']" in err


@pytest.fixture(scope="module")
def sin8_csv(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sin8")
    cfg_fwd = write_config(
        tmp_path / "f.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "modes": 8,
            "potential": {"kind": "sin"},
        },
    )
    out = tmp_path / "fwd"
    assert run(["forward", "--config", cfg_fwd, "--out", out, "--quiet"]) == EXIT_OK
    return str(out / "forward_spectrum.csv")


@pytest.mark.parametrize(
    "command, extra",
    [
        ("verify", {"verify": {"modes": 8, "nodes_per_slice": 4}}),
        ("reconstruct", {"data": {"lambda": [0.5, 1.5, 2.5], "alpha": [1.0] * 3}}),
        # inline data: the first 0 and 3 pairs of the fixture's spectrum
        ("verify", {"data": 0}),
        ("verify", {"data": 3}),
    ],
    ids=["too_few_slice_nodes", "three_data_pairs", "verify_no_data_pairs",
         "verify_three_data_pairs"],
)
def test_inputs_the_solver_rejects_exit_2(tmp_path, sin8_csv, capsys, command, extra):
    cfg = {"profile": {"a": np.pi / 2, "alpha": 2.0}, "data_file": sin8_csv}
    if "data" in extra:
        del cfg["data_file"]
    if isinstance(extra.get("data"), int):
        with open(sin8_csv, encoding="utf-8") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()[1:extra["data"] + 1]]
        extra = {"data": {"lambda": [float(r[1]) for r in rows],
                          "alpha": [float(r[2]) for r in rows]}}
    cfg = write_config(tmp_path / "c.json", {**cfg, **extra})
    capsys.readouterr()
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("potential", [
    {"kind": "constant", "c": 1e300},
    {"kind": "tabulated", "x": [0.0, 1.0, np.pi], "q": [0.0, 1e308, 0.0]},
], ids=["constant", "tabulated"])
def test_potential_beyond_the_float_range_exits_3(tmp_path, base_cfg, potential):
    # a fresh process, so numpy's RuntimeWarnings would reach stderr: the
    # one line there is the numerical failure
    cfg = write_config(tmp_path / "c.json", {**base_cfg, "potential": potential})
    src = os.path.dirname(os.path.dirname(os.path.abspath(slgl.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from slgl.cli import main; sys.exit(main())",
         "forward", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == EXIT_NUMERICAL
    assert done.stderr.splitlines() == [done.stderr.strip()]
    assert done.stderr.startswith("numerical failure: ")


def test_cancelled_normings_exit_3(tmp_path, base_cfg, capsys):
    # q = 1e4 (1 + cos x), tabulated on 9 nodes, at 10 modes: the norming
    # pass cancels and returns negative normings, a numerical failure
    # (exit 3), not a configuration error (exit 2)
    x = np.linspace(0.0, np.pi, 9)
    potential = {"kind": "tabulated", "x": x.tolist(), "q": (1e4 * (1.0 + np.cos(x))).tolist()}
    cfg = write_config(tmp_path / "c.json", {**base_cfg, "modes": 10, "potential": potential})
    capsys.readouterr()
    assert run(["forward", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "norming number" in err
    assert not (tmp_path / "o").exists()


def test_condition_cap_violation_exits_3(tmp_path, sin8_csv, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "data_file": sin8_csv,
            "reconstruction": {"n_slices": 24, "nodes_per_slice": 16,
                               "condition_cap": 1.0},
        },
    )
    capsys.readouterr()
    assert run(["reconstruct", "--config", cfg, "--out", tmp_path / "o"]) == (
        EXIT_NUMERICAL
    )
    assert "condition estimate" in capsys.readouterr().err
    assert not (tmp_path / "o" / "reconstruction.csv").exists()


def test_unexpected_exception_propagates(tmp_path, sin8_csv, monkeypatch):
    import slgl.cli

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a numerical failure")

    monkeypatch.setattr(slgl.cli, "reconstruct_full", broken)
    cfg = write_config(
        tmp_path / "c.json",
        {"profile": {"a": np.pi / 2, "alpha": 2.0}, "data_file": sin8_csv},
    )
    with pytest.raises(TypeError):
        run(["reconstruct", "--config", cfg, "--out", tmp_path / "o"])


def test_verify_command_scores_and_thresholds(tmp_path):
    cfg_fwd = write_config(
        tmp_path / "f.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "modes": 8,
            "potential": {"kind": "sin"},
        },
    )
    out = tmp_path / "out"
    assert run(["forward", "--config", cfg_fwd, "--out", out, "--quiet"]) == EXIT_OK
    verify_cfg = {
        "profile": {"a": np.pi / 2, "alpha": 2.0},
        "data_file": str(out / "forward_spectrum.csv"),
        "verify": {
            "modes": 8,
            "nodes_per_slice": 32,
            "max_boundary": 0.05,
            "max_parseval": 0.05,
        },
    }
    cfg = write_config(tmp_path / "v.json", verify_cfg)
    assert run(["verify", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    report = json.loads((out / "verification_report.json").read_text())
    assert report["passed"] is True
    assert report["boundary"] < 0.05
    assert [type(n) for n in report["quadrature_nodes"]] == [int, int]
    # impossible threshold: exit code 4
    # (its own --out: a second run into ``out`` would be refused, no-clobber)
    verify_cfg["verify"]["max_parseval"] = 1e-15
    cfg = write_config(tmp_path / "v2.json", verify_cfg)
    out_strict = tmp_path / "out_strict"
    assert run(["verify", "--config", cfg, "--out", out_strict, "--quiet"]) == (
        EXIT_THRESHOLD
    )
    report = json.loads((out_strict / "verification_report.json").read_text())
    assert report["passed"] is False
    assert report["violations"]


def test_verify_with_few_measured_modes_completes_the_tail(tmp_path):
    # 10 measured modes; the suite completes them to its default 40
    cfg_fwd = write_config(
        tmp_path / "f.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "modes": 10,
            "potential": {"kind": "sin"},
        },
    )
    out = tmp_path / "out"
    assert run(["forward", "--config", cfg_fwd, "--out", out, "--quiet"]) == EXIT_OK
    cfg = write_config(
        tmp_path / "v.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "data_file": str(out / "forward_spectrum.csv"),
            "verify": {"nodes_per_slice": 32},
        },
    )
    code = run(["verify", "--config", cfg, "--out", out, "--quiet"])
    assert code in (EXIT_OK, EXIT_THRESHOLD)
    report = json.loads((out / "verification_report.json").read_text())
    assert report["n_modes"] == 40


def test_stopped_tail_completion_exits_0_and_verify_flags_it(tmp_path, capsys):
    # at (a, alpha) = (1.2, 8) the tail fitted to 10 modes of q = 0.6
    # predicts a negative norming number at mode 11: the completion stops
    # there, where reconstruct and verify once exited 2 on it.  reconstruct
    # exits 0; verify scores 10 of the 40 modes it is asked for, and says so
    cfg = write_config(tmp_path / "c.json", {
        "profile": {"a": 1.2, "alpha": 8.0}, "modes": 10,
        "potential": {"kind": "constant", "c": 0.6},
        "data_file": "out/forward_spectrum.csv",
        "verify": {"nodes_per_slice": 32},
    })
    out = tmp_path / "out"
    assert run(["forward", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    capsys.readouterr()
    assert run(["reconstruct", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    assert "warning: tail completion stops at mode 11" in capsys.readouterr().err
    assert run(["verify", "--config", cfg, "--out", out, "--quiet"]) == EXIT_THRESHOLD
    assert "warning: tail completion stops at mode 11" in capsys.readouterr().err
    diagnostics = json.loads((out / "reconstruction_diagnostics.json").read_text())
    assert diagnostics["meta"]["n_modes_used"] == 10
    report = json.loads((out / "verification_report.json").read_text())
    assert report["n_modes"] == 10
    assert report["violations"] == ["n_modes = 10 < 40: the tail completion stopped"]
    assert report["passed"] is False


def test_warnings_print_one_line_each_and_reconstruct_records_them(tmp_path, capsys):
    # the same (1.2, 8) input raises two RuntimeWarnings in reconstruct and
    # in roundtrip, and the first of them in verify: each is one stderr
    # line, and each command's JSON report lists their messages
    cfg = write_config(tmp_path / "c.json", {
        "profile": {"a": 1.2, "alpha": 8.0}, "modes": 10,
        "potential": {"kind": "constant", "c": 0.6},
        "data_file": "out/forward_spectrum.csv",
    })
    out = tmp_path / "out"
    assert run(["forward", "--config", cfg, "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert run(["reconstruct", "--config", cfg, "--out", out]) == EXIT_OK
    messages = [
        "tail completion stops at mode 11: the fitted tail predicts an eigenvalue "
        "or norming number there that is not valid",
        "spectral data gaps do not look like small 1/n perturbations of the "
        "baseline; reconstruction will proceed but may be inaccurate",
    ]
    assert capsys.readouterr().err.splitlines() == [f"warning: {m}" for m in messages]
    diagnostics = json.loads((out / "reconstruction_diagnostics.json").read_text())
    assert diagnostics["warnings"] == messages
    assert run(["roundtrip", "--config", cfg, "--out", tmp_path / "rt"]) == EXIT_THRESHOLD
    assert capsys.readouterr().err.splitlines() == [f"warning: {m}" for m in messages]
    report = json.loads((tmp_path / "rt" / "roundtrip_report.json").read_text())
    assert report["warnings"] == messages
    assert run(["verify", "--config", cfg, "--out", out]) == EXIT_THRESHOLD
    assert capsys.readouterr().err.splitlines() == [f"warning: {messages[0]}"]
    report = json.loads((out / "verification_report.json").read_text())
    assert report["warnings"] == messages[:1]


def test_reconstruct_records_no_warnings_on_clean_data(tmp_path, base_cfg, capsys):
    cfg = write_config(tmp_path / "c.json", dict(
        base_cfg, potential={"kind": "sin"}, data_file="out/forward_spectrum.csv",
        reconstruction={"n_slices": 16, "nodes_per_slice": 32}))
    out = tmp_path / "out"
    assert run(["forward", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    assert run(["reconstruct", "--config", cfg, "--out", out, "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    diagnostics = json.loads((out / "reconstruction_diagnostics.json").read_text())
    assert diagnostics["warnings"] == []


def test_verify_refuses_to_clobber_existing_report(tmp_path, monkeypatch, capsys):
    import slgl.cli

    def suite_must_not_run(*args, **kwargs):
        pytest.fail("verification_suite ran before the existing file was refused")

    monkeypatch.setattr(slgl.cli, "verification_suite", suite_must_not_run)
    out = tmp_path / "out"
    out.mkdir()
    sentinel = b'{"sentinel": true}\n'
    (out / "verification_report.json").write_bytes(sentinel)
    cfg = write_config(
        tmp_path / "v.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "data": {"lambda": [0.4, 1.0, 1.6, 2.4], "alpha": [3.1, 1.6, 3.1, 3.2]},
        },
    )
    assert run(["verify", "--config", cfg, "--out", out, "--quiet"]) == EXIT_CONFIG
    assert "verification_report.json" in capsys.readouterr().err
    assert (out / "verification_report.json").read_bytes() == sentinel
    assert sorted(p.name for p in out.iterdir()) == ["verification_report.json"]


def test_atomic_write_never_replaces_existing_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_bytes(b"old\n")
    with pytest.raises(ConfigError, match="report.json"):
        _atomic_write(str(target), "new\n")
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_emit_removes_its_files_when_a_later_write_is_refused(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.json"
    second.write_bytes(b"old\n")
    with pytest.raises(ConfigError):
        _emit({str(first): "a\n", str(second): "b\n"}, quiet=True)
    assert second.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.json"]


def test_failed_run_leaves_no_output_directory(tmp_path):
    cfg = write_config(
        tmp_path / "r.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "data": {"lambda": [0.5, 1.5, 2.5], "alpha": [1.0] * 3},
        },
    )
    out = tmp_path / "outdir"
    assert run(["reconstruct", "--config", cfg, "--out", out, "--quiet"]) == EXIT_CONFIG
    assert not out.exists()


def test_emit_removes_the_directories_it_made(tmp_path):
    out = tmp_path / "new" / "out"
    with pytest.raises(TypeError):
        _emit({str(out / "a.csv"): "a\n", str(out / "b.json"): None}, quiet=True)
    assert list(tmp_path.iterdir()) == []


def test_thread_cap_env_validation(tmp_path, base_cfg, monkeypatch):
    cfg = write_config(tmp_path / "c.json", base_cfg)
    monkeypatch.setenv("SLGL_THREADS", "zero")
    assert run(["baseline", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG
    monkeypatch.setenv("SLGL_THREADS", "1")
    assert (
        run(["baseline", "--config", cfg, "--out", tmp_path / "o", "--quiet"])
        == EXIT_OK
    )


def test_bad_cli_flag_exits_2(tmp_path, base_cfg, capsys):
    cfg = write_config(tmp_path / "c.json", base_cfg)
    with pytest.raises(SystemExit) as exc:
        run(["baseline", "--config", cfg, "--format", "xml"])
    assert exc.value.code == 2


def test_relative_data_path_resolves_against_config(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "d.csv").write_text("n,lambda,alpha\n1,0.4,3.1\n2,1.0,1.6\n"
                               "3,1.6,3.1\n4,2.4,3.2\n")
    cfg = write_config(
        sub / "c.json",
        {
            "profile": {"a": np.pi / 2, "alpha": 2.0},
            "data_file": "d.csv",
            "reconstruction": {"n_slices": 24, "nodes_per_slice": 16,
                               "smooth": False, "extend": False},
        },
    )
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = run(["reconstruct", "--config", sub / "c.json", "--out", "o",
                    "--quiet"])
    finally:
        os.chdir(old)
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# stdout: without --quiet, one "wrote <path>" line per file in the order
# written, then the command's summary


def stdout_lines(capsys, args, code=EXIT_OK):
    capsys.readouterr()
    assert run(args) == code
    out, err = capsys.readouterr()
    assert err == ""
    return out.splitlines()


def test_baseline_and_forward_report_files_and_lambda_1(tmp_path, capsys, base_cfg):
    cfg = write_config(tmp_path / "c.json", {**base_cfg, "potential": {"kind": "sin"}})
    out = tmp_path / "out"
    lines = stdout_lines(capsys, ["baseline", "--config", cfg, "--out", out])
    lam1 = (out / "baseline_spectrum.csv").read_text().splitlines()[1].split(",")[1]
    assert lines == [f"wrote {out / 'baseline_spectrum.csv'}",
                     f"baseline: 6 modes, lambda_1 = {lam1}"]
    lines = stdout_lines(capsys, ["forward", "--config", cfg, "--out", out, "--modes", 4])
    lam1 = (out / "forward_spectrum.csv").read_text().splitlines()[1].split(",")[1]
    assert lines == [f"wrote {out / 'forward_spectrum.csv'}",
                     f"wrote {out / 'asymptotics.json'}",
                     f"forward: 4 modes, lambda_1 = {lam1}"]


def test_reconstruct_reports_files_and_residual(tmp_path, capsys, sin8_csv):
    cfg = write_config(tmp_path / "c.json", {
        "profile": {"a": np.pi / 2, "alpha": 2.0}, "data_file": sin8_csv,
        "reconstruction": {"n_slices": 24, "nodes_per_slice": 16},
    })
    out = tmp_path / "out"
    lines = stdout_lines(capsys, ["reconstruct", "--config", cfg, "--out", out,
                                  "--format", "json"])
    diag = json.loads((out / "reconstruction_diagnostics.json").read_text())
    assert lines == [
        f"wrote {out / 'reconstruction.json'}",
        f"wrote {out / 'reconstruction_diagnostics.json'}",
        f"reconstruct: 8 modes on 25 points, max collocation residual "
        f"{diag['residual_max']:.3e}",
    ]


@pytest.mark.parametrize("potential, tolerance, code, verdict", [
    ("zero", 0.05, EXIT_OK, "within"),
    ("sin", 1e-12, EXIT_THRESHOLD, "ABOVE"),
])
def test_roundtrip_reports_files_and_verdict(tmp_path, capsys, potential, tolerance, code,
                                             verdict):
    cfg = write_config(tmp_path / "c.json", {
        "profile": {"a": np.pi / 2, "alpha": 2.0}, "modes": 6,
        "potential": {"kind": potential},
        "reconstruction": {"n_slices": 60, "nodes_per_slice": 32},
        "roundtrip": {"tolerance": tolerance},
    })
    out = tmp_path / "out"
    lines = stdout_lines(capsys, ["roundtrip", "--config", cfg, "--out", out], code)
    rel = json.loads((out / "roundtrip_report.json").read_text())["rel_l2_error"]
    assert lines == [
        f"wrote {out / 'forward_spectrum.csv'}",
        f"wrote {out / 'reconstruction.csv'}",
        f"wrote {out / 'roundtrip_report.json'}",
        f"roundtrip: rel L2 error {rel:.6f} ({verdict} tolerance {tolerance})",
    ]


@pytest.mark.parametrize("gates, code", [
    ({"max_boundary": 10.0}, EXIT_OK),
    ({"max_norming": 1e-15, "max_ortho": 1e-15, "max_boundary": 1e-15}, EXIT_THRESHOLD),
], ids=["passed", "violated"])
def test_verify_reports_scores_and_each_violation(tmp_path, capsys, gates, code):
    data = {"lambda": [0.4, 1.0, 1.6, 2.4], "alpha": [3.1, 1.6, 3.1, 3.2]}
    cfg = write_config(tmp_path / "c.json", {
        "profile": {"a": np.pi / 2, "alpha": 2.0}, "data": data,
        "verify": {"modes": 8, "nodes_per_slice": 32, **gates},
    })
    out = tmp_path / "out"
    lines = stdout_lines(capsys, ["verify", "--config", cfg, "--out", out], code)
    report = json.loads((out / "verification_report.json").read_text())
    # violations come in the table's order, not the config's
    violated = [k for k in ("boundary", "ortho", "norming") if f"max_{k}" in gates
                and report[k] > gates[f"max_{k}"]]
    assert [v.split(" ")[0] for v in report["violations"]] == violated
    assert lines == [
        f"wrote {out / 'verification_report.json'}",
        "verify: boundary {boundary:.3e}, ortho {ortho:.3e}, parseval {parseval:.3e}"
        .format(**report),
    ] + [f"verify: threshold violated: {v}" for v in report["violations"]]
    assert len(lines) == 2 + (3 if code == EXIT_THRESHOLD else 0)


def test_module_entry_point_runs_baseline(tmp_path, base_cfg):
    cfg = write_config(tmp_path / "c.json", base_cfg)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(slgl.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "slgl.cli", "baseline", "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == EXIT_OK and done.stderr == ""
    lam1 = (out / "baseline_spectrum.csv").read_text().splitlines()[1].split(",")[1]
    assert done.stdout.splitlines() == [f"wrote {out / 'baseline_spectrum.csv'}",
                                        f"baseline: 6 modes, lambda_1 = {lam1}"]


# ---------------------------------------------------------------------------
# configuration errors: exit 2, one message naming the key or the file, and
# nothing written


DATA4 = {"lambda": [0.4, 1.0, 1.6, 2.4], "alpha": [3.1, 1.6, 3.1, 3.2]}
PROFILE = {"profile": {"a": np.pi / 2, "alpha": 2.0}}


@pytest.mark.parametrize("command, config, flags, files, message", [
    ("baseline", [1, 2], [], {}, "config must be a JSON object"),
    ("baseline", {"profile": 3}, [], {}, "config key 'profile' must be an object, got 3"),
    ("reconstruct", {**PROFILE, "data_file": "d.json"}, [], {"d.json": "[0.4, 3.1]"},
     "data file '{dir}/d.json' must be a JSON object"),
    ("baseline", {"profile": {"a": 1.0}}, [], {}, "profile is missing required key 'alpha'"),
    ("baseline", {"modes": 3}, [], {}, "config is missing required key 'profile'"),
    ("forward", {**PROFILE, "potential": {"kind": "constant"}}, [], {},
     "constant potential is missing required key 'c'"),
    ("baseline", {**PROFILE, "modes": "ten"}, [], {},
     "config key 'modes' must be an integer, got 'ten'"),
    ("baseline", {**PROFILE, "modes": 6.0}, [], {},
     "config key 'modes' must be an integer, got 6.0"),
    ("reconstruct", {**PROFILE, "data": DATA4, "reconstruction": {"smooth": 1}}, [], {},
     "reconstruction key 'smooth' must be true or false, got 1"),
    ("baseline", {"profile": {"a": 1.0, "alpha": True}}, [], {},
     "profile key 'alpha' must be a number, got True"),
    ("forward", {**PROFILE, "potential": {"kind": "tan"}}, [], {},
     "unknown potential kind 'tan'; known kinds ['constant', 'cos', 'sin', 'tabulated', 'zero']"),
    ("forward", {**PROFILE, "potential": {"kind": "tabulated", "x": [0.0, 1.0], "q": [0.0] * 2}},
     [], {}, "invalid potential: tabulated grid must cover [0, pi]"),
    ("verify", {**PROFILE, "data_file": "nope.csv"}, [], {},
     "cannot read data file '{dir}/nope.csv'"),
    ("reconstruct", {**PROFILE, "data_file": "d.csv"}, [], {"d.csv": "\n \n"},
     "data file '{dir}/d.csv' is empty"),
    ("reconstruct", {**PROFILE, "data_file": "d.csv"}, [],
     {"d.csv": "n,lambda,alpha\n1,0.4,3.1\n2,1.0\n"},
     "data file '{dir}/d.csv': ragged row '2,1.0'"),
    ("verify", PROFILE, [], {}, "config needs 'data_file' or inline 'data'"),
    ("baseline", PROFILE, ["--modes", 0], {}, "config.modes must be at least 1"),
    ("roundtrip", {**PROFILE, "modes": -1}, [], {}, "config.modes must be at least 1"),
    # the floor of modes holds for the commands that do not read it, and
    # the --modes flag is checked as the config's own key
    ("reconstruct", {**PROFILE, "data": DATA4, "modes": 0}, [], {},
     "config.modes must be at least 1"),
    ("reconstruct", {**PROFILE, "data": DATA4, "modes": 6}, ["--modes", -5], {},
     "config.modes must be at least 1"),
    ("reconstruct", {**PROFILE, "data": DATA4, "reconstruction": {"nodes_per_slice": 7}}, [], {},
     "reconstruction.nodes_per_slice must be at least 8"),
    ("roundtrip", {**PROFILE, "reconstruction": {"n_slices": 7}}, [], {},
     "reconstruction.n_slices must be at least 8"),
    ("verify", {**PROFILE, "data": DATA4, "verify": {"modes": 1}}, [], {},
     "verify.modes must be at least 2"),
    ("verify", {**PROFILE, "data": DATA4, "verify": {"nodes_per_slice": 7}}, [], {},
     "verify.nodes_per_slice must be at least 8"),
    # every range rule is checked when the config loads, for every command
    ("baseline", {**PROFILE, "verify": {"modes": 1}}, [], {},
     "verify.modes must be at least 2"),
    # an array holds numbers only: no nested arrays, booleans or nulls
    ("reconstruct", {**PROFILE, "data": {**DATA4, "lambda": [[0.4, 1.0], [1.6, 2.4]]}}, [], {},
     "data key 'lambda' must be an array of numbers"),
    ("reconstruct", {**PROFILE, "data": {**DATA4, "lambda": [0.4, True, 1.6, 2.4]}}, [], {},
     "data key 'lambda' must be an array of numbers"),
    ("forward", {**PROFILE, "potential": {"kind": "tabulated", "x": [[0.0, 1.0], [2.0, np.pi]],
                                          "q": [0.0] * 4}}, [], {},
     "tabulated potential key 'x' must be an array of numbers"),
    ("reconstruct", {**PROFILE, "data_file": "d.json"}, [],
     {"d.json": '{"lambda": [0.4, 1.0, 1.6, 2.4], "alpha": [3.1, null, 3.1, 3.2]}'},
     "data file '{dir}/d.json' key 'alpha' must be an array of numbers"),
], ids=["config_not_object", "section_not_object", "data_file_not_object",
        "missing_profile_key", "missing_profile", "missing_potential_key", "modes_string",
        "modes_float", "smooth_integer", "alpha_boolean", "unknown_kind", "potential_rejects",
        "data_file_unreadable", "data_file_empty", "data_file_ragged", "no_data", "modes_flag_0",
        "modes_negative", "reconstruct_modes_0", "reconstruct_modes_flag_negative",
        "nodes_per_slice_7", "n_slices_7", "verify_modes_1",
        "verify_nodes_per_slice_7", "range_checked_on_load", "data_nested_array",
        "data_boolean_item", "tabulated_nested_array", "data_file_null_item"])
def test_config_error_names_its_key_and_writes_nothing(tmp_path, capsys, command, config, flags,
                                                        files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path / "c.json", config)
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert run([command, "--config", cfg, "--out", tmp_path / "o", *flags]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + message.format(dir=tmp_path)) and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_out_naming_an_existing_file_is_refused(tmp_path, capsys, base_cfg):
    cfg = write_config(tmp_path / "c.json", base_cfg)
    target = tmp_path / "results"
    target.write_bytes(b"keep\n")
    capsys.readouterr()
    assert run(["baseline", "--config", cfg, "--out", target]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --out target {str(target)!r} is an existing file\n"
    assert target.read_bytes() == b"keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "results"]
