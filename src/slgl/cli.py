"""Command line driver for the spectral reconstruction toolkit.

Commands
--------
baseline     eigenvalues and norming numbers of the zero-potential operator
forward      spectrum of a configured potential (independent spectral solver)
reconstruct  recover q(x) from measured spectral pairs
roundtrip    forward then reconstruct, scored against the true potential
verify       reconstruct support checks: score the spectral identities

All numeric inputs arrive through a JSON config file (``--config``).
Nothing is written until a command has fully succeeded; each output file
is then written atomically (temporary file in the target directory,
then hard-linked to its name, which never replaces an existing file), and
deterministically: the same config produces byte-identical files.

Set ``SLGL_THREADS=N`` to cap the linear-algebra thread pools.  The cap
is applied when the package is first imported, before numpy starts its
thread pools, which is guaranteed when the ``slgl`` console script is
the entry point.

Exit codes: 0 success, 2 configuration error (including inputs the
solver rejects with ValueError), 3 numerical failure (a solver gate
raised ``NumericalError`` or the linear algebra failed), 4 verification
threshold violated.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

SPECTRUM_HEADER = "n,lambda,alpha"
RECON_HEADER = "x,q_reconstructed,q_true_if_known,abs_error"


class ConfigError(Exception):
    """Invalid configuration, flags, or input data files."""


# ---------------------------------------------------------------------------
# config parsing


def _load_config(path: str) -> dict:
    if not path:
        raise ConfigError("a --config file is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    known = {
        "profile",
        "modes",
        "potential",
        "data",
        "data_file",
        "reconstruction",
        "roundtrip",
        "verify",
    }
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ConfigError(
            f"unknown config keys {unknown}; known keys are {sorted(known)}"
        )
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _as_float(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    return float(value)


def _as_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


def _profile_from(cfg: dict):
    from .density import DensityProfile

    section = _require(cfg, "profile")
    if not isinstance(section, dict):
        raise ConfigError("config key 'profile' must be an object")
    a = _as_float(_require(section, "a"), "profile.a")
    alpha = _as_float(_require(section, "alpha"), "profile.alpha")
    strict = section.get("strict", True)
    if not isinstance(strict, bool):
        raise ConfigError("profile.strict must be true or false")
    try:
        return DensityProfile(a=a, alpha=alpha, strict=strict)
    except ValueError as exc:
        raise ConfigError(f"invalid density profile: {exc}") from exc


def _potential_from(cfg: dict, required: bool):
    from .forward import PotentialSpec

    section = cfg.get("potential")
    if section is None:
        if required:
            raise ConfigError("config is missing required key 'potential'")
        return None
    if not isinstance(section, dict):
        raise ConfigError("config key 'potential' must be an object")
    kind = section.get("kind", "zero")
    try:
        if kind == "zero":
            return PotentialSpec(kind="zero")
        if kind == "constant":
            return PotentialSpec(
                kind="constant", c=_as_float(_require(section, "c"), "potential.c")
            )
        if kind == "tabulated":
            return PotentialSpec(
                kind="tabulated",
                x_samples=section.get("x"),
                q_samples=section.get("q"),
            )
        c = _as_float(section.get("c", 0.0), "potential.c")
        return PotentialSpec(kind=kind, c=c)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc


def _read_data_csv(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path!r}: {exc}") from exc
    if not lines:
        raise ConfigError(f"data file {path!r} is empty")
    header = [c.strip() for c in lines[0].split(",")]
    for col in ("lambda", "alpha"):
        if col not in header:
            raise ConfigError(f"data file {path!r} is missing column {col!r}")
    i_lam = header.index("lambda")
    i_al = header.index("alpha")
    lams, als = [], []
    for ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ConfigError(f"data file {path!r}: ragged row {ln!r}")
        try:
            lams.append(float(cells[i_lam]))
            als.append(float(cells[i_al]))
        except ValueError as exc:
            raise ConfigError(f"data file {path!r}: non-numeric row {ln!r}") from exc
    return lams, als


def _read_data_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"data file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"data file {path!r} must hold a JSON object")
    for col in ("lambda", "alpha"):
        if col not in obj:
            raise ConfigError(f"data file {path!r} is missing column {col!r}")
    return obj["lambda"], obj["alpha"]


def _data_from(cfg: dict, profile, config_dir: str):
    """Spectral data from ``data_file`` (csv/json) or inline ``data``."""
    from .forward import SpectralData

    if "data_file" in cfg:
        path = cfg["data_file"]
        if not isinstance(path, str):
            raise ConfigError("config key 'data_file' must be a path string")
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        if path.endswith(".json"):
            lams, als = _read_data_json(path)
        else:
            lams, als = _read_data_csv(path)
    elif "data" in cfg:
        section = cfg["data"]
        if not isinstance(section, dict):
            raise ConfigError("config key 'data' must be an object")
        for col in ("lambda", "alpha"):
            if col not in section:
                raise ConfigError(f"inline data is missing column {col!r}")
        lams, als = section["lambda"], section["alpha"]
    else:
        raise ConfigError("config needs 'data_file' or inline 'data'")
    try:
        return SpectralData(profile=profile, lambdas=lams, normings=als)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid spectral data: {exc}") from exc


def _modes_from(cfg: dict, args, default: int = 30) -> int:
    if args.modes is not None:
        n = args.modes
    elif "modes" in cfg:
        n = _as_int(cfg["modes"], "modes")
    else:
        n = default
    if n < 1:
        raise ConfigError(f"modes must be a positive integer, got {n}")
    return n


def _recon_options(cfg: dict) -> dict:
    section = cfg.get("reconstruction", {})
    if not isinstance(section, dict):
        raise ConfigError("config key 'reconstruction' must be an object")
    opts = {
        "n_slices": 200,
        "m": 128,
        "smooth": True,
        "extend": True,
        "pin_origin": False,
        "condition_cap": None,
    }
    mapping = {
        "n_slices": ("n_slices", _as_int),
        "nodes_per_slice": ("m", _as_int),
        "smooth": ("smooth", None),
        "extend": ("extend", None),
        "pin_origin": ("pin_origin", None),
        "condition_cap": ("condition_cap", _as_float),
    }
    for key, value in section.items():
        if key not in mapping:
            raise ConfigError(f"unknown reconstruction option {key!r}")
        name, conv = mapping[key]
        if conv is None:
            if not isinstance(value, bool):
                raise ConfigError(f"reconstruction.{key} must be true or false")
            opts[name] = value
        else:
            opts[name] = conv(value, f"reconstruction.{key}")
    if opts["n_slices"] < 8:
        raise ConfigError("reconstruction.n_slices must be at least 8")
    if opts["m"] < 8:
        raise ConfigError("reconstruction.nodes_per_slice must be at least 8")
    return opts


# ---------------------------------------------------------------------------
# output writing


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _atomic_write(path: str, text: str) -> None:
    """Publish ``text`` as the new file ``path``; never replace a file.

    The text goes to a temporary file in the target directory, which is
    then hard-linked to ``path``. Unlike a rename, the link fails if
    ``path`` exists, so a file that appeared after ``_prepare_out``
    checked is left as it is and the run is refused.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".slgl-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.link(tmp, path)
    except FileExistsError:
        raise ConfigError(
            f"output file {path!r} appeared while the command ran; "
            "it was not overwritten"
        ) from None
    finally:
        os.unlink(tmp)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_or_none(v: float):
    import numpy as np

    v = float(v)
    return v if np.isfinite(v) else None


def _spectrum_csv(lams, als) -> str:
    rows = [SPECTRUM_HEADER]
    for i, (lam, al) in enumerate(zip(lams, als), start=1):
        rows.append(f"{i},{_fmt(lam)},{_fmt(al)}")
    return "\n".join(rows) + "\n"


def _spectrum_json(lams, als) -> str:
    return _json_text(
        {
            "n": list(range(1, len(lams) + 1)),
            "lambda": [float(v) for v in lams],
            "alpha": [float(v) for v in als],
        }
    )


def _recon_csv(xg, qv, q_true) -> str:
    rows = [RECON_HEADER]
    for i, (x, q) in enumerate(zip(xg, qv)):
        if q_true is None:
            rows.append(f"{_fmt(x)},{_fmt(q)},,")
        else:
            rows.append(
                f"{_fmt(x)},{_fmt(q)},{_fmt(q_true[i])},{_fmt(abs(q - q_true[i]))}"
            )
    return "\n".join(rows) + "\n"


def _recon_json(xg, qv, q_true) -> str:
    obj = {
        "x": [float(v) for v in xg],
        "q_reconstructed": [float(v) for v in qv],
        "q_true_if_known": None if q_true is None else [float(v) for v in q_true],
        "abs_error": None
        if q_true is None
        else [abs(float(q) - float(t)) for q, t in zip(qv, q_true)],
    }
    return _json_text(obj)


def _diagnostics_obj(result) -> dict:
    return {
        "residual_max": _finite_or_none(result.residual_max),
        "condition_max": _finite_or_none(result.condition_max),
        "residuals": [_finite_or_none(v) for v in result.residuals],
        "conditions": [_finite_or_none(v) for v in result.conditions],
        "a0_max_abs": _finite_or_none(max(abs(v) for v in result.a0)),
        "meta": {k: _scrub(v) for k, v in sorted(result.meta.items())},
    }


def _scrub(v):
    import numpy as np

    if isinstance(v, (bool, str)) or v is None:
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return _finite_or_none(v)
    return str(v)


def _prepare_out(out_dir: str, names) -> str:
    """Refuse to clobber prior results; create nothing.

    Called before any heavy computation so a doomed run fails in
    milliseconds; ``names`` are the file names the command intends to
    write. Reusing a directory is fine as long as the target files are
    new (commands compose into a shared directory that way). The
    directory itself is made by ``_emit``, so a failed run leaves none.
    """
    if os.path.isfile(out_dir):
        raise ConfigError(f"--out target {out_dir!r} is an existing file")
    taken = [n for n in names if os.path.exists(os.path.join(out_dir, n))]
    if taken:
        raise ConfigError(
            f"output files already exist in {out_dir!r}: {taken}; "
            "remove them or choose another --out"
        )
    return out_dir


def _emit(files: dict, quiet: bool) -> None:
    """Write all ``files`` (one directory) or none: a failed write removes
    the ones before it, and the directories made here once empty again."""
    made, directory = [], os.path.dirname(next(iter(files)))
    while directory and not os.path.exists(directory):
        made.append(directory)  # innermost first
        directory = os.path.dirname(directory)
    if made:
        os.makedirs(made[0])
    written = []
    try:
        for path, text in files.items():
            _atomic_write(path, text)
            written.append(path)
    except BaseException:
        for path in written:
            os.unlink(path)
        for directory in made:
            try:
                os.rmdir(directory)
            except OSError:
                break
        raise
    if not quiet:
        for path in written:
            print(f"wrote {path}")


# ---------------------------------------------------------------------------
# commands


def _cmd_baseline(cfg, args) -> int:
    from .baseline import baseline_spectrum

    profile = _profile_from(cfg)
    n = _modes_from(cfg, args)
    out = _prepare_out(args.out, ["baseline_spectrum." + args.format])
    base = baseline_spectrum(profile, n)
    if args.format == "csv":
        files = {
            os.path.join(out, "baseline_spectrum.csv"): _spectrum_csv(
                base.lambdas0, base.normings0
            )
        }
    else:
        files = {
            os.path.join(out, "baseline_spectrum.json"): _spectrum_json(
                base.lambdas0, base.normings0
            )
        }
    _emit(files, args.quiet)
    if not args.quiet:
        print(f"baseline: {n} modes, lambda_1 = {_fmt(base.lambdas0[0])}")
    return EXIT_OK


def _cmd_forward(cfg, args) -> int:
    from .baseline import baseline_spectrum
    from .forward import check_asymptotics, spectral_data

    profile = _profile_from(cfg)
    q = _potential_from(cfg, required=False)
    n = _modes_from(cfg, args)
    name = "forward_spectrum." + args.format
    out = _prepare_out(args.out, [name, "asymptotics.json"])
    data = spectral_data(profile, q, n)
    report = check_asymptotics(data, baseline_spectrum(profile, n))
    writer = _spectrum_csv if args.format == "csv" else _spectrum_json
    files = {
        os.path.join(out, name): writer(data.lambdas, data.normings),
        os.path.join(out, "asymptotics.json"): _json_text(
            {
                "n_modes": int(n),
                "sup_scaled_gap": _finite_or_none(report.sup_scaled_gap),
                "sup_scaled_norming_gap": _finite_or_none(
                    report.sup_scaled_norming_gap
                ),
                "bounded": bool(report.bounded),
            }
        ),
    }
    _emit(files, args.quiet)
    if not args.quiet:
        print(f"forward: {n} modes, lambda_1 = {_fmt(data.lambdas[0])}")
    return EXIT_OK


def _run_reconstruction(cfg, args, profile, data):
    from .reconstruct import reconstruct_full

    opts = _recon_options(cfg)
    return reconstruct_full(
        profile,
        data,
        n_slices=opts["n_slices"],
        m=opts["m"],
        extend=opts["extend"],
        smooth=opts["smooth"],
        pin_origin=opts["pin_origin"],
        condition_cap=opts["condition_cap"],
    )


def _cmd_reconstruct(cfg, args) -> int:
    profile = _profile_from(cfg)
    data = _data_from(cfg, profile, args.config_dir)
    q_spec = _potential_from(cfg, required=False)
    out = _prepare_out(
        args.out,
        ["reconstruction." + args.format, "reconstruction_diagnostics.json"],
    )
    result = _run_reconstruction(cfg, args, profile, data)
    q_true = None if q_spec is None else q_spec(result.x_grid)
    writer = _recon_csv if args.format == "csv" else _recon_json
    files = {
        os.path.join(out, "reconstruction." + args.format): writer(
            result.x_grid, result.q_values, q_true
        ),
        os.path.join(out, "reconstruction_diagnostics.json"): _json_text(
            _diagnostics_obj(result)
        ),
    }
    _emit(files, args.quiet)
    if not args.quiet:
        print(
            f"reconstruct: {len(data)} modes on {len(result.x_grid)} points, "
            f"max collocation residual {result.residual_max:.3e}"
        )
    return EXIT_OK


def _rel_l2(xg, qv, q_true) -> float:
    import numpy as np

    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    err = trapezoid((qv - q_true) ** 2, xg) ** 0.5
    ref = trapezoid(q_true**2, xg) ** 0.5
    return float(err / (1.0 + ref))


def _cmd_roundtrip(cfg, args) -> int:
    from .forward import spectral_data

    profile = _profile_from(cfg)
    q_spec = _potential_from(cfg, required=False)
    if q_spec is None:
        from .forward import PotentialSpec

        q_spec = PotentialSpec(kind="zero")
    n = _modes_from(cfg, args)
    section = cfg.get("roundtrip", {})
    if not isinstance(section, dict):
        raise ConfigError("config key 'roundtrip' must be an object")
    tol = _as_float(section.get("tolerance", 0.15), "roundtrip.tolerance")
    out = _prepare_out(
        args.out,
        [
            "forward_spectrum." + args.format,
            "reconstruction." + args.format,
            "roundtrip_report.json",
        ],
    )
    data = spectral_data(profile, q_spec, n)
    result = _run_reconstruction(cfg, args, profile, data)
    q_true = q_spec(result.x_grid)
    rel = _rel_l2(result.x_grid, result.q_values, q_true)
    ok = rel <= tol
    writer = _spectrum_csv if args.format == "csv" else _spectrum_json
    rwriter = _recon_csv if args.format == "csv" else _recon_json
    report = {
        "modes": n,
        "rel_l2_error": rel,
        "tolerance": tol,
        "passed": ok,
        "metric": "||q_hat - q||_L2 / (1 + ||q||_L2) over [0, pi]",
        "residual_max": _finite_or_none(result.residual_max),
        "condition_max": _finite_or_none(result.condition_max),
    }
    files = {
        os.path.join(out, "forward_spectrum." + args.format): writer(
            data.lambdas, data.normings
        ),
        os.path.join(out, "reconstruction." + args.format): rwriter(
            result.x_grid, result.q_values, q_true
        ),
        os.path.join(out, "roundtrip_report.json"): _json_text(report),
    }
    _emit(files, args.quiet)
    if not args.quiet:
        print(
            f"roundtrip: rel L2 error {rel:.6f} "
            f"({'within' if ok else 'ABOVE'} tolerance {tol})"
        )
    return EXIT_OK if ok else EXIT_THRESHOLD


def _cmd_verify(cfg, args) -> int:
    from .reconstruct import verification_suite

    profile = _profile_from(cfg)
    data = _data_from(cfg, profile, args.config_dir)
    section = cfg.get("verify", {})
    if not isinstance(section, dict):
        raise ConfigError("config key 'verify' must be an object")
    n_modes = _as_int(section.get("modes", 40), "verify.modes")
    if n_modes < 2:
        raise ConfigError("verify.modes must be at least 2")
    kwargs = {"n_modes": n_modes}
    if "panels" in section:
        panels = section["panels"]
        if (
            not isinstance(panels, list)
            or len(panels) != 2
            or any(isinstance(p, bool) or not isinstance(p, int) for p in panels)
        ):
            raise ConfigError("verify.panels must be a pair of integers")
        kwargs["simpson_panels"] = (panels[0], panels[1])
    if "nodes_per_slice" in section:
        kwargs["m"] = _as_int(section["nodes_per_slice"], "verify.nodes_per_slice")
    if "boundary_nodes" in section:
        kwargs["m_boundary"] = _as_int(
            section["boundary_nodes"], "verify.boundary_nodes"
        )
    thresholds = {}
    for key in ("max_boundary", "max_ortho", "max_parseval", "max_norming"):
        if key in section:
            thresholds[key] = _as_float(section[key], f"verify.{key}")
    out = _prepare_out(args.out, ["verification_report.json"])
    suite = verification_suite(profile, data, **kwargs)
    violations = []
    score_of = {
        "max_boundary": "boundary",
        "max_ortho": "ortho",
        "max_parseval": "parseval",
        "max_norming": "norming",
    }
    for key, cap in thresholds.items():
        if suite[score_of[key]] > cap:
            violations.append(
                f"{score_of[key]} = {suite[score_of[key]]:.3e} > {cap:.3e}"
            )
    report = {k: _scrub(v) for k, v in sorted(suite.items())}
    report["thresholds"] = {k: thresholds[k] for k in sorted(thresholds)}
    report["violations"] = violations
    report["passed"] = not violations
    _emit(
        {os.path.join(out, "verification_report.json"): _json_text(report)}, args.quiet
    )
    if not args.quiet:
        print(
            "verify: boundary {b:.3e}, ortho {o:.3e}, parseval {p:.3e}".format(
                b=suite["boundary"], o=suite["ortho"], p=suite["parseval"]
            )
        )
        for v in violations:
            print(f"verify: threshold violated: {v}")
    return EXIT_OK if not violations else EXIT_THRESHOLD


_COMMANDS = {
    "baseline": _cmd_baseline,
    "forward": _cmd_forward,
    "reconstruct": _cmd_reconstruct,
    "roundtrip": _cmd_roundtrip,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slgl",
        description=(
            "Spectral reconstruction of a potential over a stepwise density: "
            "forward solver, kernel-equation solver, and verification checks."
        ),
    )
    parser.add_argument(
        "command",
        choices=sorted(_COMMANDS),
        help="which pipeline stage to run",
    )
    parser.add_argument(
        "--config", required=True, help="path to the JSON configuration file"
    )
    parser.add_argument(
        "--out", default=".", help="output directory (created if missing)"
    )
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="tabular output format (default csv)",
    )
    parser.add_argument(
        "--modes",
        type=int,
        default=None,
        help="override the number of modes from the config",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return parser


def main(argv: Optional[list] = None) -> int:
    import numpy as np

    from . import thread_cap
    from .baseline import NumericalError

    args = _build_parser().parse_args(argv)
    try:
        thread_cap()
        cfg = _load_config(args.config)
        args.config_dir = os.path.dirname(os.path.abspath(args.config))
        return _COMMANDS[args.command](cfg, args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        # a ValueError is an input the solver rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
