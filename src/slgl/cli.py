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
deterministically: the same config produces byte-identical files.  JSON
outputs hold Python numbers only, with ``null`` for a non-finite one.

Each command checks its inputs, claims its output paths, computes, and
returns the files to write, its summary lines and its exit code; ``main``
alone writes and reports.  Without ``--quiet`` a run that writes its
files prints one ``wrote <path>`` line per file, in the order written,
then the summary: one line per command, and for ``verify`` one more line
per violated threshold.  Errors go to stderr, one line each, and so does
each warning the command raised, as ``warning: <message>``, before the
files are written or the error is reported.  ``reconstruct``,
``roundtrip`` and ``verify`` also list the warnings' messages under
``warnings`` in their JSON report.

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
import math
import os
import sys
import tempfile
import warnings
from typing import Optional

import numpy as np

from . import thread_cap
from .baseline import NumericalError, SpectralData, baseline_spectrum, check_asymptotics
from .density import DensityProfile
from .forward import PotentialSpec, spectral_data
from .glm import MIN_NODES_PER_SLICE
from .reconstruct import VERIFY_MODES, reconstruct_full, verification_suite

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

# Each config object's keys with their JSON types, and its required keys. A
# key left out is not passed on, so each default lives only in the library
# signature that receives it.
_SECTIONS = {
    "config": (
        {"profile": dict, "modes": int, "potential": dict, "data": dict,
         "data_file": str, "reconstruction": dict, "roundtrip": dict, "verify": dict},
        ("profile",),
    ),
    "profile": ({"a": float, "alpha": float, "strict": bool}, ("a", "alpha")),
    # inline data and JSON data files; "n" is what forward --format json adds
    "data": ({"n": list, "lambda": list, "alpha": list}, ("lambda", "alpha")),
    "reconstruction": (
        {"n_slices": int, "nodes_per_slice": int, "smooth": bool, "extend": bool,
         "condition_cap": float},
        (),
    ),
    "roundtrip": ({"tolerance": float}, ()),
    "verify": (
        {"modes": int, "nodes_per_slice": int, "max_boundary": float,
         "max_ortho": float, "max_parseval": float, "max_norming": float},
        (),
    ),
}

# the keys each potential kind reads
_POTENTIALS = {
    "zero": ({"kind": str}, ()),
    "constant": ({"kind": str, "c": float}, ("c",)),
    "sin": ({"kind": str, "c": float}, ()),
    "cos": ({"kind": str, "c": float}, ()),
    "tabulated": ({"kind": str, "x": list, "q": list}, ("x", "q")),
}

# config keys whose library parameter has another name
_PARAMS = {"x": "x_samples", "q": "q_samples", "nodes_per_slice": "m",
           "modes": "n_modes"}

# the least value of each integer key that has one, checked when the
# config loads, whichever command runs
_MINIMUMS = {"config": {"modes": 1},
             "reconstruction": {"n_slices": 8, "nodes_per_slice": MIN_NODES_PER_SLICE},
             "verify": {"modes": 2, "nodes_per_slice": MIN_NODES_PER_SLICE}}

# verify gates "max_<score>"; violations are listed in the table's order
_GATES = [k for k in _SECTIONS["verify"][0] if k.startswith("max_")]

_TYPE_NAMES = {float: "a number", int: "an integer", bool: "true or false",
               str: "a string", list: "an array", dict: "an object"}


def _read(obj, table, label: str) -> dict:
    """Check one JSON object against ``(key types, required keys)``.

    Rejects a non-object, an unknown key, a missing required key, a
    value of the wrong type, an array item that is not a number, a
    non-finite number, also inside an array, and a value below the key's
    least in ``_MINIMUMS``; an integer passes as a number. Returns the
    given keys only, numbers as floats.
    """
    types, required = table
    if not isinstance(obj, dict):
        raise ConfigError(f"{label} must be a JSON object")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ConfigError(
            f"unknown keys {unknown} in {label}; known keys are {sorted(types)}"
        )
    for key in required:
        if key not in obj:
            raise ConfigError(f"{label} is missing required key {key!r}")
    out = {}
    for key, value in obj.items():
        if types[key] is float and type(value) is int:
            value = float(value)
        if type(value) is not types[key]:
            raise ConfigError(
                f"{label} key {key!r} must be {_TYPE_NAMES[types[key]]}, "
                f"got {value!r}"
            )
        items = value if type(value) is list else [value]
        if type(value) is list and any(type(v) not in (int, float) for v in items):
            raise ConfigError(f"{label} key {key!r} must be an array of numbers")
        # JSON's NaN and Infinity parse as floats; no solver takes them
        bad = [v for v in items if type(v) is float and not math.isfinite(v)]
        if bad:
            raise ConfigError(f"{label} key {key!r} must be finite, got {bad[0]!r}")
        least = _MINIMUMS.get(label, {}).get(key)
        if least is not None and value < least:
            raise ConfigError(f"{label}.{key} must be at least {least}")
        out[key] = value
    return out


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _load_config(path: str, modes: Optional[int]) -> dict:
    """The config with every section checked, whichever command runs.
    ``modes`` (the --modes flag) replaces the config's own before the
    check, and ``modes`` is 30 where neither gives it."""
    raw = _load_json(path, "config file")
    if modes is not None and isinstance(raw, dict):
        raw["modes"] = modes
    cfg = _read(raw, _SECTIONS["config"], "config")
    cfg.setdefault("modes", 30)
    for name in ("profile", "data", "reconstruction", "roundtrip", "verify"):
        if name in cfg:
            cfg[name] = _read(cfg[name], _SECTIONS[name], name)
    if "potential" in cfg:
        kind = cfg["potential"].get("kind", PotentialSpec.kind)
        if not (isinstance(kind, str) and kind in _POTENTIALS):
            known = sorted(_POTENTIALS)
            raise ConfigError(f"unknown potential kind {kind!r}; known kinds {known}")
        cfg["potential"] = _read(
            cfg["potential"], _POTENTIALS[kind], f"{kind} potential"
        )
    return cfg


def _params(section: dict) -> dict:
    return {_PARAMS.get(k, k): v for k, v in section.items()}


def _profile_from(cfg: dict):
    try:
        return DensityProfile(**cfg["profile"])
    except ValueError as exc:
        raise ConfigError(f"invalid density profile: {exc}") from exc


def _potential_from(cfg: dict):
    if "potential" not in cfg:
        return None
    try:
        return PotentialSpec(**_params(cfg["potential"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc


def _read_data_csv(path: str) -> dict:
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
    return {"lambda": lams, "alpha": als}


def _data_from(cfg: dict, profile, config_dir: str):
    """Spectral data from ``data_file`` (csv/json) or inline ``data``."""
    if "data_file" in cfg:
        path = os.path.join(config_dir, cfg["data_file"])
        if path.endswith(".json"):
            obj = _load_json(path, "data file")
            cols = _read(obj, _SECTIONS["data"], f"data file {path!r}")
        else:
            cols = _read_data_csv(path)
    elif "data" in cfg:
        cols = cfg["data"]
    else:
        raise ConfigError("config needs 'data_file' or inline 'data'")
    try:
        return SpectralData(profile, cols["lambda"], cols["alpha"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid spectral data: {exc}") from exc


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


def _scrub(v):
    """``v`` with numpy arrays and scalars as Python values, recursively,
    and each non-finite float as ``None`` (JSON ``null``)."""
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, dict):
        return {k: _scrub(u) for k, u in v.items()}
    if isinstance(v, list):
        return [_scrub(u) for u in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    return v


def _json_text(obj) -> str:
    return json.dumps(_scrub(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _table(columns: dict, fmt: str) -> str:
    """Columns as CSV, where a ``None`` column gives empty cells, or as
    JSON, where it gives ``null``; integer columns stay integers."""
    if fmt == "json":
        return _json_text(columns)
    n_rows = len(next(iter(columns.values())))
    cells = [[_fmt(x) for x in v] if v is not None else [""] * n_rows
             for v in columns.values()]
    return "\n".join([",".join(columns)] + [",".join(r) for r in zip(*cells)]) + "\n"


def _spectrum_table(lams, als, fmt: str) -> str:
    n = np.arange(1, len(lams) + 1)
    return _table(dict(zip(SPECTRUM_HEADER.split(","), (n, lams, als))), fmt)


def _recon_table(result, q_true, fmt: str) -> str:
    err = None if q_true is None else np.abs(result.q_values - q_true)
    cols = (result.x_grid, result.q_values, q_true, err)
    return _table(dict(zip(RECON_HEADER.split(","), cols)), fmt)


def _prepare_out(out_dir: str, *names: str) -> list:
    """Refuse to clobber prior results; create nothing.

    Called before any heavy computation so a doomed run fails in
    milliseconds; ``names`` are the file names the command intends to
    write, and their paths are returned. Reusing a directory is fine as
    long as the target files are new (commands compose into a shared
    directory that way). The directory itself is made by ``_emit``, so a
    failed run leaves none.
    """
    if os.path.isfile(out_dir):
        raise ConfigError(f"--out target {out_dir!r} is an existing file")
    paths = [os.path.join(out_dir, n) for n in names]
    taken = [n for n, p in zip(names, paths) if os.path.exists(p)]
    if taken:
        raise ConfigError(
            f"output files already exist in {out_dir!r}: {taken}; "
            "remove them or choose another --out"
        )
    return paths


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
# commands: each checks its inputs, claims its output paths, computes, and
# returns (files to write, summary lines, exit code)


def _cmd_baseline(cfg, args):
    profile = _profile_from(cfg)
    n = cfg["modes"]
    (path,) = _prepare_out(args.out, "baseline_spectrum." + args.format)
    base = baseline_spectrum(profile, n)
    files = {path: _spectrum_table(base.lambdas, base.normings, args.format)}
    return files, [f"baseline: {n} modes, lambda_1 = {_fmt(base.lambdas[0])}"], EXIT_OK


def _cmd_forward(cfg, args):
    profile = _profile_from(cfg)
    q = _potential_from(cfg)
    n = cfg["modes"]
    spectrum_path, asymptotics_path = _prepare_out(
        args.out, "forward_spectrum." + args.format, "asymptotics.json"
    )
    data = spectral_data(profile, q, n)
    report = check_asymptotics(data, baseline_spectrum(profile, n))
    files = {
        spectrum_path: _spectrum_table(data.lambdas, data.normings, args.format),
        asymptotics_path: _json_text({
            "n_modes": n,
            "sup_scaled_gap": report.sup_scaled_gap,
            "sup_scaled_norming_gap": report.sup_scaled_norming_gap,
            "bounded": report.bounded,
        }),
    }
    return files, [f"forward: {n} modes, lambda_1 = {_fmt(data.lambdas[0])}"], EXIT_OK


def _cmd_reconstruct(cfg, args):
    profile = _profile_from(cfg)
    data = _data_from(cfg, profile, args.config_dir)
    q_spec = _potential_from(cfg)
    opts = _params(cfg.get("reconstruction", {}))
    recon_path, diagnostics_path = _prepare_out(
        args.out, "reconstruction." + args.format, "reconstruction_diagnostics.json"
    )
    result = reconstruct_full(profile, data, **opts)
    q_true = None if q_spec is None else q_spec(result.x_grid)
    files = {
        recon_path: _recon_table(result, q_true, args.format),
        diagnostics_path: _json_text({
            "residual_max": result.residual_max,
            "condition_max": result.condition_max,
            "residuals": result.residuals,
            "conditions": result.conditions,
            "a0_max_abs": np.abs(result.a0).max(),
            "meta": result.meta,
            "warnings": [str(w.message) for w in args.warnings],
        }),
    }
    line = (f"reconstruct: {len(data)} modes on {len(result.x_grid)} points, "
            f"max collocation residual {result.residual_max:.3e}")
    return files, [line], EXIT_OK


def _rel_l2(xg, qv, q_true) -> float:
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    err = trapezoid((qv - q_true) ** 2, xg) ** 0.5
    ref = trapezoid(q_true**2, xg) ** 0.5
    return float(err / (1.0 + ref))


def _cmd_roundtrip(cfg, args):
    profile = _profile_from(cfg)
    q_spec = _potential_from(cfg) or PotentialSpec()
    n = cfg["modes"]
    tol = cfg.get("roundtrip", {}).get("tolerance", 0.15)
    opts = _params(cfg.get("reconstruction", {}))
    spectrum_path, recon_path, report_path = _prepare_out(
        args.out,
        "forward_spectrum." + args.format,
        "reconstruction." + args.format,
        "roundtrip_report.json",
    )
    data = spectral_data(profile, q_spec, n)
    result = reconstruct_full(profile, data, **opts)
    q_true = q_spec(result.x_grid)
    rel = _rel_l2(result.x_grid, result.q_values, q_true)
    ok = rel <= tol
    report = {
        "modes": n,
        "rel_l2_error": rel,
        "tolerance": tol,
        "passed": ok,
        "metric": "||q_hat - q||_L2 / (1 + ||q||_L2) over [0, pi]",
        "residual_max": result.residual_max,
        "condition_max": result.condition_max,
        "warnings": [str(w.message) for w in args.warnings],
    }
    files = {
        spectrum_path: _spectrum_table(data.lambdas, data.normings, args.format),
        recon_path: _recon_table(result, q_true, args.format),
        report_path: _json_text(report),
    }
    line = f"roundtrip: rel L2 error {rel:.6f} ({'within' if ok else 'ABOVE'} tolerance {tol})"
    return files, [line], EXIT_OK if ok else EXIT_THRESHOLD


def _cmd_verify(cfg, args):
    profile = _profile_from(cfg)
    data = _data_from(cfg, profile, args.config_dir)
    section = dict(cfg.get("verify", {}))
    thresholds = {k: section.pop(k) for k in _GATES if k in section}
    opts = _params(section)
    (path,) = _prepare_out(args.out, "verification_report.json")
    suite = verification_suite(profile, data, **opts)
    violations = [f"{key[4:]} = {suite[key[4:]]:.3e} > {limit:.3e}"  # key is "max_<score>"
                  for key, limit in thresholds.items() if suite[key[4:]] > limit]
    # a tail completion that stopped short leaves fewer modes than asked for
    wanted = opts.get("n_modes", VERIFY_MODES)
    if suite["n_modes"] < wanted:
        violations.append(f"n_modes = {suite['n_modes']} < {wanted}: the tail completion stopped")
    report = {**suite, "thresholds": thresholds, "violations": violations,
              "passed": not violations, "warnings": [str(w.message) for w in args.warnings]}
    lines = ["verify: boundary {boundary:.3e}, ortho {ortho:.3e}, parseval {parseval:.3e}"
             .format(**suite)]
    lines += [f"verify: threshold violated: {v}" for v in violations]
    return {path: _json_text(report)}, lines, EXIT_THRESHOLD if violations else EXIT_OK


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
    args = _build_parser().parse_args(argv)
    try:
        # the command's warnings, which reconstruct, roundtrip and verify also
        # record in their JSON report
        with warnings.catch_warnings(record=True) as args.warnings:
            try:
                thread_cap()
                cfg = _load_config(args.config, args.modes)
                args.config_dir = os.path.dirname(os.path.abspath(args.config))
                files, lines, code = _COMMANDS[args.command](cfg, args)
            finally:  # one line each, also when the command fails
                for w in args.warnings:
                    print(f"warning: {w.message}", file=sys.stderr)
        _emit(files, args.quiet)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        # a ValueError is an input the solver rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
