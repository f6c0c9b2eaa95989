"""Workload inputs, operations and correctness checks.

Each workload is a fixed list of cells.  A cell pins the properties that
set an operation's cost (mode count, potential kind, the region of the
(a, alpha) family) and the seed draws the remaining values inside the
cell, so every seed exercises the same mix of work while the inputs
themselves differ.  A few cells are fixed inputs with no draw at all:
the reference profile and the known bad inputs, which are kept and
recorded rather than seeded away.

One round runs every cell once (for ``certify``, one cell per round,
alternating).  ``make_round(workload, seed, r)`` gives round ``r``'s
inputs; later rounds draw fresh values in the same cells, so no input
repeats inside a run.  ``run_op`` performs one operation,
times exactly the call under test and checks its output.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import closed_form

PI = float(np.pi)
REF = {"a": PI / 2, "alpha": 2.0}

# criterion 7 gates of the verification suite
SUITE_GATES = {"boundary": 1e-3, "ortho": 1e-3, "parseval": 1e-2}
SUITE_MIN_DEGRADATION = 10.0
RESIDUAL_GATE = 1e-10


def _span(lo, hi):
    return (float(lo), float(hi))


def _near(center, half=0.02):
    """A range of +-half around center: the seed's jitter inside a cell."""
    return _span(center - half, center + half)


# --- cells -------------------------------------------------------------------
# A value is either a number (fixed) or a (lo, hi) range drawn per seed.
# Profiles are fixed per cell and the seed draws the potential: the
# reconstruction error jumps by up to 10x when a moves by 0.01 (at
# a = 0.7, alpha = 1.6, 20 modes: 0.044, 0.61, 0.11, 0.069 for a = 0.68,
# 0.69, 0.70, 0.71), while it is smooth in the potential, so seeded
# profiles would make every run measure a different mix of easy and hard
# inputs.

INVERSE_CELLS = [
    # fixed inputs: the reference profile and the known bad ones
    {"cell": "ref", "a": REF["a"], "alpha": 2.0, "modes": 30, "kind": "constant", "c1": 0.5},
    {"cell": "bad_a2.5_alpha3_m10", "a": 2.5, "alpha": 3.0, "modes": 10, "kind": "constant", "c1": 0.7},
    {"cell": "bad_alpha0.3", "a": 1.0, "alpha": 0.3, "modes": 20, "kind": "constant", "c1": 0.7},
]
# a 3 x 3 grid over the family, alpha < 1 and alpha > 1, plus one cell
# near the classical limit
for _i, _a in enumerate((0.7, 1.55, 2.4)):
    for _j, _al in enumerate((0.6, 1.6, 2.5)):
        _k = _i + _j
        INVERSE_CELLS.append(
            {
                "cell": f"a{_a}_alpha{_al}",
                "a": _a,
                "alpha": _al,
                "modes": (10, 20, 30)[_k % 3],
                "kind": "stepped" if _k % 2 == 0 else "constant",
                "c1": _near(0.8),
                "c2": _near(0.4) if _k % 2 == 0 else _near(0.8),
            }
        )
INVERSE_CELLS.append(
    {"cell": "a1.2_alpha1.15", "a": 1.2, "alpha": 1.15, "modes": 20,
     "kind": "stepped", "c1": _near(0.4), "c2": _near(0.8)}
)

FORWARD_CELLS = [
    {"cell": "n10_stepped", "a": 1.0, "alpha": 0.5, "modes": 10,
     "kind": "stepped", "c1": _near(0.9), "c2": _near(0.3)},
    {"cell": "n10_cos", "a": 2.2, "alpha": 1.5, "modes": 10,
     "kind": "cos", "c1": _near(0.75)},
    {"cell": "n20_constant", "a": REF["a"], "alpha": 2.0, "modes": 20,
     "kind": "constant", "c1": _near(0.6)},
    {"cell": "n30_tabulated", "a": 2.0, "alpha": 0.7, "modes": 30,
     "kind": "tabulated", "c1": _near(0.6), "c2": _near(0.2), "phase": _span(0.0, 2 * PI)},
]

CERTIFY_CELLS = [
    {"cell": "ref_stepped", "a": REF["a"], "alpha": 2.0, "modes": 30, "kind": "stepped",
     "c1": _near(0.8), "c2": _near(0.4)},
    {"cell": "low_alpha", "a": 1.0, "alpha": 0.5, "modes": 20,
     "kind": "constant", "c1": _near(0.6)},
]

# the cold operation every session starts with; it sets setup_s
SETUP_CELLS = {
    "inverse": dict(INVERSE_CELLS[0], cell="setup"),
    "forward": {"cell": "setup", "a": REF["a"], "alpha": 2.0, "modes": 5, "kind": "sin", "c1": 1.0},
    # certify operations start fresh processes anyway: each session's
    # first certify op is a reference-cell op and counts like any other
    "certify": None,
}

CELLS = {"inverse": INVERSE_CELLS, "forward": FORWARD_CELLS, "certify": CERTIFY_CELLS}

# a certify input that the CLI rejects today (10 measured modes are too few
# for the suite's default 40 verification modes); run once per certify
# run, recorded as a row, not counted as an operation
CERTIFY_KNOWN_DEFECT = {"cell": "known_defect_verify_m10", "a": REF["a"], "alpha": 2.0,
                        "modes": 10, "kind": "constant", "c1": 0.5}


def _draw(cell: dict, rng) -> dict:
    out = {}
    for k, v in cell.items():
        out[k] = float(rng.uniform(*v)) if isinstance(v, tuple) else v
    out.setdefault("c2", out.get("c1"))
    return out


def make_round(workload: str, seed: int, round_index: int) -> list:
    rng = np.random.default_rng([seed, round_index])
    cells = CELLS[workload]
    if workload == "certify":
        # a certify op is two cold processes and takes seconds: a round is
        # one op, cells alternating, so a run ends within one op of --seconds
        cells = [cells[round_index % len(cells)]]
    return [_draw(c, rng) for c in cells]


def setup_input(workload: str, seed: int, session: int) -> dict:
    """The first (cold) input of session ``session``."""
    cell = SETUP_CELLS[workload]
    if cell is None:
        if session == 0:
            return make_round(workload, seed, 0)[0]
        cell = CELLS[workload][0]
    return _draw(cell, np.random.default_rng([seed, 10**6 + session]))


# --- shared helpers ------------------------------------------------------------


class OpTimer:
    """Times exactly the call under test; in a traced op it is also the
    root span that every layer span of the op hangs under.

    With a calibration sampler running (``ctx["sampler"]``, see
    calibrate.py) the time spent sampling is left out of ``s``, and
    ``cal_s`` is the mean kernel time sampled during the call.
    """

    def __init__(self, ctx):
        self.tracer = ctx.get("tracer")
        self.sampler = ctx.get("sampler")
        self.index = None
        self.s = None
        self.cal_s = None

    def __enter__(self):
        if self.tracer is not None:
            self.index = self.tracer.begin("op")
        if self.sampler is not None:
            self.mark = self.sampler.mark()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.s = time.perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.end(self.index)
        if self.sampler is not None:
            spent, self.cal_s = self.sampler.since(self.mark)
            self.s -= spent
        return False


def _timing(op_s, cal_s) -> dict:
    """The row fields a timed call gives: op_s, and op_cal when sampled."""
    row = {"op_s": op_s}
    if cal_s:
        row["cal_s"] = cal_s
        row["op_cal"] = op_s / cal_s
    return row


def true_spectrum(inp: dict):
    return closed_form.spectrum(inp["a"], inp["alpha"], inp["c1"], inp["c2"], inp["modes"])


def q_rel_l2(x, q_hat, inp) -> float:
    """||q_hat - q|| / ||q|| in L2 over [0, pi] (trapezoid rule)."""
    q = closed_form.potential(inp["a"], inp["c1"], inp["c2"], x)
    num = np.trapezoid((q_hat - q) ** 2, x)
    den = np.trapezoid(q**2, x)
    return float(np.sqrt(num / den))


class StepPotential:
    """q = c1 on [0, a], c2 on (a, pi]; vectorized."""

    def __init__(self, a, c1, c2):
        self.a, self.c1, self.c2 = a, c1, c2

    def __call__(self, x):
        return np.where(np.asarray(x) <= self.a, self.c1, self.c2)


def potential_spec(slgl, inp: dict):
    kind = inp["kind"]
    if kind == "constant":
        return slgl.PotentialSpec(kind="constant", c=inp["c1"])
    if kind == "stepped":
        return slgl.PotentialSpec(kind="callable", fn=StepPotential(inp["a"], inp["c1"], inp["c2"]))
    if kind in ("sin", "cos"):
        return slgl.PotentialSpec(kind=kind, c=inp["c1"])
    if kind == "tabulated":
        xs = np.linspace(0.0, PI, 33)
        qs = inp["c1"] + inp["c2"] * np.cos(2.0 * xs + inp["phase"])
        return slgl.PotentialSpec(kind="tabulated", x_samples=xs, q_samples=qs)
    raise ValueError(f"unknown potential kind {kind!r}")


def describe(inp: dict) -> dict:
    """The row fields that identify an input."""
    keys = ("cell", "a", "alpha", "modes", "kind", "c1", "c2", "phase")
    return {k: inp[k] for k in keys if k in inp}


# --- operations ------------------------------------------------------------------


def _run_inverse(slgl, inp, ctx):
    profile = slgl.DensityProfile(inp["a"], inp["alpha"])
    lam, nm = true_spectrum(inp)
    data = slgl.SpectralData(profile, lam, nm)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with OpTimer(ctx) as timer:
            result = slgl.reconstruct_full(profile, data)
    row = dict(_timing(timer.s, timer.cal_s), warnings=len(caught))
    why = []
    if not np.all(np.isfinite(result.q_values)):
        why.append("q non-finite")
    if not result.residual_max <= RESIDUAL_GATE:
        why.append(f"residual_max {result.residual_max:.3e} > {RESIDUAL_GATE:.0e}")
    if not np.all(np.isfinite(result.conditions)):
        why.append("condition estimate non-finite")
    row["q_rel_l2"] = q_rel_l2(result.x_grid, result.q_values, inp) if not why else None
    row["residual_max"] = result.residual_max
    row["condition_max"] = result.condition_max
    row["modes_used"] = int(result.meta["n_modes_used"])
    return row, why


def _run_forward(slgl, inp, ctx):
    profile = slgl.DensityProfile(inp["a"], inp["alpha"])
    q = potential_spec(slgl, inp)
    n = inp["modes"]
    with OpTimer(ctx) as timer:
        sd = slgl.spectral_data(profile, q, n)
    lam = np.asarray(sd.lambdas)
    row = _timing(timer.s, timer.cal_s)
    why = []
    if len(lam) != n or len(sd.normings) != n:
        why.append(f"length {len(lam)} != {n}")
    elif not (np.all(np.isfinite(lam)) and np.all(lam > 0) and np.all(np.diff(lam) > 0)):
        why.append("eigenvalues not finite, positive and strictly increasing")
    if not why and inp["kind"] in ("constant", "stepped"):  # closed form known
        lam_t, nm_t = true_spectrum(inp)
        row["lam_err"] = float(np.abs(lam - lam_t).max())
        row["norming_err"] = float(np.abs(np.asarray(sd.normings) / nm_t - 1.0).max())
    return row, why


def _write_certify_inputs(inp, work):
    lam, nm = true_spectrum(inp)
    os.makedirs(work, exist_ok=True)
    rows = ["n,lambda,alpha"]
    rows += [f"{i},{float(l)!r},{float(m)!r}" for i, (l, m) in enumerate(zip(lam, nm), start=1)]
    with open(os.path.join(work, "data.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    cfg = {
        "profile": {"a": inp["a"], "alpha": inp["alpha"]},
        "data_file": "data.csv",
        "verify": {
            "max_boundary": SUITE_GATES["boundary"],
            "max_ortho": SUITE_GATES["ortho"],
            "max_parseval": SUITE_GATES["parseval"],
        },
    }
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)


def _cli(ctx, command, work, spans_path=None, cal_path=None):
    """Run one slgl command as a fresh process; returns (code, stderr).

    With ``spans_path`` the child traces its layers, with ``cal_path`` it
    samples the machine's speed (cli_child.py); else it is plain
    ``python -m slgl.cli``.
    """
    if spans_path is not None:
        argv = [sys.executable, os.path.join(ctx["bench_dir"], "cli_child.py"),
                "--spans", spans_path]
    elif cal_path is not None:
        argv = [sys.executable, os.path.join(ctx["bench_dir"], "cli_child.py"),
                "--calibrate", cal_path]
    else:
        argv = [sys.executable, "-m", "slgl.cli"]
    argv += [command, "--config", os.path.join(work, "config.json"),
             "--out", os.path.join(work, "out"), "--quiet"]
    proc = subprocess.run(argv, env=ctx["env"], cwd=work, capture_output=True, text=True)
    return proc.returncode, proc.stderr.strip()[-300:]


def _run_certify(slgl, inp, ctx):
    work = os.path.join(ctx["work"], f"op{ctx['op_index']}")
    _write_certify_inputs(inp, work)
    tracer = ctx.get("tracer")
    paths, cal_paths = [None, None], [None, None]
    if tracer is not None:
        paths = [os.path.join(work, f"spans_{c}.json") for c in ("reconstruct", "verify")]
    if ctx.get("child_sampling"):
        cal_paths = [os.path.join(work, f"cal_{c}.json") for c in ("reconstruct", "verify")]
    with OpTimer(ctx) as timer:
        rc1, err1 = _cli(ctx, "reconstruct", work, paths[0], cal_paths[0])
        rc2, err2 = _cli(ctx, "verify", work, paths[1], cal_paths[1])
    if tracer is not None:
        for p in paths:
            if os.path.exists(p):
                with open(p, encoding="utf-8") as fh:
                    tracer.adopt(json.load(fh), tracer.op_id, timer.index)
    # the children sampled the machine's speed while they ran; their
    # sampling time is left out of op_s
    spent, samples = 0.0, []
    for p in cal_paths:
        if p is not None and os.path.exists(p):
            with open(p, encoding="utf-8") as fh:
                cal = json.load(fh)
            spent += cal["spent"]
            samples += cal["samples"]
    cal_s = statistics.fmean(samples) if samples else None
    row = dict(_timing(timer.s - spent, cal_s), exit_codes=[rc1, rc2])
    if cal_paths[0] is not None:
        row["sampling_s"] = spent
    why = []
    if rc1 != 0:
        why.append(f"reconstruct exit {rc1}: {err1}")
    if rc2 not in (0, 4):
        why.append(f"verify exit {rc2}: {err2}")
    out = os.path.join(work, "out")
    try:
        with open(os.path.join(out, "reconstruction.csv"), encoding="utf-8") as fh:
            tab = np.loadtxt(fh, delimiter=",", skiprows=1, usecols=(0, 1))
        with open(os.path.join(out, "reconstruction_diagnostics.json"), encoding="utf-8") as fh:
            diag = json.load(fh)
        with open(os.path.join(out, "verification_report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        row["bytes_written"] = sum(
            os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
        )
    except (OSError, ValueError) as exc:
        why.append(f"output missing or unparsable: {exc}")
        return row, why
    x, q_hat = tab[:, 0], tab[:, 1]
    if not np.all(np.isfinite(q_hat)):
        why.append("q non-finite")
    else:
        row["q_rel_l2"] = q_rel_l2(x, q_hat, inp)
    row["residual_max"] = diag.get("residual_max")
    row["modes_used"] = diag.get("meta", {}).get("n_modes_used")
    scores = {k: rep.get(k) for k in SUITE_GATES}
    degr = {k: rep.get(f"{k}_degradation") for k in SUITE_GATES}
    if any(v is None for v in list(scores.values()) + list(degr.values())):
        why.append("verification report lacks a score")
        return row, why
    row["suite_gate_ratio"] = max(scores[k] / SUITE_GATES[k] for k in SUITE_GATES)
    row["suite_degradation"] = min(degr.values())
    row["suite"] = {**scores, **{f"{k}_degradation": v for k, v in degr.items()}}
    if inp["a"] == REF["a"] and inp["alpha"] == REF["alpha"]:
        if row["suite_gate_ratio"] > 1.0:
            why.append(f"reference profile misses criterion 7 gates: {scores}")
        if row["suite_degradation"] < SUITE_MIN_DEGRADATION:
            why.append(f"reference profile degradation below 10x: {degr}")
    return row, why


def certify_known_defect(ctx) -> dict:
    """Run ``slgl verify`` on the recorded known-defect input; returns a row."""
    inp = _draw(CERTIFY_KNOWN_DEFECT, None)
    work = os.path.join(ctx["work"], "known_defect")
    _write_certify_inputs(inp, work)
    rc, err = _cli(ctx, "verify", work)
    return dict(describe(inp), verify_exit=rc, stderr=err)


RUNNERS = {"inverse": _run_inverse, "forward": _run_forward, "certify": _run_certify}


def run_op(workload: str, slgl, inp: dict, ctx: dict) -> dict:
    """One operation; returns its row (input, timing, accuracy, verdict)."""
    row, why = RUNNERS[workload](slgl, inp, ctx)
    row = {**describe(inp), **row}
    row["ok"] = not why
    if why:
        row["why"] = "; ".join(why)
    return row
