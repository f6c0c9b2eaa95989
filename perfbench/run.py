"""slgl benchmark: one seeded workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload inverse|forward|certify \
        --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout this file sits in;
nothing needs installing.  Every operation runs with ``SLGL_THREADS=1``
in a closed loop with one caller.  The run starts a few probe processes
(``PROBES``) and one main process; each imports the package and runs a
cold setup operation, which gives one set-up sample per process.  The
main process then runs whole rounds of the workload's cells for at
least ``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
Lines before it are a human-readable report.  The full record (machine,
settings, one row per input) goes to ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEADLINE_S = 170.0
# set-up samples besides the main session's: an inverse probe takes about
# 2 s, a forward probe 4 s and a certify probe 6 s
PROBES = {"inverse": 4, "forward": 1, "certify": 2}
THREAD_VARS = (
    "SLGL_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _session(args, role, index, work, env, deadline, spans=None) -> tuple:
    """Run one session process; returns (start time, parsed JSON)."""
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--index", str(index), "--work", work,
    ]
    if spans:
        argv += ["--spans", spans]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # time limit, interrupt or SIGTERM: stop the session and its children
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{role} session exceeded the time limit") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{role} session exited {proc.returncode}: {stderr.strip()[-2000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} session printed no result: {stderr.strip()[-2000:]}")
    return t0, json.loads(lines[-1])


def _tail(values) -> tuple:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  Below 21 samples that
    percentile would not lie above the median, so the maximum is
    reported instead, as percentile 100.
    """
    v = sorted(values)
    n = len(v)
    if n < 21:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def _environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "slgl")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        # the ceiling keeps git from searching above the checkout
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "SLGL_THREADS": "1",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _median(values):
    return statistics.median(values) if values else None


def _max(values):
    return max(values) if values else None


def _op_cal(rows) -> tuple:
    """Geometric mean over cells of each cell's median op_cal; (value, cells).

    Taking the median per cell first keeps the mix of cells the same in
    every run, whatever the number of rounds; the geometric mean weighs
    every cell alike, so the longest cell does not set the figure alone.
    """
    by_cell = {}
    for r in rows:
        if r.get("op_cal") is not None:
            by_cell.setdefault(r["cell"], []).append(r["op_cal"])
    if not by_cell:
        return None, 0
    return statistics.geometric_mean(statistics.median(v) for v in by_cell.values()), len(by_cell)


def end_to_end(workload, setups, main, probes) -> tuple:
    """(metrics for the final line, full per-workload report)."""
    rows = main["rows"]
    if workload == "certify":
        # every certify op is cold, so the probes' setup ops count too
        rows = rows + [p["setup_row"] for p in probes]
    attempted = len(rows)
    failed = sum(1 for r in rows if not r["ok"])
    op_s = [r["op_s"] for r in rows if r["op_s"] is not None]
    if not op_s:
        raise BenchError("no operation finished")
    tail, pct, n = _tail(op_s)
    op_cal, cells = _op_cal(rows)
    cal_s = [r["cal_s"] for r in rows if r.get("cal_s")]
    rss_key = "children_maxrss_kb" if workload == "certify" else "maxrss_kb"
    rss_mb = max(s[rss_key] for s in [main] + probes) / 1024.0
    rep = {
        "setup_s": {"value": _median(setups), "unit": "s", "samples": setups},
        "op_s.p50": {"value": _median(op_s), "unit": "s", "samples": len(op_s)},
        "op_cal.gmean": {"value": op_cal, "unit": "cal", "cells": cells},
        "cal_s.p50": {"value": _median(cal_s), "unit": "s", "samples": len(cal_s)},
        "op_s.tail": {"value": tail, "unit": "s", "percentile": pct, "samples": n},
        "ops_per_s": {"value": main["loop_ops"] / main["loop_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB",
                        "source": "children" if workload == "certify" else "self"},
        "fail_frac": {"value": failed / attempted, "unit": "1"},
    }
    ok = [r for r in rows if r["ok"]]
    if workload in ("inverse", "certify"):
        q = [r["q_rel_l2"] for r in ok if r.get("q_rel_l2") is not None]
        rep["q_rel_l2.p50"] = {"value": _median(q), "unit": "1"}
        rep["q_rel_l2.max"] = {"value": _max(q), "unit": "1"}
        err = q
    else:
        lam = [r["lam_err"] for r in ok if "lam_err" in r]
        rep["lam_err.max"] = {"value": _max(lam), "unit": "1"}
        rep["norming_err.max"] = {
            "value": _max([r["norming_err"] for r in ok if "norming_err" in r]), "unit": "1"
        }
        err = lam
    if workload == "certify":
        rep["suite_gate_ratio.max"] = {
            "value": _max([r["suite_gate_ratio"] for r in ok if "suite_gate_ratio" in r]),
            "unit": "1",
        }
        rep["suite_degradation.min"] = {
            "value": min([r["suite_degradation"] for r in ok if "suite_degradation" in r],
                         default=None),
            "unit": "1",
        }
    generic = {
        "setup_s": rep["setup_s"]["value"],
        "op_cal.gmean": op_cal,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / attempted,
        "err.p50": _median(err),
        "err.max": _max(err),
    }
    metrics = {}
    for m in SPEC["end_to_end"]:
        value = generic[m["name"]]
        if value is None:
            raise BenchError(f"metric {m['name']} has no samples")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, rep, attempted, failed


def per_layer(main) -> tuple:
    m = dict(main["per_layer"])
    traced = _median([v for v in main["traced_op_s"] if v is not None])
    untraced = _median([v for v in main["untraced_op_s"] if v is not None])
    if traced is None or untraced is None:
        raise BenchError("no traced operation finished")
    m["trace.overhead_frac"] = traced / untraced - 1.0
    metrics = {}
    for spec in SPEC["per_layer"]:
        metrics[spec["name"]] = {"value": m[spec["name"]], "unit": spec["unit"]}
    rows = main["rows"]
    return metrics, m, len(rows), sum(1 for r in rows if not r["ok"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "slgl", "__init__.py")):
        print(f"error: no slgl sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = _env()
    results = os.path.join(ROOT, ".perfbench_results")
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        probes = []
        setups = []
        if not args.trace:
            for i in range(PROBES[args.workload]):
                t0, out = _session(
                    args, "probe", i + 1, os.path.join(work, f"probe{i}"), env, deadline
                )
                probes.append(out)
                setups.append(out["setup_end"] - t0)
        t0, main_out = _session(
            args, "main", 0, os.path.join(work, "main"), env, deadline,
            spans=stem + ".spans.csv.gz" if args.trace else None,
        )
        setups.append(main_out["setup_end"] - t0)
        if args.trace:
            metrics, report, attempted, failed = per_layer(main_out)
        else:
            metrics, report, attempted, failed = end_to_end(
                args.workload, setups, main_out, probes
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    record = {
        "environment": _environment(args),
        "metrics": metrics,
        "report": report,
        "rows": main_out["rows"],
        "setup_rows": [o["setup_row"] for o in probes] + [main_out["setup_row"]],
        "known_defects": main_out.get("known_defects", []),
        "top_self": main_out.get("top_self"),
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# slgl benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    keys = ("cell", "modes", "kind", "op_s", "q_rel_l2", "lam_err", "suite_gate_ratio", "why")
    for label, rows in (("setup row", record["setup_rows"]), ("row", record["rows"])):
        for r in rows:
            print(f"# {label} " + json.dumps({k: r[k] for k in keys if k in r}))
    for kd in record["known_defects"]:
        print("# known defect " + json.dumps(kd))
    if record["top_self"]:
        for name, s, frac in record["top_self"]:
            print(f"# self {name:42s} {s:9.4f} s/op {100 * frac:6.2f}%")
    for name, v in report.items():
        if isinstance(v, dict):
            extra = {k: x for k, x in v.items() if k not in ("value", "unit")}
            print(f"# {name} = {v['value']} {v['unit']} {json.dumps(extra) if extra else ''}")
        else:
            print(f"# {name} = {v}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
