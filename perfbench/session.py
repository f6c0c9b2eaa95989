"""One benchmark process: import, set up, run operations, report JSON.

Started by ``run.py``; not meant to be run by hand.  A ``probe`` session
imports the package, builds the setup input and runs the cold setup
operation, then exits: it exists to sample set-up time.  The ``main``
session does the same and then runs whole rounds of the workload's cells
until ``--seconds`` have passed.  Untraced, a sampler gauges the
machine's speed during every operation (``calibrate.py``).  With
``--trace 1`` every input of a round runs twice, untraced and then
traced, so the tracing overhead is measured on the same inputs.  The
last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import slgl  # noqa: E402  (caps the BLAS threads before numpy loads)

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _op(workload, inp, ctx):
    """run_op that records an exception as a failed operation."""
    try:
        return workloads.run_op(workload, slgl, inp, ctx)
    except Exception as exc:  # the benchmark must keep running; record it
        row = workloads.describe(inp)
        row.update(ok=False, op_s=None, why=f"{type(exc).__name__}: {exc}")
        row["traceback"] = traceback.format_exc(limit=3)
        return row


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.CELLS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--role", choices=("main", "probe"), default="main")
    p.add_argument("--work", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--index", type=int, default=0, help="session number within the run")
    args = p.parse_args()

    w = args.workload
    ctx = {"env": dict(os.environ), "work": args.work, "bench_dir": BENCH_DIR, "op_index": 0}
    # an untraced run samples the machine's speed during its operations;
    # certify's work runs in its CLI children, which sample it themselves
    sampler = None
    if not args.trace and w == "certify":
        ctx["child_sampling"] = True
    elif not args.trace:
        sampler = ctx["sampler"] = calibrate.Sampler()
        sampler.start()
    out = {}

    # set-up: the cold first operation.  Certify operations start fresh
    # processes anyway, so certify counts its first op like any other.
    first = workloads.setup_input(w, args.seed, args.index)
    row = _op(w, first, ctx)
    # set-up ends with the first op, less the time spent sampling
    out["setup_end"] = (
        time.monotonic() - (sampler.spent if sampler else 0.0) - row.get("sampling_s", 0.0)
    )
    out["setup_row"] = row
    # a traced run traces every cell, so there the setup op is extra
    counts_first = workloads.SETUP_CELLS[w] is None and not args.trace
    if args.role == "probe":
        if sampler is not None:
            sampler.stop()
        print(json.dumps(_with_rss(out)))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    profiles, traced_s, untraced_s, bytes_written = [], [], [], []
    rows = []
    if counts_first:
        row["round"] = 0
        rows.append(row)
    t_loop = time.perf_counter()
    spent0 = sampler.spent if sampler else 0.0
    r = 0
    while True:
        inputs = workloads.make_round(w, args.seed, r)
        if counts_first and r == 0:
            inputs = inputs[1:]
        for inp in inputs:
            ctx["op_index"] += 1
            row = _op(w, inp, ctx)
            row["round"] = r
            rows.append(row)
            if tracer is not None:
                untraced_s.append(row["op_s"])
                ctx["op_index"] += 1
                op_id = ctx["op_index"]
                tracer.install()
                tracer.op_id = op_id
                ctx["tracer"] = tracer
                try:
                    trow = _op(w, inp, ctx)
                finally:
                    ctx["tracer"] = None
                    tracer.op_id = -1
                    tracer.uninstall()
                traced_s.append(trow["op_s"])
                profiles.append(
                    tracing.op_profile([s for s in tracer.spans if s[0] == op_id])
                )
                bytes_written.append(trow.get("bytes_written", 0))
                row["traced_op_s"] = trow["op_s"]
                row["unattributed_frac"] = (
                    profiles[-1]["unattributed_s"] / profiles[-1]["op_s"]
                    if profiles[-1]["op_s"]
                    else None
                )
        r += 1
        if time.perf_counter() - t_loop >= args.seconds:
            break
    out["loop_s"] = time.perf_counter() - t_loop
    out["loop_s"] -= sum(r.get("sampling_s", 0.0) for r in rows if r["round"] > 0)
    if sampler is not None:
        sampler.stop()
        out["loop_s"] -= sampler.spent - spent0
        ctx["sampler"] = None
    ctx["child_sampling"] = False
    out["loop_ops"] = len(rows) - (1 if counts_first else 0)
    out["rows"] = rows
    if w == "certify":
        out["known_defects"] = [workloads.certify_known_defect(ctx)]
    if tracer is not None:
        out["per_layer"] = tracing.layer_metrics(profiles, bytes_written)
        out["top_self"] = tracing.top_self(profiles)
        out["traced_op_s"] = traced_s
        out["untraced_op_s"] = untraced_s
        if args.spans:
            tracing.write_spans(args.spans, tracer.spans)
    print(json.dumps(_with_rss(out)))
    return 0


def _with_rss(out: dict) -> dict:
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return out


if __name__ == "__main__":
    sys.exit(main())
