"""Run ``slgl.cli.main`` with the layer tracing or the speed sampler installed.

Usage: python cli_child.py --spans SPANS_JSON <slgl cli arguments...>
       python cli_child.py --calibrate CAL_JSON <slgl cli arguments...>

The certify workload starts this in place of ``python -m slgl.cli``: for
its traced operations with ``--spans``, and for its untraced operations
with ``--calibrate``, so that the machine's speed is sampled in the
process that does the work (calibrate.py).  The spans, or the sampler's
kernel times and the time it took, are written to the JSON file when
the command returns, and the command's exit code is passed through.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import slgl.cli  # noqa: E402  (caps the BLAS threads before numpy loads)

import calibrate  # noqa: E402


def main() -> int:
    mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "--calibrate":
        sampler = calibrate.Sampler()
        sampler.start()
        try:
            return slgl.cli.main(argv)
        finally:
            sampler.stop()
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"spent": sampler.spent, "samples": sampler.samples}, fh)
    if mode != "--spans":
        raise SystemExit(f"unknown mode {mode!r}")
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return slgl.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
