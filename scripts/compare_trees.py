"""Compare the forward oracle and the inverse pipeline of two source trees.

Usage (from the repository root):

    python scripts/compare_trees.py OLD_SRC NEW_SRC

where each argument is a directory holding an ``slgl`` package (such as
``src`` of two checkouts).  Each tree runs in its own process.

- Forward oracle: 7 density profiles x 5 potentials x 30 and 90 modes,
  plus a constant q = -3, -10 and 100 at 30 modes on every profile
  (inputs that raise), q = sin at 1000 modes on (pi/2, 2), whose
  eigenvalues pass 512, where ulp(lambda) exceeds 1e-13, and q = 0.9 on
  [0, 1], 0.3 on (1, pi] at 300 modes on (1, 0.5), whose eigenvalues
  take 128 to 512 cells per unit, where one flat cell of the mesh spans
  up to 32 rad.  The script
  prints the largest relative differences of the eigenvalues and norming
  numbers, and those of the baseline spectra: at 120 modes on the same
  profiles, and at 300 modes on a = 0.05 and pi - 0.05 with alpha = 0.05
  and 20, where the margin min(1, 1/alpha) of the baseline's interlacing
  brackets is thinnest.
- Inverse pipeline: ``reconstruct_full`` and ``verification_suite`` with
  their defaults on the same 7 profiles, from the closed-form spectrum
  (``perfbench/closed_form.py``) of q = 0.9 on [0, a], 0.3 on (a, pi] at
  30 modes, so both trees see the same input.  The script prints the
  largest |q_new - q_old| / max |q_old| and the largest relative
  difference of each score of the suite's report, each with the absolute
  difference on the same input (max |q_new - q_old| for q): a relative
  move of a score that cancels can be large while its absolute move is
  at rounding level.

For each quantity it also prints on how many of the inputs where both
return the two trees differ at all, so a change meant to keep every bit
reads 0 there.  It also prints every input that raises on either side.
It exits with status 1 when NEW_SRC raises on an input that OLD_SRC
returns, when the eigenvalues differ by more than 1e-12 or the norming
numbers by more than 1e-9, relative, or when q or a suite score differs
by more than 1e-8 as above, on an input where both return; otherwise
with status 0.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys

import numpy as np

LIMITS = {"lambda": 1e-12, "normings": 1e-9}  # largest relative differences that pass
INVERSE_LIMIT = 1e-8  # for q and for every suite score
PROFILES = [(1.5707963267948966, 2.0), (1.0, 0.5), (2.4, 0.6), (0.2, 2.0),
            (2.9, 3.0), (0.3, 0.5), (1.55, 1.6)]
# baseline spectra only: (profiles, modes)
BASELINES = [(PROFILES, 120),
             ([(a, alpha) for a in (0.05, math.pi - 0.05) for alpha in (0.05, 20.0)], 300)]
STEP = (0.9, 0.3)  # the inverse pipeline's q on [0, a] and on (a, pi]
INVERSE_MODES = 30
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _potentials(slgl, np):
    step = dict(x_samples=[0.0, 1.3, 1.3 + 1e-9, np.pi], q_samples=[0.9, 0.9, -0.3, -0.3])
    return {
        "zero": None,
        "constant 0.7": slgl.PotentialSpec(kind="constant", c=0.7),
        "sin": slgl.PotentialSpec(kind="sin"),
        "3 cos": slgl.PotentialSpec(kind="cos", c=3.0),
        "tabulated step": slgl.PotentialSpec(kind="tabulated", **step),
    }


def _dump(src: str) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(1, PERFBENCH)
    import warnings

    import closed_form
    import numpy as np
    import slgl

    inputs = [(p, name, q, n) for p in PROFILES
              for name, q in _potentials(slgl, np).items() for n in (30, 90)]
    inputs += [(p, f"constant {c:g}", slgl.PotentialSpec(kind="constant", c=c), 30)
               for p in PROFILES for c in (-3.0, -10.0, 100.0)]
    inputs.append((PROFILES[0], "sin", slgl.PotentialSpec(kind="sin"), 1000))
    step = slgl.PotentialSpec(kind="callable", fn=lambda x: np.where(x <= 1.0, 0.9, 0.3))
    inputs.append((PROFILES[1], "step 0.9 | 0.3", step, 300))
    out = {"family": {}, "baseline": {}, "inverse": {}}
    for p, name, q, n in inputs:
        try:
            d = slgl.spectral_data(slgl.DensityProfile(*p), q, n)
            out["family"][(p, name, n)] = (d.lambdas, d.normings)
        except slgl.NumericalError as exc:
            out["family"][(p, name, n)] = str(exc)
    for profiles, n in BASELINES:
        for p in profiles:
            b = slgl.baseline_spectrum(slgl.DensityProfile(*p), n)
            out["baseline"][(p, n)] = (b.lambdas0, b.normings0)
    for p in PROFILES:
        profile = slgl.DensityProfile(*p)
        data = slgl.SpectralData(profile, *closed_form.spectrum(*p, *STEP, INVERSE_MODES))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                q = slgl.reconstruct_full(profile, data).q_values
                suite = slgl.verification_suite(profile, data)
            out["inverse"][p] = (q, suite)
        except slgl.NumericalError as exc:
            out["inverse"][p] = str(exc)
    return out


def _split(old: dict, new: dict):
    """The keys where both sides return, with both values; print the
    others and count those that return on the old side only."""
    both, lost = [], 0
    for key, a in old.items():
        b = new[key]
        if isinstance(a, str) or isinstance(b, str):
            lost += isinstance(b, str) and not isinstance(a, str)
            print(f"raises {key}:\n  old: {a if isinstance(a, str) else 'ok'}"
                  f"\n  new: {b if isinstance(b, str) else 'ok'}")
        else:
            both.append((key, a, b))
    return both, lost


def _relative(a: float, b: float) -> float:
    """|b / a - 1|, and 0 where a == b (so also for two zeros or infinities)."""
    return 0.0 if a == b else abs(b / a - 1.0)


def _differ(pairs) -> str:
    """On how many of the (old, new) pairs the values differ at all."""
    count = sum(not np.array_equal(a, b, equal_nan=True) for a, b in pairs)
    return f"{count} of {len(pairs)} inputs differ"


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--dump":
        sys.stdout.buffer.write(pickle.dumps(_dump(sys.argv[2])))
        return 0
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    old, new = (
        pickle.loads(subprocess.run([sys.executable, __file__, "--dump", src],
                                    check=True, capture_output=True).stdout)
        for src in sys.argv[1:]
    )
    both, lost = _split(old["family"], new["family"])
    recon, lost_inverse = _split(old["inverse"], new["inverse"])
    lost += lost_inverse
    spectra = [(key, old["baseline"][key], new["baseline"][key]) for key in old["baseline"]]
    print(f"{len(old['family'])} inputs, {len(spectra)} baseline spectra and "
          f"{len(old['inverse'])} reconstructions; largest relative differences "
          "where both return:")
    failed = lost > 0
    for kind, pairs in (("oracle", both), ("baseline", spectra)):
        for i, name in enumerate(LIMITS):
            diff, key = max((float(np.abs(b[i] / a[i] - 1.0).max()), key) for key, a, b in pairs)
            print(f"  {kind} {name}: {diff:.2e} at {key} (limit {LIMITS[name]:.0e}); "
                  + _differ([(a[i], b[i]) for _, a, b in pairs]))
            failed |= diff > LIMITS[name]
    if recon:
        # (relative, absolute, key) per input where both return
        diffs = {"q": ([(float(np.abs(b[0] - a[0]).max() / np.abs(a[0]).max()),
                         float(np.abs(b[0] - a[0]).max()), key) for key, a, b in recon],
                       [(a[0], b[0]) for _, a, b in recon])}
        scores = [k for k, v in recon[0][1][1].items() if isinstance(v, float) and k != "shift"]
        for k in scores:
            diffs[f"suite {k}"] = ([(_relative(a[1][k], b[1][k]), abs(b[1][k] - a[1][k]), key)
                                    for key, a, b in recon],
                                   [(a[1][k], b[1][k]) for _, a, b in recon])
        for name, (moves, pairs) in diffs.items():
            diff, absolute, key = max(moves, key=lambda m: m[0])
            print(f"  {name}: {diff:.2e} relative ({absolute:.2e} absolute) at {key} "
                  f"(limit {INVERSE_LIMIT:.0e} relative); {_differ(pairs)}")
            failed |= diff > INVERSE_LIMIT
    print(f"inputs that return on the old tree and raise on the new: {lost}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
