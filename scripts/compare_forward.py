"""Compare the forward oracle of two source trees on a family of inputs.

Usage (from the repository root):

    python scripts/compare_forward.py OLD_SRC NEW_SRC

where each argument is a directory holding an ``slgl`` package (such as
``src`` of two checkouts).  Each tree runs in its own process on 7
density profiles x 5 potentials x 30 and 90 modes, plus a constant
q = -3, -10 and 100 at 30 modes on every profile (inputs that raise).
The script prints the largest relative differences of the eigenvalues
and norming numbers, and those of the baseline spectra: at 120 modes on
the same profiles, and at 300 modes on a = 0.05 and pi - 0.05 with
alpha = 0.05 and 20, where the margin min(1, 1/alpha) of the baseline's
interlacing brackets is thinnest.  It also prints every input that
raises on either side.  It exits with status 1 when
NEW_SRC raises on an input that OLD_SRC returns, or when the eigenvalues
differ by more than 1e-12 or the norming numbers by more than 1e-9,
relative, on an input where both return; otherwise with status 0.
"""

from __future__ import annotations

import math
import pickle
import subprocess
import sys

LIMITS = {"lambda": 1e-12, "normings": 1e-9}  # largest relative differences that pass
PROFILES = [(1.5707963267948966, 2.0), (1.0, 0.5), (2.4, 0.6), (0.2, 2.0),
            (2.9, 3.0), (0.3, 0.5), (1.55, 1.6)]
# baseline spectra only: (profiles, modes)
BASELINES = [(PROFILES, 120),
             ([(a, alpha) for a in (0.05, math.pi - 0.05) for alpha in (0.05, 20.0)], 300)]


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
    import numpy as np
    import slgl

    inputs = [(p, name, q, n) for p in PROFILES
              for name, q in _potentials(slgl, np).items() for n in (30, 90)]
    inputs += [(p, f"constant {c:g}", slgl.PotentialSpec(kind="constant", c=c), 30)
               for p in PROFILES for c in (-3.0, -10.0, 100.0)]
    out = {"family": {}, "baseline": {}}
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
    return out


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
    import numpy as np

    both, lost = [], 0
    for key, a in old["family"].items():
        b = new["family"][key]
        if isinstance(a, str) or isinstance(b, str):
            lost += isinstance(b, str) and not isinstance(a, str)
            print(f"raises {key}:\n  old: {a if isinstance(a, str) else 'ok'}"
                  f"\n  new: {b if isinstance(b, str) else 'ok'}")
        else:
            both.append((key, a, b))
    spectra = [(key, old["baseline"][key], new["baseline"][key]) for key in old["baseline"]]
    print(f"{len(old['family'])} inputs and {len(spectra)} baseline spectra; "
          "largest relative differences where both return:")
    failed = lost > 0
    for kind, pairs in (("oracle", both), ("baseline", spectra)):
        for i, name in enumerate(LIMITS):
            diff, key = max((float(np.abs(b[i] / a[i] - 1.0).max()), key) for key, a, b in pairs)
            print(f"  {kind} {name}: {diff:.2e} at {key} (limit {LIMITS[name]:.0e})")
            failed |= diff > LIMITS[name]
    print(f"inputs that return on the old tree and raise on the new: {lost}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
