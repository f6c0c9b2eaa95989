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
  up to 32 rad.  Then the benchmark's own ``forward`` inputs
  (``perfbench/workloads.py``, only read): its 4 cells in rounds 0 and 1
  at seeds 1 and 2, 16 inputs, such as ``n30_tabulated``'s 33-sample
  cosine with a drawn phase.  The script
  prints the largest relative differences of the eigenvalues and norming
  numbers, and those of the baseline spectra: at 120 modes on the same
  profiles, and at 300 modes on a = 0.05 and pi - 0.05 with alpha = 0.05
  and 20, where the margin min(1, 1/alpha) of the baseline's interlacing
  brackets is thinnest.
- Inverse pipeline: on the same 7 profiles, from the closed-form spectrum
  (``perfbench/closed_form.py``) of q = 0.9 on [0, a], 0.3 on (a, pi] at
  30 modes, so both trees see the same input, ``reconstruct_full`` with
  its defaults and with ``extend=False`` (no tail completion), and
  ``verification_suite`` with its defaults and on the first 10 modes
  alone, scored to 40 (30 of them from the tail completion, 9 or 10 of
  those beyond the modes the kernel is completed to).  Then the
  benchmark's own inputs (``perfbench/workloads.py``, only read): the 13
  ``inverse`` cells of round 0 and the 2 ``certify`` cells of rounds 0
  and 1, each at seeds 1 and 2, run through ``reconstruct_full`` and
  ``verification_suite`` with their defaults, as the benchmark and the
  CLI run them.  The script prints the
  largest |q_new - q_old| / max |q_old|, the largest relative difference
  of the per-slice condition numbers and that of each score of the
  suite's report, each with the absolute difference on the same input
  (max |q_new - q_old| for q): a relative move of a score that cancels
  can be large while its absolute move is at rounding level.
- Accuracy: every ``reconstruct_full`` run above has a closed-form truth
  (the step q, or the cell's), so the script prints both trees' rel L2
  error of q against it (``workloads.q_rel_l2``) on each input.
- Size: each tree's code lines, those that are not blank, a comment or
  a docstring, per module of ``slgl`` and in total.  Printed only, not
  gated.

For each quantity it also prints on how many of the inputs where both
return the two trees differ at all, so a change meant to keep every bit
reads 0 there.  It also prints every input that raises on either side.
It exits with status 1 when NEW_SRC raises on an input that OLD_SRC
returns, when the eigenvalues differ by more than 1e-12 or the norming
numbers by more than 1e-9, relative, when q, a condition number or a
suite score differs by more than 1e-8 relative as above, or when
``parseval`` or ``parseval_shifted`` differs by more than 1e-10
absolute, or when the new rel L2 error exceeds the old one by more than
``ACCURACY_LIMIT`` (1e-4) of it (or either is NaN), on an input where
both return; otherwise with status 0.  ``parseval`` and
``parseval_shifted`` are |S / ||f||^2 - 1|, a difference of order-1 operands, so their absolute
move is already their move relative to the operands, while their move
relative to themselves grows as they cancel.  ``parseval_degradation``,
the quotient of the two, is printed but not gated.  The largest move of
the rel L2 error that a q within the 1e-8 limit can cause,
1e-8 max |q_hat| sqrt(pi) / ||q||, is 4.8e-6 of the error on these inputs
(on the reference cell, the most accurate), so a rounding-level change
stays 20x below the accuracy limit.
"""

from __future__ import annotations

import ast
import io
import math
import os
import pickle
import subprocess
import sys
import tokenize

import numpy as np

LIMITS = {"lambda": 1e-12, "normings": 1e-9}  # largest relative differences that pass
INVERSE_LIMIT = 1e-8  # relative, for q, the conditions and every other suite score
ABSOLUTE_LIMITS = {"suite parseval": 1e-10, "suite parseval_shifted": 1e-10}
UNGATED = ("suite parseval_degradation",)  # the quotient of the two above
ACCURACY_LIMIT = 1e-4  # the largest rise of q's rel L2 error that passes, relative
PROFILES = [(1.5707963267948966, 2.0), (1.0, 0.5), (2.4, 0.6), (0.2, 2.0),
            (2.9, 3.0), (0.3, 0.5), (1.55, 1.6)]
# baseline spectra only: (profiles, modes)
BASELINES = [(PROFILES, 120),
             ([(a, alpha) for a in (0.05, math.pi - 0.05) for alpha in (0.05, 20.0)], 300)]
STEP = (0.9, 0.3)  # the inverse pipeline's q on [0, a] and on (a, pi]
INVERSE_MODES = 30
SEEDS = (1, 2)  # the benchmark seeds whose inputs are compared
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
    import workloads

    inputs = [(p, name, q, n) for p in PROFILES
              for name, q in _potentials(slgl, np).items() for n in (30, 90)]
    inputs += [(p, f"constant {c:g}", slgl.PotentialSpec(kind="constant", c=c), 30)
               for p in PROFILES for c in (-3.0, -10.0, 100.0)]
    inputs.append((PROFILES[0], "sin", slgl.PotentialSpec(kind="sin"), 1000))
    step = slgl.PotentialSpec(kind="callable", fn=lambda x: np.where(x <= 1.0, 0.9, 0.3))
    inputs.append((PROFILES[1], "step 0.9 | 0.3", step, 300))
    inputs += [((inp["a"], inp["alpha"]), f"{inp['cell']} seed {s} round {r}",
                workloads.potential_spec(slgl, inp), inp["modes"])
               for s in SEEDS for r in (0, 1) for inp in workloads.make_round("forward", s, r)]
    out = {"family": {}, "baseline": {}, "inverse": {}, "accuracy": {}}
    for p, name, q, n in inputs:
        try:
            d = slgl.spectral_data(slgl.DensityProfile(*p), q, n)
            out["family"][(p, name, n)] = (d.lambdas, d.normings)
        except slgl.NumericalError as exc:
            out["family"][(p, name, n)] = str(exc)
    for profiles, n in BASELINES:
        for p in profiles:
            b = slgl.baseline_spectrum(slgl.DensityProfile(*p), n)
            # a base tree from before baseline_spectrum returned a
            # SpectralData names its arrays lambdas0 and normings0
            out["baseline"][(p, n)] = ((b.lambdas, b.normings) if hasattr(b, "lambdas")
                                       else (b.lambdas0, b.normings0))
    runs = []  # (label, truth, name, call); truth as workloads.q_rel_l2 takes it
    for p in PROFILES:
        truth = {"a": p[0], "c1": STEP[0], "c2": STEP[1]}
        profile = slgl.DensityProfile(*p)
        data = slgl.SpectralData(profile, *closed_form.spectrum(*p, *STEP, INVERSE_MODES))
        short = slgl.SpectralData(profile, data.lambdas[:10], data.normings[:10])
        runs += [(p, truth, name, fn) for name, fn in [
            ("reconstruct_full", lambda pr=profile, d=data: slgl.reconstruct_full(pr, d)),
            ("reconstruct_full extend=False",
             lambda pr=profile, d=data: slgl.reconstruct_full(pr, d, extend=False)),
            ("verification_suite", lambda pr=profile, d=data: slgl.verification_suite(pr, d)),
            ("verification_suite, 10 modes",
             lambda pr=profile, d=short: slgl.verification_suite(pr, d)),
        ]]
    cells = [(f"inverse seed {s}", inp) for s in SEEDS
             for inp in workloads.make_round("inverse", s, 0)]
    cells += [(f"certify seed {s}", workloads.make_round("certify", s, r)[0])
              for s in SEEDS for r in (0, 1)]
    for label, inp in cells:
        profile = slgl.DensityProfile(inp["a"], inp["alpha"])
        data = slgl.SpectralData(profile, *workloads.true_spectrum(inp))
        label = (label, inp["cell"])
        runs += [
            (label, inp, "reconstruct_full",
             lambda pr=profile, d=data: slgl.reconstruct_full(pr, d)),
            (label, inp, "verification_suite",
             lambda pr=profile, d=data: slgl.verification_suite(pr, d)),
        ]
    for label, truth, name, fn in runs:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = fn()
        except slgl.NumericalError as exc:
            out["inverse"][(label, name)] = str(exc)
            continue
        if isinstance(got, dict):  # a suite report: its float scores
            out["inverse"][(label, name)] = {f"suite {k}": v for k, v in got.items()
                                             if isinstance(v, float) and k != "shift"}
        else:
            out["inverse"][(label, name)] = {"q": got.q_values, "conditions": got.conditions}
            out["accuracy"][(label, name)] = workloads.q_rel_l2(got.x_grid, got.q_values, truth)
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


def _relative(a, b) -> float:
    """The largest |b / a - 1| over the entries of a and b, with 0 where
    a == b (so also for two zeros or infinities)."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    differ = a != b
    return float(np.abs(b[differ] / a[differ] - 1.0).max(initial=0.0))


def _differ(pairs) -> str:
    """On how many of the (old, new) pairs the values differ at all."""
    count = sum(not np.array_equal(a, b, equal_nan=True) for a, b in pairs)
    return f"{count} of {len(pairs)} inputs differ"


def _code_lines(src: str) -> dict:
    """Module file name -> its lines that are not blank, a comment or a
    docstring, for each module of the ``slgl`` package in ``src``."""
    package = os.path.join(src, "slgl")
    counts = {}
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            text = fh.read()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                                tokenize.DEDENT, tokenize.ENDMARKER):
                code.update(range(tok.start[0], tok.end[0] + 1))
        counts[name] = len(code - docstrings)
    return counts


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
          f"{len(old['inverse'])} inverse runs; largest relative differences "
          "where both return:")
    failed = lost > 0
    for kind, pairs in (("oracle", both), ("baseline", spectra)):
        for i, name in enumerate(LIMITS):
            diff, key = max((float(np.abs(b[i] / a[i] - 1.0).max()), key) for key, a, b in pairs)
            print(f"  {kind} {name}: {diff:.2e} at {key} (limit {LIMITS[name]:.0e}); "
                  + _differ([(a[i], b[i]) for _, a, b in pairs]))
            failed |= diff > LIMITS[name]
    # quantity -> ((relative, absolute, key) per input where both return,
    # the (old, new) pairs); q is relative to its largest value
    diffs = {}
    for key, a, b in recon:
        for name in a:
            if name == "q":
                absolute = float(np.abs(b[name] - a[name]).max())
                rel = absolute / float(np.abs(a[name]).max())
            else:
                rel = _relative(a[name], b[name])
                absolute = float(np.abs(np.asarray(b[name]) - a[name]).max())
            moves, pairs = diffs.setdefault(name, ([], []))
            moves.append((rel, absolute, key))
            pairs.append((a[name], b[name]))
    for name, (moves, pairs) in diffs.items():
        if name in ABSOLUTE_LIMITS:
            diff, absolute, key = max(moves, key=lambda m: m[1])
            limit = f"limit {ABSOLUTE_LIMITS[name]:.0e} absolute"
            failed |= absolute > ABSOLUTE_LIMITS[name]
        else:
            diff, absolute, key = max(moves, key=lambda m: m[0])
            limit = "not gated" if name in UNGATED else f"limit {INVERSE_LIMIT:.0e} relative"
            failed |= name not in UNGATED and diff > INVERSE_LIMIT
        print(f"  {name}: {diff:.2e} relative ({absolute:.2e} absolute) at {key} "
              f"({limit}); {_differ(pairs)}")
    accuracy = [(key, a, new["accuracy"][key]) for key, a in old["accuracy"].items()
                 if key in new["accuracy"]]
    print("rel L2 error of q against its closed form, reconstruct_full "
          f"(limit: a rise of {ACCURACY_LIMIT:.0e} of the old value):")
    worse = 0
    for key, a, b in accuracy:
        above = not b <= a * (1.0 + ACCURACY_LIMIT)  # NaN on either side fails
        worse += above
        print(f"  {key}: old {a:.6e}, new {b:.6e}, change {b / a - 1.0:+.2e}"
              + (" ABOVE LIMIT" if above else ""))
    print(f"  accuracy: {worse} inputs above the limit; "
          + _differ([(a, b) for _, a, b in accuracy]))
    failed |= worse > 0
    print(f"inputs that return on the old tree and raise on the new: {lost}")
    sizes = [_code_lines(src) for src in sys.argv[1:]]
    print("code lines (not blank, a comment or a docstring), old -> new:")
    for name in sorted(set(sizes[0]) | set(sizes[1])):
        print(f"  {name}: {sizes[0].get(name, '-')} -> {sizes[1].get(name, '-')}")
    print(f"  total: {sum(sizes[0].values())} -> {sum(sizes[1].values())}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
