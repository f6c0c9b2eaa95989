"""Accuracy of one source tree's forward oracle against a refined reference.

Usage (from the repository root):

    python scripts/oracle_accuracy.py SRC REF_SRC

where each argument is a directory holding an ``slgl`` package (such as
``src`` of two checkouts, or the same one twice).  SRC's oracle runs as
it is; REF_SRC's runs with every mesh density multiplied by 8 (its
``forward._densities`` patched).  Each runs in its own process.

- Smooth q: the 7 density profiles of ``scripts/compare_trees.py`` and
  (0.2, 0.3) x {sin, 3 cos, q = 0.6 + 0.2 cos(2 x + 1) tabulated at 33
  equispaced samples} x 30 and 90 modes.  For each input the script
  prints the largest relative error of SRC's eigenvalues and norming
  numbers against the reference, and then the largest of each over all
  inputs.
- Piecewise-constant q: the same 8 profiles x {q = 0, q = 0.7, q = 0.9
  on [0, a] and 0.3 on (a, pi]} x 30 and 90 modes, every cell of which is
  exact.  SRC's eigenvalues and norming numbers are compared with the
  closed form of ``perfbench/closed_form.py``.
- Decaying eigenfunctions: constant q = 100 at 30 modes on (1, 0.5) and
  (0.3, 0.5).  The normings of SRC are compared with 200-node
  Gauss-Legendre quadrature per piece of the closed-form eigenfunction,
  at SRC's eigenvalues polished by Newton steps on the closed-form
  Delta, as in ``tests/test_forward.py``.

It exits with status 1 when the largest smooth-q error exceeds 1e-11 in
the eigenvalues or 1e-9 in the norming numbers, when the largest
piecewise-constant error exceeds 1e-13 in the eigenvalues or 1e-12 in
the norming numbers, or when a q = 100 norming misses quadrature by more
than 1e-11; otherwise with status 0.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np

SCALE = 8  # the reference's mesh densities against SRC's rule
PROFILES = [(1.5707963267948966, 2.0), (1.0, 0.5), (2.4, 0.6), (0.2, 2.0),
            (2.9, 3.0), (0.3, 0.5), (1.55, 1.6), (0.2, 0.3)]
MODES = (30, 90)
DECAYING = [(1.0, 0.5), (0.3, 0.5)]  # constant q = 100 at 30 modes
C_DECAYING = 100.0
LIMITS = {"lambda": 1e-11, "normings": 1e-9}  # largest smooth-q errors that pass
DECAYING_LIMIT = 1e-11  # for the q = 100 normings against quadrature
PIECEWISE = {"zero": (0.0, 0.0), "constant 0.7": (0.7, 0.7), "step": (0.9, 0.3)}  # q on each piece
# against the closed form: measured 2.0e-14 and 1.5e-13 with flat cells merged, and
# 2.0e-14 and 1.55e-13 on the fine mesh alone
PIECEWISE_LIMITS = {"lambda": 1e-13, "normings": 1e-12}
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _potentials(slgl):
    xs = np.linspace(0.0, np.pi, 33)
    return {
        "sin": slgl.PotentialSpec(kind="sin"),
        "3 cos": slgl.PotentialSpec(kind="cos", c=3.0),
        "tabulated": slgl.PotentialSpec(kind="tabulated", x_samples=xs,
                                        q_samples=0.6 + 0.2 * np.cos(2.0 * xs + 1.0)),
    }


def _dump(src: str, scale: int) -> dict:
    sys.path.insert(0, src)
    import slgl
    import slgl.forward as forward

    if scale != 1:
        densities = forward._densities
        forward._densities = lambda lams, alpha: scale * densities(lams, alpha)
    out = {}
    for p in PROFILES:
        for name, q in _potentials(slgl).items():
            for n in MODES:
                d = slgl.spectral_data(slgl.DensityProfile(*p), q, n)
                out[(p, name, n)] = (d.lambdas, d.normings)
    for p in PROFILES if scale == 1 else ():
        for name, (c1, c2) in PIECEWISE.items():
            q = (slgl.PotentialSpec(kind="constant", c=c1) if c1 == c2 else
                 slgl.PotentialSpec(kind="callable",
                                    fn=lambda x, a=p[0], c1=c1, c2=c2: np.where(x <= a, c1, c2)))
            for n in MODES:
                d = slgl.spectral_data(slgl.DensityProfile(*p), q, n)
                out[(p, name, n)] = (d.lambdas, d.normings)
    for p in DECAYING:
        d = slgl.spectral_data(slgl.DensityProfile(*p),
                               slgl.PotentialSpec(kind="constant", c=C_DECAYING), 30)
        out[(p, f"constant {C_DECAYING:g}", 30)] = (d.lambdas, d.normings)
    return out


def _quadrature_normings(a: float, alpha: float, lams) -> np.ndarray:
    """int rho phi^2 for constant q = C_DECAYING, at lams polished by
    Newton steps on the closed-form Delta."""
    c, t = C_DECAYING, np.pi - a

    def pieces(lam):
        return np.sqrt(lam**2 - c + 0j), np.sqrt(lam**2 * alpha**2 - c + 0j)

    def delta(lam):
        k1, k2 = pieces(lam)
        ya, dya = np.cos(k1 * a), -k1 * np.sin(k1 * a)
        return (ya * np.cos(k2 * t) + dya * np.sin(k2 * t) / k2).real

    for _ in range(3):
        lams = lams - delta(lams) * 2e-6 / (delta(lams + 1e-6) - delta(lams - 1e-6))
    # phi on the right piece as the solution that vanishes at pi, which
    # stays stable where it decays
    k1, k2 = pieces(lams)
    g, w = np.polynomial.legendre.leggauss(200)
    xl, wl = 0.5 * a * (g + 1.0), 0.5 * a * w
    xr, wr = a + 0.5 * t * (g + 1.0), 0.5 * t * w
    left = np.cos(k1 * xl[:, None]).real
    right = (np.cos(k1 * a) * np.sin(k2 * (np.pi - xr[:, None])) / np.sin(k2 * t)).real
    return wl @ left**2 + alpha**2 * (wr @ right**2)


def _rel(a, b) -> float:
    return float(np.abs(np.asarray(a) / np.asarray(b) - 1.0).max())


def main() -> int:
    if len(sys.argv) == 4 and sys.argv[1] == "--dump":
        sys.stdout.buffer.write(pickle.dumps(_dump(sys.argv[2], int(sys.argv[3]))))
        return 0
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    runs = [pickle.loads(subprocess.run([sys.executable, os.path.abspath(__file__), "--dump",
                                         src, str(scale)],
                                        check=True, capture_output=True).stdout)
            for src, scale in ((sys.argv[1], 1), (sys.argv[2], SCALE))]
    new, ref = runs
    print(f"relative errors of {sys.argv[1]} against {sys.argv[2]} at {SCALE}x its densities")
    print(f"{'(a, alpha)':>16} {'q':>10} {'modes':>5} {'lambda':>9} {'normings':>9}")
    worst = {"lambda": (0.0, None), "normings": (0.0, None)}
    for key, (lams, als) in new.items():
        p, name, n = key
        if key not in ref or name == f"constant {C_DECAYING:g}":
            continue  # scored against the closed form or quadrature below
        errs = {"lambda": _rel(lams, ref[key][0]), "normings": _rel(als, ref[key][1])}
        print(f"{str(p):>16} {name:>10} {n:>5} {errs['lambda']:9.2e} {errs['normings']:9.2e}")
        for k, e in errs.items():
            worst[k] = max(worst[k], (e, key), key=lambda w: w[0])
    failed = False
    for k, (e, key) in worst.items():
        print(f"largest {k} error: {e:.2e} at {key} (limit {LIMITS[k]:g})")
        failed |= not e <= LIMITS[k]
    sys.path.insert(0, PERFBENCH)
    import closed_form

    print(f"relative errors of {sys.argv[1]} against the closed form")
    print(f"{'(a, alpha)':>16} {'q':>12} {'modes':>5} {'lambda':>9} {'normings':>9}")
    worst = {"lambda": (0.0, None), "normings": (0.0, None)}
    for p in PROFILES:
        for name, (c1, c2) in PIECEWISE.items():
            for n in MODES:
                exact = closed_form.spectrum(*p, c1, c2, n)
                errs = {k: _rel(v, e) for k, v, e in zip(worst, new[(p, name, n)], exact)}
                print(f"{str(p):>16} {name:>12} {n:>5} {errs['lambda']:9.2e} "
                      f"{errs['normings']:9.2e}")
                for k, e in errs.items():
                    worst[k] = max(worst[k], (e, (p, name, n)), key=lambda w: w[0])
    for k, (e, key) in worst.items():
        print(f"largest {k} error: {e:.2e} at {key} (limit {PIECEWISE_LIMITS[k]:g})")
        failed |= not e <= PIECEWISE_LIMITS[k]
    for p in DECAYING:
        lams, als = new[(p, f"constant {C_DECAYING:g}", 30)]
        err = np.abs(als / _quadrature_normings(*p, lams) - 1.0)
        print(f"q = {C_DECAYING:g} normings on {p} against quadrature: {err.max():.2e} "
              f"(mode {int(np.argmax(err)) + 1}, limit {DECAYING_LIMIT:g})")
        failed |= not err.max() <= DECAYING_LIMIT
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
