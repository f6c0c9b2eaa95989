"""Span tracing of the slgl layers, installed from outside the package.

``install`` wraps the public functions of every slgl module (and the
``DensityProfile`` / ``KernelSeries`` methods) and rebinds each wrapper
at every import site: ``kernels`` and ``reconstruct`` bind names such as
``phi0`` or ``hat_cos_weights`` directly, so patching only the defining
module would miss those calls.  ``uninstall`` puts the originals back.

Every call records one span: name, start, end, parent span, the id of
the benchmark operation it belongs to, and a small ``info`` value (the
work size of the call, a distinct-argument key, or a failure flag).
Spans stay in memory; ``layer_metrics`` turns the spans of one op into
per-layer counts and self times, and ``write_spans`` writes them out at
the end of a run.  A span's self time is its duration minus the
durations of its direct children (calls are nested and single-threaded).
The time spent computing ``info`` is excluded from the parent's self time.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("density", "baseline", "forward", "kernels", "glm", "reconstruct", "cli")

# class methods traced as part of their module's layer
METHODS = {
    "density": ("DensityProfile", ("rho", "srho", "mu_plus", "mu_minus", "mu_plus_inverse")),
    "kernels": ("KernelSeries", ("f0", "f", "f0_integrated")),
}

# span-name aliases used by the per-layer metrics
SHORT = {
    "kernels.KernelSeries.f0_integrated": "kernels.f0_integrated",
    "kernels.KernelSeries.f": "kernels.f",
    "kernels.KernelSeries.f0": "kernels.f0",
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _phi0_info(args, kwargs):
    profile = _arg(args, kwargs, 0, "profile")
    x = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "x"), dtype=float))
    lam = np.atleast_1d(np.asarray(_arg(args, kwargs, 2, "lam"), dtype=float))
    key = hash((profile.a, profile.alpha, x.tobytes(), lam.tobytes()))
    return (x.size * lam.size, key)


def _hat_info(args, kwargs):
    return int(np.size(_arg(args, kwargs, 0, "xi")) * np.size(_arg(args, kwargs, 1, "lams")))


def _integrate_info(args, kwargs):
    return int(np.size(_arg(args, kwargs, 2, "lams")))


def _eigen_info(args, kwargs):
    return int(_arg(args, kwargs, 2, "n_max"))


def _solve_name(args, kwargs):
    est = args[3] if len(args) > 3 else kwargs.get("estimate_condition", True)
    return "glm.solve_slice.cond" if est else "glm.solve_slice.nocond"


# info computed from the arguments before the call
ARG_INFO = {
    "baseline.phi0": _phi0_info,
    "kernels.hat_cos_weights": _hat_info,
    "forward.integrate_phi": _integrate_info,
    "forward.eigenvalues": _eigen_info,
}
# info computed from the result after the call
RESULT_INFO = {
    "glm.assemble_slice": lambda r: len(r.nodes),
    "reconstruct.reconstruct_full": lambda r: int(r.meta.get("n_modes_used", 0)),
}
DYNAMIC_NAME = {"glm.solve_slice": _solve_name}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        # [op_id, span_id, parent_id, name, start, end, info, info_s]
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._next = 0
        self._installed: list[tuple] = []

    # -- span recording -------------------------------------------------

    def begin(self, name: str) -> int:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self.spans.append([self.op_id, sid, parent, name, time.perf_counter(), 0.0, None, 0.0])
        return len(self.spans) - 1

    def end(self, index: int, info=None, info_s: float = 0.0) -> None:
        rec = self.spans[index]
        rec[5] = time.perf_counter()
        rec[6] = info
        rec[7] = info_s
        self._stack.pop()

    def adopt(self, spans, op_id: int, parent_index: int) -> None:
        """Add spans recorded by a child process under the given op span."""
        parent_sid = self.spans[parent_index][1]
        remap = {}
        for _, sid, _, _, _, _, _, _ in spans:
            remap[sid] = self._next
            self._next += 1
        for _, sid, par, name, t0, t1, info, info_s in spans:
            self.spans.append(
                [op_id, remap[sid], remap.get(par, parent_sid), name, t0, t1, info, info_s]
            )

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn):
        arg_info = ARG_INFO.get(name)
        result_info = RESULT_INFO.get(name)
        namer = DYNAMIC_NAME.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = None
            info_s = 0.0
            if arg_info is not None:
                t = time.perf_counter()
                info = arg_info(args, kwargs)
                info_s = time.perf_counter() - t
            idx = tracer.begin(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx, "failed", info_s)
                raise
            if result_info is not None:
                t = time.perf_counter()
                tracer.end(idx, result_info(result))
                tracer.spans[idx][7] = info_s + time.perf_counter() - t
            else:
                tracer.end(idx, info, info_s)
            return result

        wrapper.__traced_original__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every slgl import site."""
        if self._installed:
            return
        importlib.import_module("slgl")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"slgl.{layer}")
            names = getattr(mod, "__all__", ()) if layer != "cli" else ("main",)
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._installed.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "slgl" or modname.startswith("slgl.")):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and getattr(w, "__traced_original__", None) is val:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> dict:
    """Self time per span id: duration minus its direct children's."""
    child = {}
    for rec in spans:
        par = rec[2]
        child[par] = child.get(par, 0.0) + (rec[5] - rec[4]) + rec[7]
    return {rec[1]: (rec[5] - rec[4]) - child.get(rec[1], 0.0) for rec in spans}


def op_profile(spans) -> dict:
    """Per-name aggregates for the spans of one op.

    Returns {name: {"calls", "self_s", "info": [...], "failed"}} plus the
    op's wall time and its unattributed (root self) time.
    """
    st = self_times(spans)
    agg: dict = {}
    op_s = 0.0
    root_self = 0.0
    for rec in spans:
        name = SHORT.get(rec[3], rec[3])
        if name == "op":
            op_s += rec[5] - rec[4]
            root_self += st[rec[1]]
            continue
        a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "info": [], "failed": 0})
        a["calls"] += 1
        a["self_s"] += st[rec[1]]
        if rec[6] == "failed":
            a["failed"] += 1
        elif rec[6] is not None:
            a["info"].append(rec[6])
    return {"names": agg, "op_s": op_s, "unattributed_s": root_self}


def layer_metrics(profiles: list, bytes_written: list | None = None) -> dict:
    """Per-layer metrics as means per op over the traced ops."""
    n = max(len(profiles), 1)

    def tot(name, key):
        return sum(p["names"].get(name, {}).get(key, 0) for p in profiles)

    def infos(name):
        out = []
        for p in profiles:
            out.extend(p["names"].get(name, {}).get("info", []))
        return out

    op_self = sum(p["op_s"] for p in profiles)
    m = {}
    phi0 = infos("baseline.phi0")
    distinct = sum(
        len({k for _, k in p["names"].get("baseline.phi0", {}).get("info", [])})
        for p in profiles
    )
    calls_phi0 = tot("baseline.phi0", "calls")
    m["baseline.phi0.calls"] = calls_phi0 / n
    m["baseline.phi0.self_s"] = tot("baseline.phi0", "self_s") / n
    m["baseline.phi0.elements"] = sum(e for e, _ in phi0) / n
    m["baseline.phi0.distinct_frac"] = distinct / calls_phi0 if calls_phi0 else 0.0
    m["baseline.baseline_spectrum.self_s"] = tot("baseline.baseline_spectrum", "self_s") / n
    m["baseline.scan_zeros.calls"] = tot("baseline.scan_zeros", "calls") / n
    m["baseline.scan_zeros.retries"] = tot("baseline.scan_zeros", "failed") / n

    lams = sum(infos("forward.integrate_phi"))
    eig = sum(infos("forward.eigenvalues"))
    m["forward.integrate_phi.calls"] = tot("forward.integrate_phi", "calls") / n
    m["forward.integrate_phi.self_s"] = tot("forward.integrate_phi", "self_s") / n
    m["forward.integrate_phi.lams"] = lams / n
    m["forward.lams_per_eigenvalue"] = lams / eig if eig else 0.0
    m["forward.eigenvalues.self_s"] = tot("forward.eigenvalues", "self_s") / n
    m["forward.norming_numbers.self_s"] = tot("forward.norming_numbers", "self_s") / n

    m["kernels.hat_cos_weights.calls"] = tot("kernels.hat_cos_weights", "calls") / n
    m["kernels.hat_cos_weights.self_s"] = tot("kernels.hat_cos_weights", "self_s") / n
    m["kernels.hat_cos_weights.elements"] = sum(infos("kernels.hat_cos_weights")) / n
    m["kernels.f0_integrated.self_s"] = tot("kernels.f0_integrated", "self_s") / n
    m["kernels.f.self_s"] = tot("kernels.f", "self_s") / n
    m["kernels.complete_tail.self_s"] = tot("kernels.complete_tail", "self_s") / n
    used = infos("reconstruct.reconstruct_full")
    m["kernels.modes_used"] = sum(used) / len(used) if used else 0.0

    sizes = [
        len(set(p["names"].get("glm.assemble_slice", {}).get("info", []))) for p in profiles
    ]
    m["glm.assemble_slice.calls"] = tot("glm.assemble_slice", "calls") / n
    m["glm.assemble_slice.self_s"] = tot("glm.assemble_slice", "self_s") / n
    m["glm.assemble_slice.nodes"] = sum(infos("glm.assemble_slice")) / n
    m["glm.assemble_slice.distinct_sizes"] = sum(sizes) / n
    for kind in ("cond", "nocond"):
        m[f"glm.solve_slice.{kind}.calls"] = tot(f"glm.solve_slice.{kind}", "calls") / n
        m[f"glm.solve_slice.{kind}.self_s"] = tot(f"glm.solve_slice.{kind}", "self_s") / n
    m["glm.solve_slice.failed"] = (
        tot("glm.solve_slice.cond", "failed") + tot("glm.solve_slice.nocond", "failed")
    ) / n
    m["glm.slices_per_op"] = m["glm.solve_slice.cond.calls"] + m["glm.solve_slice.nocond.calls"]

    for fn in ("potential_from_kernel", "verification_suite", "reconstruct_full"):
        m[f"reconstruct.{fn}.self_s"] = tot(f"reconstruct.{fn}", "self_s") / n

    dens = [
        name
        for p in profiles
        for name in p["names"]
        if name.startswith("density.")
    ]
    dens = sorted(set(dens))
    m["density.calls"] = sum(tot(d, "calls") for d in dens) / n
    m["density.self_s"] = sum(tot(d, "self_s") for d in dens) / n

    m["cli.main.self_s"] = tot("cli.main", "self_s") / n
    m["cli.bytes_written"] = sum(bytes_written or []) / n

    m["op.traced_s"] = op_self / n
    m["op.unattributed_frac"] = (
        sum(p["unattributed_s"] for p in profiles) / op_self if op_self else 0.0
    )
    for name, key in (
        ("baseline.phi0", "baseline.phi0.self_frac"),
        ("kernels.hat_cos_weights", "kernels.hat_cos_weights.self_frac"),
        ("forward.integrate_phi", "forward.integrate_phi.self_frac"),
    ):
        m[key] = tot(name, "self_s") / op_self if op_self else 0.0
    return m


def top_self(profiles: list, k: int = 12) -> list:
    """The ``k`` names with the most self time, with their share of op time."""
    op_total = sum(p["op_s"] for p in profiles) or 1.0
    tot: dict = {}
    for p in profiles:
        for name, a in p["names"].items():
            tot[name] = tot.get(name, 0.0) + a["self_s"]
    tot["(unattributed)"] = sum(p["unattributed_s"] for p in profiles)
    ranked = sorted(tot.items(), key=lambda kv: -kv[1])[:k]
    return [(name, s / len(profiles), s / op_total) for name, s in ranked]


def write_spans(path: str, spans) -> None:
    """Write spans as gzip CSV: op,span,parent,name,start,end,info."""
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        w = csv.writer(fh)
        w.writerow(["op", "span", "parent", "name", "start_s", "end_s", "info"])
        for op, sid, par, name, t0, t1, info, _ in spans:
            if isinstance(info, (tuple, list)):
                info = info[0]  # phi0: (elements, argument key)
            w.writerow([op, sid, par, name, f"{t0:.9f}", f"{t1:.9f}", "" if info is None else info])
