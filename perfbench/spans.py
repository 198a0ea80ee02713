"""Span recorder that times calls into tauberlab's public functions from outside.

The program itself carries no instrumentation.  ``Tracer.install`` replaces
each public function of the six layer modules with a timing wrapper, in
every ``tauberlab`` module that holds a reference to it (``counterexamples``
imports ``adaptive_quad``, ``laplace_L_log`` and ``green_G`` by name, so
patching only the defining module would miss those calls).  ``semigroup``
also gets counting proxies for its ``numpy.linalg`` and ``scipy.linalg``
handles.  ``Tracer.uninstall`` puts every original back, so untraced passes
run the program exactly as shipped.

Spans are kept in memory as ``[name, start, end, parent, pass_id]`` and
written out once, when the run ends.
"""
from __future__ import annotations

import csv
import functools
import math
import os
import sys
import time
import types
from collections import Counter, defaultdict
from statistics import median

LAYERS = ("cli", "weights", "atoms", "contour", "semigroup", "counterexamples")

CLI_SCENARIOS = (
    "atoms-verify", "contour-kernel", "contour-reconstruct",
    "counterexample-scan", "counterexample-shift", "weights-profile",
    "wave-energy", "wave-sandwich", "wave-cutoff",
)

# every per-layer metric the traced run reports, with its unit; the
# interaction table in README.md says which end-to-end metric each moves
PER_LAYER = (
    ("atoms.green_G.calls", "count"),
    ("atoms.green_G.points", "count"),
    ("atoms.green_G.self_s", "s"),
    ("atoms.laplace_L_log.calls", "count"),
    ("atoms.laplace_L_log.self_s", "s"),
    ("atoms.primitive_N_log.calls", "count"),
    ("atoms.primitive_N_log.self_s", "s"),
    ("atoms.verify_prop52.s", "s"),
    ("atoms.oracle.points", "count"),
    ("atoms.oracle.self_s", "s"),
    ("atoms.oracle.s_per_point", "s"),
    ("atoms.oracle.gap_ok_frac", "frac"),
    ("atoms.roots_identity.calls", "count"),
    ("atoms.roots_identity.self_s", "s"),
    ("contour.adaptive_quad.calls", "count"),
    ("contour.adaptive_quad.evals", "count"),
    ("contour.adaptive_quad.self_s", "s"),
    ("contour.reconstruct_g_adaptive.calls", "count"),
    ("contour.reconstruct_g_adaptive.s", "s"),
    ("contour.reconstruct_g_fixed.calls", "count"),
    ("contour.reconstruct_g_fixed.s", "s"),
    ("contour.fit_adaptive_piece_bounds.s", "s"),
    ("counterexamples.divergence_scan.calls", "count"),
    ("counterexamples.divergence_scan.self_s", "s"),
    ("counterexamples.fit_log_weight_exponent.scans_per_fit", "frac"),
    ("counterexamples.build_counterexample.s", "s"),
    ("counterexamples.shift_semigroup_suite.self_s", "s"),
    ("weights.w_m_log.calls", "count"),
    ("weights.w_m_log.self_s", "s"),
    ("weights.omega_m_contains.calls", "count"),
    ("weights.omega_m_contains.accept_frac", "frac"),
    ("semigroup.resolvent_norm_scan.self_s", "s"),
    ("semigroup.resolvent_norm_scan.shifts", "count"),
    ("semigroup.propagator_inverse_norms.self_s", "s"),
    ("semigroup.propagator_inverse_norms.points", "count"),
    ("semigroup.evolve.self_s", "s"),
    ("semigroup.evolve.steps", "count"),
    ("semigroup.cutoff_transform_check.self_s", "s"),
    ("semigroup.svd.calls", "count"),
    ("semigroup.expm.calls", "count"),
    ("semigroup.linalg.flops_computed", "flop"),
    *((f"cli.run.s.{name}", "s") for name in CLI_SCENARIOS),
    ("cli.write_reports.s", "s"),
    ("cli.csv_bytes", "B"),
    *((f"layer.{name}.self_s", "s") for name in LAYERS),
    ("trace.spans", "count"),
    ("trace.wall_s_untraced", "s"),
    ("trace.wall_s_traced", "s"),
    ("trace.overhead_s", "s"),
)


# ----------------------------------------------------------------------
# computed flop counts for semigroup's dense linear algebra
# ----------------------------------------------------------------------

def _dims(a):
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return None
    return int(shape[-2]), int(shape[-1])


def _cplx(*arrays) -> int:
    return 4 if any(getattr(a, "dtype", None) is not None and a.dtype.kind == "c"
                    for a in arrays) else 1


def _svd_flops(a, with_uv: bool) -> float:
    m, n = _dims(a)
    hi, lo = max(m, n), min(m, n)
    if with_uv:
        return _cplx(a) * (4.0 * hi * hi * lo + 8.0 * hi * lo * lo + 9.0 * lo ** 3)
    return _cplx(a) * (4.0 * hi * lo * lo - 4.0 * lo ** 3 / 3.0)


def _rhs_cols(b) -> int:
    shape = getattr(b, "shape", ())
    return int(shape[-1]) if len(shape) >= 2 else 1


class _Proxy:
    """Module stand-in: the given overrides, everything else forwarded."""

    def __init__(self, real, overrides: dict):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------

class Tracer:
    """In-memory span and counter store plus the patching that feeds it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.pass_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        self.counters[self.pass_id][key] += value

    def _wrap(self, fn, name, namer=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, rec[0], args, kwargs, out)
            return out

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public module-level function of the layer modules,
        in every tauberlab module that refers to it."""
        mods = {name: sys.modules[f"tauberlab.{name}"] for name in LAYERS
                if f"tauberlab.{name}" in sys.modules}
        replace = {}
        for layer, mod in mods.items():
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not isinstance(fn, types.FunctionType) \
                        or fn.__module__ != mod.__name__:
                    continue
                namer, after = _HOOKS.get(f"{layer}.{fname}", (None, None))
                replace[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fname}",
                                                  namer, after))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("tauberlab"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        sg = mods.get("semigroup")
        if sg is not None:
            for attr, proxy in (("np", self._numpy_proxy(sg.np)),
                                ("sla", self._scipy_proxy(sg.sla))):
                self._patches.append((sg, attr, getattr(sg, attr)))
                setattr(sg, attr, proxy)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    def _counted(self, fn, flops, key=None):
        """fn, adding its computed flops (and a call to key, if given)."""
        def counted(*args, **kwargs):
            n = flops(*args, **kwargs)
            if n is not None:
                if key:
                    self.count(f"{key}.calls")
                self.count("semigroup.linalg.flops_computed", n)
            return fn(*args, **kwargs)
        return counted

    def _numpy_proxy(self, np_mod):
        la = np_mod.linalg

        def norm_flops(x, ord=None, *a, **k):
            return _svd_flops(x, False) if ord == 2 and _dims(x) else None

        def square(coeff):
            return lambda a, *r, **k: coeff * _cplx(a) * _dims(a)[0] ** 3

        def svd_flops(a, *r, **k):
            return _svd_flops(a, k.get("compute_uv", r[1] if len(r) > 1 else True))

        def solve_flops(a, b, *r, **k):
            n = _dims(a)[0]
            return _cplx(a, b) * (2.0 * n ** 3 / 3.0 + 2.0 * n * n * _rhs_cols(b))

        linalg = _Proxy(la, {
            "svd": self._counted(la.svd, svd_flops, "semigroup.svd"),
            # a matrix 2-norm is the largest singular value: counted as an SVD
            "norm": self._counted(la.norm, norm_flops, "semigroup.svd"),
            "solve": self._counted(la.solve, solve_flops),
            "inv": self._counted(la.inv, square(2.0)),
            "eigvals": self._counted(la.eigvals, square(10.0)),
            "eigh": self._counted(la.eigh, square(9.0)),
            "cholesky": self._counted(la.cholesky, square(1.0 / 3.0)),
        })
        return _Proxy(np_mod, {"linalg": linalg})

    def _scipy_proxy(self, sla):
        def expm_flops(a, *r, **k):
            n = _dims(a)[0]
            one_norm = float(abs(a).sum(axis=0).max()) if n else 0.0
            squarings = max(0, math.ceil(math.log2(one_norm / 5.4))) if one_norm > 0 else 0
            return _cplx(a) * (2.0 * (6 + squarings) + 8.0 / 3.0) * n ** 3

        def triangular_flops(a, b, *r, **k):
            return _cplx(a, b) * _dims(a)[0] ** 2 * _rhs_cols(b)

        return _Proxy(sla, {
            "expm": self._counted(sla.expm, expm_flops, "semigroup.expm"),
            "solve_triangular": self._counted(sla.solve_triangular, triangular_flops),
        })

    # -- output ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "pass_id"])
            for i, (name, start, end, parent, pid) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, pid])

    def layer_metrics(self, traced_passes, wall_untraced, wall_traced,
                      overhead) -> dict:
        """Every PER_LAYER metric: the median over traced passes of its
        per-pass value (counts repeat exactly from pass to pass).  The
        overhead is the median traced-minus-untraced gap of adjacent passes."""
        selfs = self.self_times()
        per_pass = {pid: Counter() for pid in traced_passes}
        for (name, start, end, parent, pid), own in zip(self.spans, selfs):
            acc = per_pass.get(pid)
            if acc is None:
                continue
            acc[f"{name}.calls"] += 1
            acc[f"{name}.s"] += end - start
            acc[f"{name}.self_s"] += own
            acc[f"layer.{name.split('.', 1)[0]}.self_s"] += own
            acc["trace.spans"] += 1
            if name == "counterexamples.divergence_scan" and parent >= 0 \
                    and self.spans[parent][0] == "counterexamples.fit_log_weight_exponent":
                acc["fit.scans"] += 1
        for pid, acc in per_pass.items():
            acc.update(self.counters.get(pid, Counter()))
            acc["atoms.oracle.s_per_point"] = (
                acc["atoms.oracle.self_s"] / acc["atoms.oracle.points"]
                if acc["atoms.oracle.points"] else 0.0)
            acc["atoms.oracle.gap_ok_frac"] = (
                acc["oracle.gap_ok"] / acc["atoms.oracle.points"]
                if acc["atoms.oracle.points"] else 0.0)
            acc["counterexamples.fit_log_weight_exponent.scans_per_fit"] = (
                acc["fit.useful"] / acc["fit.scans"] if acc["fit.scans"] else 0.0)
            acc["weights.omega_m_contains.accept_frac"] = (
                acc["omega.accepted"] / acc["weights.omega_m_contains.calls"]
                if acc["weights.omega_m_contains.calls"] else 0.0)
            for name in CLI_SCENARIOS:
                acc[f"cli.run.s.{name}"] = acc[f"cli.run.{name}.s"]
        out = {}
        for name, unit in PER_LAYER:
            vals = [acc[name] for acc in per_pass.values()]
            out[name] = {"value": float(median(vals)) if vals else 0.0, "unit": unit}
        out["trace.wall_s_untraced"]["value"] = wall_untraced
        out["trace.wall_s_traced"]["value"] = wall_traced
        out["trace.overhead_s"]["value"] = overhead
        return out


# ----------------------------------------------------------------------
# per-function span names and counters
# ----------------------------------------------------------------------

def _t_size(t) -> int:
    if isinstance(t, (list, tuple)):
        return len(t)
    return int(getattr(t, "size", 1))


def _atoms_namer(fname, pos):
    """Calls with backend="oracle" are one span kind: the mpmath route."""
    def namer(args, kwargs):
        backend = kwargs.get("backend", args[pos] if len(args) > pos else "series")
        return "atoms.oracle" if backend == "oracle" else f"atoms.{fname}"
    return namer


def _count_points(tr, name, args, kwargs, out):
    t = args[1] if len(args) > 1 else kwargs["t"]
    if name == "atoms.oracle":
        tr.count("atoms.oracle.points", _t_size(t))
    elif name == "atoms.green_G":
        tr.count("atoms.green_G.points", _t_size(t))


def _scenario_namer(args, kwargs):
    sc = args[0] if args else kwargs["scenario"]
    return f"cli.run.{sc.command}-{sc.action}"


def _after_write(tr, name, args, kwargs, out):
    tr.count("cli.csv_bytes", sum(os.path.getsize(p) for p in out if p.endswith(".csv")))


def _after_quad(tr, name, args, kwargs, out):
    tr.count("contour.adaptive_quad.evals", out[2])


def _after_omega(tr, name, args, kwargs, out):
    if out:
        tr.count("omega.accepted")


def _after_fit(tr, name, args, kwargs, out):
    tr.count("fit.useful")


def _grid_len(key, pos, suffix, minus=0):
    def after(tr, name, args, kwargs, out):
        grid = args[pos] if len(args) > pos else kwargs[key]
        tr.count(f"{name}.{suffix}", max(0, _t_size(grid) - minus))
    return after


_HOOKS = {
    "cli.run": (_scenario_namer, None),
    "cli.write_reports": (None, _after_write),
    "atoms.laplace_L": (_atoms_namer("laplace_L", 2), _count_points),
    "atoms.primitive_N": (_atoms_namer("primitive_N", 2), _count_points),
    "atoms.green_G": (_atoms_namer("green_G", 3), _count_points),
    "contour.adaptive_quad": (None, _after_quad),
    "weights.omega_m_contains": (None, _after_omega),
    "counterexamples.fit_log_weight_exponent": (None, _after_fit),
    "semigroup.resolvent_norm_scan": (None, _grid_len("s_grid", 1, "shifts")),
    "semigroup.propagator_inverse_norms": (None, _grid_len("t_grid", 1, "points")),
    "semigroup.evolve": (None, _grid_len("t_grid", 2, "steps", minus=1)),
}
