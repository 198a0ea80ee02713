"""Batch front door: scenario configs in, CSV/JSON verdict reports out.

Grammar
-------
::

    tauberlab <command> <action> [--flag value ...]
    tauberlab run --config FILE [--out-dir DIR]
    tauberlab list-suites

Commands and actions: ``weights profile``; ``atoms verify``; ``contour
kernel``, ``contour reconstruct``; ``wave energy``, ``wave sandwich``,
``wave cutoff``; ``counterexample scan``, ``counterexample shift``.

Config files are line-oriented ``key = value`` with ``[section]`` headers
and ``#`` comments.  A ``[scenario]`` section holds ``command``,
``action`` and optionally ``out-dir``; a ``[params]`` section holds the
action's typed parameters under the same names as the CLI flags.  Unknown
keys are rejected by name.

Every run writes one CSV per data series plus one JSON summary.  CSV:
RFC-4180-style with CRLF rows, '.' decimal, floats at 17 significant
digits, and the column schema versioned in a leading ``# schema=``
comment line.  JSON: stable key order, holding the scenario echo, fitted
constants, worst residuals, per-invariant verdicts and wall time.

Exit codes: 0 all invariants pass; 1 an invariant failed (the report is
still written); 2 usage or config error.  ``ACTIONS`` declares each
scenario once: handler, typed parameters, cross-key rules, emitted suites.
``--help`` prints each parameter's bound; a value outside it, an inf or nan
float or span end, or a broken cross-key rule, exits 2 naming the key,
before any work.

Determinism: two runs of the same scenario at the same BLAS thread count
produce byte-identical CSV bodies -- fixed summation orders, explicit
seeds, wall time only in JSON.  The thread count is the environment's:
OpenBLAS reads OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS) when it loads, so
set them before the run starts.  A different thread count may split BLAS
sums differently and move the last digits (about 1e-12 relative).
"""
from __future__ import annotations

import argparse
import cmath
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

SCHEMA_VERSION = 1

# ----------------------------------------------------------------------
# scenario: the full, serializable description of one run
# ----------------------------------------------------------------------

def _parse_int_list(s: str) -> tuple:
    try:
        return tuple(int(x) for x in str(s).split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {s!r}")


def _parse_span(s: str) -> tuple:
    parts = str(s).split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {s!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise ValueError(f"span needs lo < hi, got {s!r}")
    return (lo, hi)


_COERCE = {
    "float": float,
    "int": int,
    "str": str,
    "int_list": _parse_int_list,
    "span": _parse_span,
}


@dataclass(frozen=True)
class Param:
    typ: str
    default: object
    help: str
    choices: tuple = ()
    above: float | None = None  # the value must exceed it


@dataclass(frozen=True)
class Action:
    """One scenario, declared once in ACTIONS."""

    handler: Callable
    params: dict  # key -> Param; unknown keys are rejected
    # (keys read, test over their values, message over their values),
    # checked once every default is filled in
    rules: tuple = ()
    suites: tuple = ()  # (name, anchor line) of each verdict suite emitted


# the contour kernel grid's first point after t = 0
KERNEL_T_FIRST = 1e-2


@dataclass
class Scenario:
    command: str
    action: str
    params: dict
    out_dir: str = "."


@dataclass
class Series:
    name: str
    header: list
    rows: list


@dataclass
class RunResult:
    series: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    passed: dict = field(default_factory=dict)
    suites: list = field(default_factory=list)  # emitted suite names; not reported

    def verdict(self, suite: str, passed: bool, key: str | None = None):
        """File a named suite's verdict under key (default: the suite's
        name) and record the suite as emitted."""
        self.passed[suite if key is None else key] = passed
        self.suites.append(suite)

    def add(self, report, key: str | None = None):
        """File a FitReport's constants, residual and verdict under key
        (default: the report's name)."""
        key = report.name if key is None else key
        self.constants[key] = dict(report.constants)
        self.residuals[key] = report.worst_residual
        self.verdict(report.name, report.passed, key)


class ScenarioError(ValueError):
    """Config/usage problem: maps to exit code 2."""


def _coerce_params(command: str, action: str, raw: dict) -> dict:
    declared = ACTIONS.get((command, action))
    if declared is None:
        raise ScenarioError(f"unknown scenario {command!r} {action!r}")
    table = declared.params
    out = {}
    for key, value in raw.items():
        spec = table.get(key)
        if spec is None:
            raise ScenarioError(
                f"unknown parameter key {key!r} for {command} {action}")
        if isinstance(value, str):
            try:
                value = _COERCE[spec.typ](value)
            except ValueError as exc:
                raise ScenarioError(f"bad value for key {key!r}: {exc}") from exc
        if spec.typ in ("float", "span") and not all(
                map(math.isfinite, value if spec.typ == "span" else (value,))):
            raise ScenarioError(f"key {key!r} must be finite, got {value!r}")
        if spec.choices and value not in spec.choices:
            raise ScenarioError(
                f"key {key!r} must be one of {spec.choices}, got {value!r}")
        if spec.above is not None and not value > spec.above:
            raise ScenarioError(
                f"key {key!r} must exceed {spec.above:g}, got {value!r}")
        out[key] = value
    for key, spec in table.items():
        out.setdefault(key, spec.default)
    for keys, holds, message in declared.rules:
        values = [out[key] for key in keys]
        if not holds(*values):
            raise ScenarioError(message.format(*values))
    return out


# ----------------------------------------------------------------------
# config files: line-oriented key = value under [section] headers
# ----------------------------------------------------------------------

def parse_config(text: str) -> Scenario:
    section = None
    fields: dict[str, dict] = {"scenario": {}, "params": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in fields:
                raise ScenarioError(
                    f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ScenarioError(f"line {lineno}: key before any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ScenarioError(f"line {lineno}: empty key")
        if key in fields[section]:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        fields[section][key] = value

    meta = fields["scenario"]
    known = {"command", "action", "out-dir"}
    for key in meta:
        if key not in known:
            raise ScenarioError(f"unknown scenario key {key!r}")
    for required in ("command", "action"):
        if required not in meta:
            raise ScenarioError(f"config is missing scenario key {required!r}")
    return Scenario(
        command=meta["command"],
        action=meta["action"],
        params=_coerce_params(meta["command"], meta["action"], fields["params"]),
        out_dir=meta.get("out-dir", "."),
    )


# ----------------------------------------------------------------------
# report writers
# ----------------------------------------------------------------------

def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".16e")
    return str(v)


def _write_csv(path: str, scenario: Scenario, series: Series) -> None:
    buf = io.StringIO()
    buf.write(f"# schema=tauberlab.{scenario.command}.{scenario.action}."
              f"{series.name}.v{SCHEMA_VERSION}\r\n")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(series.header)
    for row in series.rows:
        writer.writerow([_format_cell(v) for v in row])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)  # JSON has no inf/nan
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        v = v.item()
    return v


def write_reports(scenario: Scenario, result: RunResult,
                  wall_time: float) -> list[str]:
    os.makedirs(scenario.out_dir, exist_ok=True)
    stem = f"{scenario.command}-{scenario.action}"
    written = []
    for series in result.series:
        path = os.path.join(scenario.out_dir, f"{stem}-{series.name}.csv")
        _write_csv(path, scenario, series)
        written.append(path)
    summary = {
        "scenario": _jsonable(asdict(scenario)),
        "constants": _jsonable(result.constants),
        "residuals": _jsonable(result.residuals),
        "passed": result.passed,
        "ok": all(result.passed.values()),
        "wall_time_s": wall_time,
    }
    path = os.path.join(scenario.out_dir, f"{stem}-summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    written.append(path)
    return written


# ----------------------------------------------------------------------
# handlers (heavy imports stay inside: each scenario loads only its layers)
# ----------------------------------------------------------------------

def _rate_function(params):
    from tauberlab import weights as wg
    family = params["family"]
    if family == "constant":
        return wg.ConstantRate(params["c0"])
    if family == "power":
        return wg.PowerRate(params["kappa"], params["alpha"])
    if family == "log":
        return wg.LogRate(params["alpha"])
    return wg.AffineRate(params["base"], params["slope"])


def _h_weights_profile(params) -> RunResult:
    import numpy as np
    from tauberlab import weights as wg

    M = _rate_function(params)
    ts = np.geomspace(params["t-min"], params["t-max"], params["points"])
    rows = list(zip(ts.tolist(), np.asarray(M(ts), dtype=float).tolist(),
                    wg.m_log_eval(M, ts).tolist(), wg.w_m_log(M, ts).tolist()))
    res = RunResult(series=[Series("profile", ["t", "m", "m_log", "w"], rows)])

    res.add(wg.check_growth_bounds(M), "growth")
    if params["tail-alpha"] > 0:  # and so tail-beta (ACTIONS rule)
        tail, increments = wg.weighted_tail_convergence(
            M, params["tail-alpha"], params["tail-beta"])
        res.add(tail, "tail")
        res.series.append(Series(
            "tail", ["block", "partial", "increment"],
            [(j, p, i) for j, (p, i) in
             enumerate(zip(itertools.accumulate(increments), increments))]))
    return res


def _h_atoms_verify(params) -> RunResult:
    from tauberlab import atoms as at

    beta = params["beta"] if params["variant"] == "power" else None
    fam = at.build_family(params["variant"], params["k"], params["alpha"],
                          beta=beta)
    t = at.default_t_grid(fam)
    zs = at.default_z_samples(fam, n=params["z-count"], seed=params["seed"])
    ln_log = (at.laplace_L_log(fam, t), at.primitive_N_log(fam, t))
    reports = at.verify_prop52(fam, t_grid=t, z_samples=zs, ln_log=ln_log)

    rows = list(zip(t.tolist(), ln_log[0][0].tolist(), ln_log[1][0].tolist()))
    res = RunResult(series=[Series("envelopes",
                                   ["t", "log_abs_L", "log_abs_N"], rows)])
    for rep in reports:
        res.add(rep)
    return res


def _h_contour_kernel(params) -> RunResult:
    import numpy as np
    from tauberlab import contour as ct

    ts = np.r_[0.0, np.geomspace(KERNEL_T_FIRST, params["t-max"],
                                 params["points"] - 1)]
    rows = []
    worst = -math.inf
    for t in ts:
        integral, bound = ct.lemma31_check(float(t))
        rows.append((float(t), integral, bound))
        worst = max(worst, integral - bound)
    t0_err = abs(rows[0][1] - 2.0)
    res = RunResult(series=[Series("kernel", ["t", "integral", "bound"], rows)])
    res.residuals = {"cap_gap": worst, "t0_error": t0_err}
    res.verdict("lemma31", worst <= 1e-9)
    res.passed["t0_exact"] = t0_err <= 1e-12
    return res


def _h_contour_reconstruct(params) -> RunResult:
    import numpy as np
    from tauberlab import atoms as at
    from tauberlab import contour as ct
    from tauberlab import weights as wg

    target = params["target"]
    if target == "exp":
        tp = ct.exp_decay_pair()
        truth = lambda t: complex(math.exp(-t))
        M = wg.ConstantRate(2.0)
    elif target == "rational":
        poles = (-1.0 + 2.0j, -1.0 - 2.0j, -3.0 + 0.0j)
        coeffs = (1.0 + 0.0j, 1.0 + 0.0j, 2.0 + 0.0j)
        tp = ct.rational_pair(poles, coeffs)
        truth = lambda t: sum(-c / p * cmath.exp(p * t)
                              for c, p in zip(coeffs, poles))
        M = wg.ConstantRate(2.0)
    else:
        fam = at.build_family("power", params["atom-k"], params["atom-alpha"],
                              beta=params["atom-beta"])
        tp = ct.transform_pair_from_family(fam)
        truth = lambda t: -at.primitive_N(fam, t)
        M = fam.matching_rate()

    ts = np.geomspace(params["t-min"], params["t-max"], params["points"])
    res = RunResult()
    if params["mode"] == "fixed":
        spec1 = ct.ContourSpec(R=params["radius1"], n=params["reg-n"])
        spec2 = ct.ContourSpec(R=params["radius2"], n=params["reg-n"])
        rows, worst_err, worst_agree = [], 0.0, 0.0
        for t in ts:
            g1, _ = ct.reconstruct_g_fixed(tp, spec1, float(t))
            g2, _ = ct.reconstruct_g_fixed(tp, spec2, float(t))
            ref = complex(truth(float(t)))
            err1, err2 = abs(g1 - ref), abs(g2 - ref)
            agree = abs(g1 - g2)
            worst_err = max(worst_err, err1, err2)
            worst_agree = max(worst_agree, agree)
            rows.append((float(t), g1.real, g1.imag, g2.real, g2.imag,
                         ref.real, ref.imag, err1, err2, agree))
        res.series.append(Series(
            "reconstruction",
            ["t", "recon_r1_re", "recon_r1_im", "recon_r2_re", "recon_r2_im",
             "truth_re", "truth_im", "err_r1", "err_r2", "agree"], rows))
        res.residuals = {"worst_error": worst_err, "worst_agree": worst_agree}
        res.passed = {"error": worst_err <= 1e-6,
                      "two_radius_agreement": worst_agree <= 1e-8}
    else:
        # an inadmissible schedule is a usage error before any contour runs
        ct.check_piece_schedule(params["k-scale"], params["reg-n"],
                                params["growth-alpha"], params["growth-beta"],
                                params["p"])
        rows, norms, worst_err = [], [], 0.0
        for t in ts:
            g, (j1, j2, i3, i4) = ct.reconstruct_g_adaptive(
                tp, M, params["k-scale"], params["reg-n"], float(t))
            ref = complex(truth(float(t)))
            err = abs(g - ref)
            worst_err = max(worst_err, err)
            norms.append((j1, j2, i3, i4))
            rows.append((float(t), g.real, g.imag, ref.real, ref.imag, err,
                         j1, j2, i3, i4))
        res.series.append(Series(
            "reconstruction",
            ["t", "recon_re", "recon_im", "truth_re", "truth_im", "err",
             "j1_right_arc", "j2_left_arc", "i3_stubs", "i4_boundary"], rows))
        res.residuals["worst_error"] = worst_err
        res.passed["error"] = worst_err <= 1e-6
        for fit in ct.fit_adaptive_piece_bounds(
                M, params["k-scale"], params["reg-n"], ts, norms,
                params["growth-alpha"], params["growth-beta"], p=params["p"]):
            res.add(fit)
    return res


def _wave_system(params, bc="dirichlet"):
    """The damped wave on [0, 1] with the n, damping and height of params."""
    import numpy as np
    from tauberlab import semigroup as sg

    n, kind = params["n"], params["damping"]
    if kind == "localized":
        a = sg.localized_bump_damping(n, height=params["height"])
    elif kind == "constant":
        a = np.full(n, params["height"])
    else:
        a = np.zeros(n)
    return sg.assemble_damped_wave(n, 1.0, a, bc=bc)


def _h_wave_energy(params) -> RunResult:
    import numpy as np
    from tauberlab import semigroup as sg

    n = params["n"]
    sys_ = _wave_system(params, params["bc"])
    if params["bc"] == "periodic":
        # whole periods over the n points: the periodic extension is smooth,
        # where sin(mode pi x) would kink at the seam
        u0 = np.sin(2.0 * math.pi * params["mode"] * np.arange(1, n + 1) / n)
    else:
        u0 = np.sin(params["mode"] * math.pi * (np.arange(1, n + 1) / (n + 1)))
    x0 = np.concatenate([u0, np.zeros(n)])
    steps = int(round(params["t-max"] / params["dt"]))  # >= 4 (ACTIONS rule)
    t = np.linspace(0.0, params["t-max"], steps + 1)
    traj = sg.evolve(sys_, x0, t)
    energies = traj.energies
    residual = sg.energy_derivative_check(traj)
    e0 = float(energies[0])
    # one float64 row per step; np.float64 formats as float does
    rows = np.column_stack([t, energies, traj.dissipations])
    res = RunResult(series=[Series("energy", ["t", "energy", "dissipation"],
                                   rows)])
    res.constants = {"initial_energy": e0, "threshold": 1e-6 * e0}
    res.residuals = {"derivative_identity": residual}
    res.passed = {
        "derivative_identity": residual <= 1e-6 * e0,
        "nonincreasing": bool(np.all(np.diff(energies) <= sg.ENERGY_TOL * e0)),
    }
    return res


def _h_wave_sandwich(params) -> RunResult:
    import numpy as np
    from tauberlab import semigroup as sg

    t = np.linspace(params["t-min"], params["t-max"], params["points"])
    sys_ = _wave_system(params)
    norms = sg.propagator_inverse_norms(sys_, t)
    scan = sg.resolvent_sup_scan(
        sys_, np.linspace(0.0, params["scan-max"], params["scan-points"]))
    rep = sg.rate_sandwich_check(norms, scan, t0=params["t0"])
    res = RunResult(series=[
        Series("decay", ["t", "norm"],
               list(zip(t.tolist(), norms.values.tolist()))),
        Series("scan", ["s", "resolvent_sup"],
               list(zip(scan.grid.tolist(), scan.values.tolist()))),
    ])
    res.add(rep)
    return res


def _h_wave_cutoff(params) -> RunResult:
    import numpy as np
    from tauberlab import semigroup as sg

    n = params["n"]
    sys_ = _wave_system(params)
    grid = np.arange(1, n + 1) / (n + 1)

    def cutoff(lo, hi):
        d = ((grid >= lo) & (grid < hi)).astype(float)
        return np.diag(np.concatenate([d, d]))

    t1 = cutoff(*params["window1"])
    t2 = cutoff(*params["window2"])
    rng = np.random.default_rng(params["seed"])
    x = rng.standard_normal(2 * n)
    x /= math.sqrt(sys_.energy(x))

    omega = params["omega"]
    lams = []
    while len(lams) < params["lambdas"]:  # stay away from the shift itself
        cand = complex(rng.uniform(0.2, 2.0), rng.uniform(-3.0, 3.0))
        if abs(cand - omega) > 0.3:
            lams.append(cand)
    out = sg.cutoff_transform_check(
        sys_, t1, t2, x, omega, np.array(lams),
        t_grid=np.linspace(0.0, params["t-max"], params["t-points"]),
        T=params["horizon"])

    dec = out["decay_series"]
    res = RunResult(series=[
        Series("decay", ["t", "cutoff_norm"],
               list(zip(dec.grid.tolist(), dec.values.tolist()))),
        Series("identity", ["lambda_re", "lambda_im", "residual"],
               [(l.real, l.imag, float(r))
                for l, r in zip(lams, out["identity_residuals"])]),
    ])
    res.residuals["identity"] = float(max(out["identity_residuals"]))
    res.passed["identity"] = bool(out["identity_ok"])
    for p_idx, (lhs, rhs, ok) in out["minkowski"].items():
        key = f"minkowski_p{p_idx:g}"
        res.constants[key] = {"lhs": lhs, "rhs": rhs}
        res.passed[key] = bool(ok)
    return res


def _h_cx_scan(params) -> RunResult:
    import numpy as np
    from tauberlab import counterexamples as cx

    if params["variant"] == "power":
        spec = cx.build_counterexample("power", params["alpha"], params["p"],
                                       params["blocks"],
                                       gamma_log=cx.inverse_log_weight)
    else:
        spec = cx.build_counterexample("log", params["alpha"], params["p"],
                                       params["blocks"])
        if params["gamma-exp"] > 0:
            spec.gamma_exp = params["gamma-exp"]
        else:
            cx.fit_log_weight_exponent(spec)
    reports = cx.divergence_scan(spec, nodes=params["nodes"])
    rows = [(r.n, r.log_k, r.t_lo, r.t_hi, r.min_log_abs_g, r.floor_log,
             r.contribution_log, r.analytic_bound_log, r.passed, r.notes)
            for r in reports]
    res = RunResult(series=[Series(
        "windows",
        ["n", "log_k", "t_lo", "t_hi", "min_log_abs_g", "floor_log",
         "contribution_log", "analytic_bound_log", "passed", "notes"], rows)])
    res.constants = {"c1": spec.c1, "c2": spec.c2, "rho": spec.rho,
                     "e_factor": spec.e_factor, "gamma_exp": spec.gamma_exp}
    res.residuals = {"worst_floor_gap": float(min(
        r.min_log_abs_g - r.floor_log for r in reports))}
    res.passed = {"window_floors": all(r.passed for r in reports),
                  "contributions_increasing": cx.contributions_increase(reports)}
    return res


def _h_cx_shift(params) -> RunResult:
    from tauberlab import counterexamples as cx

    ks = params["k"]
    reports = cx.shift_semigroup_suite(params["alpha"], params["p"],
                                       k_list=ks, n_lambda=params["n-lambda"],
                                       seed=params["seed"])
    per_k = len(reports) // len(ks)
    rows = []
    res = RunResult()
    for i, rep in enumerate(reports):
        k = ks[i // per_k]
        res.add(rep, f"k{k}.{rep.name}")
        for cname, cval in rep.constants.items():
            rows.append((k, rep.name, cname, float(cval)))
    res.series.append(Series("constants", ["k", "suite", "constant", "value"],
                             rows))
    return res


_T_SPAN = (("t-max", "t-min"), lambda hi, lo: hi > lo,
           "key 't-max' ({0:g}) must exceed key 't-min' ({1:g})")

# every scenario, declared once
ACTIONS: dict[tuple, Action] = {
    ("weights", "profile"): Action(_h_weights_profile, {
        "family": Param("str", "power", "rate-bound family",
                        ("constant", "power", "log", "affine")),
        "c0": Param("float", 2.0, "constant family level", above=0),
        "kappa": Param("float", 1.0, "power family coefficient"),
        "alpha": Param("float", 1.0, "power/log family exponent"),
        "base": Param("float", 2.0, "affine family intercept"),
        "slope": Param("float", 1.0, "affine family slope"),
        "t-min": Param("float", 1.0, "grid start", above=0),
        "t-max": Param("float", 1e4, "grid end"),
        "points": Param("int", 200, "geometric grid size", above=0),
        "tail-alpha": Param("float", 0.0, "tail-integral weight exponent (0 = skip)"),
        "tail-beta": Param("float", 0.0, "tail-integral rate exponent (0 = skip)"),
    }, rules=(
        _T_SPAN,
        # the tail ladder needs both exponents; one alone would be dropped
        (("tail-alpha", "tail-beta"), lambda a, b: (a > 0) == (b > 0),
         "key 'tail-alpha' ({0:g}) and key 'tail-beta' ({1:g}) must both "
         "exceed 0 (tail ladder) or neither (no ladder)"),
    ), suites=(
        ("growth-of-M-along-weight",
         "M(w(t)) between c t/log t and C t/log t (c for power rates only)"),
        ("weighted-tail-ladder", "weighted tail integral dyadic decay ladder"),
    )),
    ("atoms", "verify"): Action(_h_atoms_verify, {
        "variant": Param("str", "power", "profile family", ("power", "log")),
        "alpha": Param("float", 2.0, "envelope exponent"),
        "beta": Param("float", 2.0, "power-variant second exponent"),
        "k": Param("int", 20, "atom order"),
        "seed": Param("int", 7, "spectral sample seed"),
        "z-count": Param("int", 24, "spectral samples per verification"),
    }, suites=(
        ("X3", "atom time-profile bump upper envelope"),
        ("XQ4", "atom transform box bound over the admissible spectral region"),
        ("X5", "atom primitive floor on the sqrt(k) window"),
        ("X6", "atom primitive gaussian bump plus pure-tail envelope"),
        ("Y1", "log-profile time upper envelope, stretched-exponential decay"),
        ("Y2", "log-profile transform box bound"),
        ("Y3", "log-profile primitive window floor, stretched-exponential scale"),
        ("Y4", "log-profile primitive pure-tail envelope"),
    )),
    ("contour", "kernel"): Action(_h_contour_kernel, {
        "t-max": Param("float", 1e3, "log-grid end", above=KERNEL_T_FIRST),
        # t = 0 alone would check only the exact value there, not the cap
        "points": Param("int", 60, "grid size including t = 0", above=1),
    }, suites=(
        ("lemma31", "resolvent kernel integral capped by min(2, pi^2/(2 t^2))"),
    )),
    ("contour", "reconstruct"): Action(_h_contour_reconstruct, {
        "target": Param("str", "exp", "transform pair", ("exp", "rational", "atom")),
        "mode": Param("str", "fixed", "contour mode", ("fixed", "adaptive")),
        "t-min": Param("float", 0.5, "grid start", above=0),
        "t-max": Param("float", 5.0, "grid end"),
        "points": Param("int", 10, "geometric grid size", above=0),
        "radius1": Param("float", 8.0, "first fixed-contour radius"),
        "radius2": Param("float", 16.0, "second fixed-contour radius"),
        "reg-n": Param("int", 2, "regularization power"),
        "k-scale": Param("float", 0.05, "adaptive radius schedule slope"),
        "growth-alpha": Param("float", 1.0, "declared transform growth exponent"),
        "growth-beta": Param("float", 1.0, "declared transform rate exponent"),
        "p": Param("float", 2.0, "norm index for the piece-shape fit", above=0),
        "atom-k": Param("int", 10, "atom order (target=atom)"),
        "atom-alpha": Param("float", 2.0, "atom family alpha (target=atom)"),
        "atom-beta": Param("float", 2.0, "atom family beta (target=atom)"),
    }, rules=(
        _T_SPAN,
        # the adaptive piece fit needs more than one t to fit a shape
        (("points", "mode"), lambda n, mode: n > 1 or mode != "adaptive",
         "key 'points' ({0}) must exceed 1 when key 'mode' is {1!r}"),
    ), suites=(
        ("i3est", "adaptive contour stub-piece norm against its predicted shape"),
        ("i4est1", "adaptive contour boundary-piece norm against its predicted shape"),
    )),
    ("wave", "energy"): Action(_h_wave_energy, {
        "n": Param("int", 400, "interior grid size"),
        "damping": Param("str", "localized", "damping profile",
                         ("localized", "constant", "none")),
        "height": Param("float", 1.0, "damping amplitude"),
        "bc": Param("str", "dirichlet", "boundary condition",
                    ("dirichlet", "periodic")),
        "mode": Param("int", 1, "initial sine mode", above=0),
        "t-max": Param("float", 4.0, "horizon", above=0),
        "dt": Param("float", 1e-3, "output step", above=0),
    }, rules=(
        # the energy identity's 4th-order stencil reads 5 samples, so the
        # grid needs round(t-max/dt) >= 4 steps
        (("t-max", "dt"), lambda hi, dt: round(hi / dt) >= 4,
         "key 't-max' ({0:g}) must span at least 4 steps of key 'dt' "
         "({1:g})"),
        # the initial state samples sin(mode pi j/(n+1)) (dirichlet) or
        # sin(2 pi mode j/n) (periodic), j = 1..n; it vanishes at every grid
        # point when n + 1 divides the mode, or n divides twice the mode
        (("mode", "n", "bc"),
         lambda mode, n, bc: (2 * mode % n if bc == "periodic"
                              else mode % (n + 1)) != 0,
         "key 'mode' ({0}) puts every point of key 'n' ({1}) on a zero of "
         "the initial sine under key 'bc' {2!r}"),
    )),
    ("wave", "sandwich"): Action(_h_wave_sandwich, {
        "n": Param("int", 400, "interior grid size"),
        "damping": Param("str", "localized", "damping profile",
                         ("localized", "constant")),
        "height": Param("float", 1.0, "damping amplitude"),
        "t0": Param("float", 5.0, "sandwich onset", above=0),
        "t-min": Param("float", 0.5, "grid start"),
        "t-max": Param("float", 40.0, "grid end"),
        "points": Param("int", 60, "decay grid size", above=1),
        "scan-max": Param("float", 320.0, "resolvent scan frequency cap",
                          above=0),
        "scan-points": Param("int", 161, "resolvent scan size", above=0),
    }, rules=(
        _T_SPAN,
        (("t0", "t-max"), lambda t0, hi: t0 <= hi,
         "key 't0' ({0:g}) must not exceed key 't-max' ({1:g})"),
    ), suites=(
        ("rate-sandwich", "two-sided propagator-inverse norm sandwich"),
    )),
    ("wave", "cutoff"): Action(_h_wave_cutoff, {
        "n": Param("int", 60, "interior grid size"),
        "damping": Param("str", "localized", "damping profile",
                         ("localized", "constant")),
        "height": Param("float", 1.0, "damping amplitude"),
        "omega": Param("float", 2.0, "resolvent shift", above=0),
        "window1": Param("span", (0.0, 0.5), "left cutoff support, fractions"),
        "window2": Param("span", (0.5, 1.0), "right cutoff support, fractions"),
        "lambdas": Param("int", 10, "identity sample count", above=0),
        "seed": Param("int", 3, "data-vector seed"),
        "t-max": Param("float", 60.0, "norm grid end", above=0),
        "t-points": Param("int", 3001, "norm grid size", above=1),
        "horizon": Param("float", 80.0, "identity quadrature horizon"),
    }),
    ("counterexample", "scan"): Action(_h_cx_scan, {
        "variant": Param("str", "power", "train variant", ("power", "log")),
        "alpha": Param("float", 2.0, "envelope exponent"),
        "p": Param("float", 2.0, "norm index", above=0),
        "blocks": Param("int", 4, "train length", above=0),
        "nodes": Param("int", 24, "window quadrature nodes", above=0),
        "gamma-exp": Param("float", 0.0, "log-variant weight rate (0 = fit it)"),
    }, rules=(
        # a log train refits its envelope at its own orders: at one order
        # the e_factor fit is 0/0, and at two it never stabilises
        (("blocks", "variant"), lambda n, variant: n > 2 or variant != "log",
         "key 'blocks' ({0}) must be at least 3 when key 'variant' is {1!r}"),
    )),
    ("counterexample", "shift"): Action(_h_cx_shift, {
        "alpha": Param("float", 2.0, "envelope exponent"),
        "p": Param("float", 2.0, "norm index", above=0),
        "k": Param("int_list", (20, 40), "comma-separated probe orders"),
        "n-lambda": Param("int", 40, "boundary sample count"),
        "seed": Param("int", 11, "boundary sample seed"),
    }, suites=(
        ("T1", "shift orbit two-regime envelope: k^(1/4) box plus decaying tail"),
        ("T5", "shift primitive window floor at scale k^(1/4)(log k/k)^(1/alpha)"),
        ("T6", "shift primitive window upper analogue"),
        ("73b", "transform L^2 growth along sampled spectral frequencies"),
        ("shift-tail-identity", "suffix tail sums against head/total quadrature"),
    )),
}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def run(scenario: Scenario) -> int:
    """Execute one scenario, write its reports, map verdicts to exit codes."""
    start = time.perf_counter()
    result = ACTIONS[(scenario.command, scenario.action)].handler(scenario.params)
    written = write_reports(scenario, result, time.perf_counter() - start)
    ok = all(result.passed.values())
    tag = "ok" if ok else "FAIL"
    detail = ", ".join(f"{k}={'pass' if v else 'FAIL'}"
                       for k, v in result.passed.items())
    print(f"[{tag}] {scenario.command} {scenario.action}: {detail}")
    for path in written:
        print(f"  wrote {path}")
    return 0 if ok else 1


def list_suites() -> str:
    """One row per verdict suite: name, the scenario emitting it, anchor."""
    return "\n".join(f"{name}\t{command} {action}\t{anchor}"
                     for (command, action), declared in ACTIONS.items()
                     for name, anchor in declared.suites)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauberlab",
        description="Scenario runner for the decay-rate laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = sorted({cmd for cmd, _ in ACTIONS})
    for cmd in commands:
        cmd_parser = sub.add_parser(cmd)
        action_sub = cmd_parser.add_subparsers(dest="action", required=True)
        for (c, action), declared in ACTIONS.items():
            if c != cmd:
                continue
            ap = action_sub.add_parser(action)
            for key, spec in declared.params.items():
                bound = "" if spec.above is None else f" (> {spec.above:g})"
                kwargs = {"help": spec.help + bound, "default": None,
                          "type": _COERCE[spec.typ], "metavar": spec.typ.upper()}
                if spec.choices:
                    kwargs["choices"] = spec.choices
                    del kwargs["metavar"]
                ap.add_argument(f"--{key}", dest=f"param_{key}", **kwargs)
            ap.add_argument("--out-dir", default=".", help="report directory")

    run_parser = sub.add_parser("run", help="run a scenario from a config file")
    run_parser.add_argument("--config", required=True, help="config path")
    run_parser.add_argument("--out-dir", default=None,
                            help="override the config's out-dir")

    sub.add_parser("list-suites", help="print every named verdict suite")
    return parser


def _scenario_from_args(args) -> Scenario:
    raw = {key[len("param_"):].replace("_", "-"): value
           for key, value in vars(args).items()
           if key.startswith("param_") and value is not None}
    return Scenario(
        command=args.command,
        action=args.action,
        params=_coerce_params(args.command, args.action, raw),
        out_dir=args.out_dir,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-suites":
            print(list_suites())
            return 0
        if args.command == "run":
            try:
                with open(args.config) as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 2
            scenario = parse_config(text)
            if args.out_dir is not None:
                scenario.out_dir = args.out_dir
            return run(scenario)
        return run(_scenario_from_args(args))
    except ValueError as exc:  # ScenarioError and the modules' preconditions
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a guarded invariant broke mid-run
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
