"""The three benchmark workloads and the correctness gate they are checked by.

A workload is a list of operations that one pass runs in order.  Every
operation drives tauberlab through its public API: CLI scenarios through
``tauberlab.cli.run(Scenario)``, the oracle route through ``tauberlab.atoms``.
After a pass each operation's outcome is compared with the reference that
``record.py`` wrote at the parent commit.

The workload seed picks one of ``N_VARIANTS`` input variants; every scenario
seed (``atoms verify --seed``, ``wave cutoff --seed``, ``counterexample
shift --seed``) and the roots-sweep RNG are derived from that variant, so
any seed maps onto inputs whose reference outputs ship with the benchmark.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from tauberlab import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference")
N_VARIANTS = 4

# the oracle gap contract: relative 1e-10; at t = 0, where L and N are
# exact zeros, an absolute floor at the 1e-25 level of the cancellation test
ORACLE_RTOL = 1e-10
ORACLE_ZERO_ATOL = 1e-25
ROOTS_RTOL = 1e-12          # the roots-of-unity identity tolerance
DIGITS_CAP = 17.0           # const_agree_digits when output is bit-identical


def variant_seeds(seed: int) -> tuple[int, dict]:
    variant = int(seed) % N_VARIANTS
    state = np.random.SeedSequence(variant).generate_state(4)
    names = ("atoms", "cutoff", "shift", "roots")
    return variant, {n: int(s % 100_000) for n, s in zip(names, state)}


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_record(values: np.ndarray) -> tuple[str, np.ndarray]:
    flat = np.ascontiguousarray(np.asarray(values, dtype=float).ravel())
    return _sha(flat.tobytes()), flat


def _csv_numbers(text: str) -> np.ndarray:
    out = []
    for line in text.splitlines()[2:]:  # schema comment, then the header
        for cell in line.split(","):
            try:
                out.append(float(cell))
            except ValueError:
                pass
    return np.array(out)


def _flatten(d, prefix="") -> dict:
    out = {}
    for key, value in d.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        else:
            out[name] = value
    return out


class CliOp:
    """One CLI scenario, run in-process through ``cli.run``."""

    def __init__(self, workload: str, label: str, command: str, action: str,
                 params: dict):
        self.label = label
        raw = {k.replace("_", "-"): v for k, v in params.items()}
        self.scenario = cli.Scenario(
            command, action, cli._coerce_params(command, action, raw),
            out_dir=os.path.join(OUT, workload, label))

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run(self.scenario)

    def outcome(self, rc) -> dict:
        """Exit code, verdicts, constants and CSV bodies as written."""
        sc = self.scenario
        stem = os.path.join(sc.out_dir, f"{sc.command}-{sc.action}")
        with open(f"{stem}-summary.json") as fh:
            summary = json.load(fh)
        rec = {"exit": rc, "passed": summary["passed"], "points": 1, "bad": [],
               "constants": _flatten(summary["constants"]), "arrays": {}}
        values = {}
        for name in sorted(os.listdir(sc.out_dir)):
            if name.endswith(".csv") and name.startswith(f"{sc.command}-{sc.action}-"):
                with open(os.path.join(sc.out_dir, name), "rb") as fh:
                    body = fh.read()
                sha = _sha(body)
                rec["arrays"][name] = sha
                values[sha] = _csv_numbers(body.decode())
        return rec, values


def _gap_bad(oracle, series, t, zero_floor: bool) -> list[int]:
    gap = np.abs(oracle - series)
    scale = np.maximum(np.abs(oracle), np.abs(series))
    bad = gap > ORACLE_RTOL * scale
    if zero_floor:
        bad = np.where(t == 0.0, gap > ORACLE_ZERO_ATOL, bad)
    return [int(i) for i in np.flatnonzero(bad)]


class OracleOp:
    """L, N or G of one power family: mpmath oracle against the series on
    the full default grid.  Each grid point is one checked operation."""

    def __init__(self, label: str, fn: str, k: int, z_seed: int | None = None):
        from tauberlab import atoms
        self.label = label
        self.fn = fn
        self.fam = atoms.build_family("power", k, 2.0, beta=2.0)
        self.t = atoms.default_t_grid(self.fam)
        self.z = None
        if fn == "G":
            zs = atoms.default_z_samples(self.fam, n=24, seed=z_seed)
            self.z = complex(zs[np.random.default_rng(z_seed).integers(zs.size)])

    def run(self):
        from tauberlab import atoms
        if self.fn == "G":
            return (atoms.green_G(self.fam, self.t, self.z, backend="oracle"),
                    atoms.green_G(self.fam, self.t, self.z))
        f = atoms.laplace_L if self.fn == "L" else atoms.primitive_N
        return f(self.fam, self.t, backend="oracle"), f(self.fam, self.t)

    def outcome(self, raw) -> dict:
        oracle, series = raw
        sha, flat = _array_record(np.stack([series.real, series.imag]))
        rec = {"points": int(self.t.size),
               "bad": _gap_bad(oracle, series, self.t, zero_floor=self.fn != "G"),
               "constants": {}, "arrays": {"series": sha}}
        return rec, {sha: flat}


class RootsOp:
    """A roots_identity sweep drawn like the acceptance test: every order
    k = 1..64 once, a random stride j in {1, k/2, k}, a random angle and a
    radius of 0.5 or 2."""

    def __init__(self, label: str, seed: int, orders=range(1, 65)):
        self.label = label
        rng = np.random.default_rng(seed)
        self.calls = []
        for k in orders:
            j = (1, max(1, round(k / 2)), k)[int(rng.integers(3))]
            r = 0.5 if rng.integers(2) == 0 else 2.0
            self.calls.append((k, j, r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))))

    def run(self):
        from tauberlab import atoms
        return [atoms.roots_identity(k, j, z) for k, j, z in self.calls]

    def outcome(self, raw) -> dict:
        lhs = np.array([l for l, _ in raw])
        rhs = np.array([r for _, r in raw])
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        bad = np.abs(lhs - rhs) / scale > ROOTS_RTOL
        sha, flat = _array_record(np.stack([lhs.real, lhs.imag, rhs.real, rhs.imag]))
        rec = {"points": len(raw), "bad": [int(i) for i in np.flatnonzero(bad)],
               "constants": {}, "arrays": {"values": sha}}
        return rec, {sha: flat}


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------

WORKLOADS = ("transform-series", "wave-linalg", "oracle-crosscheck")

# modules each workload imports, and the first input it builds (setup_s);
# the harness itself imports only numpy and the light ``cli`` module
MODULES = {
    "transform-series": ("atoms", "contour", "counterexamples", "weights", "cli"),
    "wave-linalg": ("semigroup", "cli"),
    "oracle-crosscheck": ("atoms",),
}

# operation sizes keep a pass near 8 s on 2 cores (see README.md)
WAVE_SANDWICH_N = 120


def first_input(workload: str, seed: int):
    _, seeds = variant_seeds(seed)
    if workload == "wave-linalg":
        from tauberlab import semigroup as sg
        n = WAVE_SANDWICH_N
        return sg.assemble_damped_wave(n, 1.0, sg.localized_bump_damping(n))
    from tauberlab import atoms
    fam = atoms.build_family("power", 20, 2.0, beta=2.0)
    return atoms.default_t_grid(fam), atoms.default_z_samples(fam, n=24, seed=seeds["atoms"])


def build(workload: str, seed: int) -> list:
    """The operations of one pass, with every seed derived from ``seed``."""
    _, seeds = variant_seeds(seed)
    if workload == "transform-series":
        def op(label, command, action, **params):
            return CliOp(workload, label, command, action, params)
        return [
            op("atoms-verify-power", "atoms", "verify", variant="power", k=20,
               seed=seeds["atoms"]),
            op("atoms-verify-log", "atoms", "verify", variant="log", alpha=1.0,
               k=20, seed=seeds["atoms"]),
            op("contour-kernel", "contour", "kernel"),
            op("contour-fixed-exp", "contour", "reconstruct", target="exp"),
            op("contour-fixed-rational", "contour", "reconstruct", target="rational"),
            op("contour-adaptive-atom", "contour", "reconstruct", mode="adaptive",
               target="atom", points=2),
            op("scan-power", "counterexample", "scan", variant="power", blocks=4),
            op("scan-log", "counterexample", "scan", variant="log", alpha=1.0,
               blocks=3),
            op("shift", "counterexample", "shift", k=(20, 40), seed=seeds["shift"]),
            op("weights-profile", "weights", "profile"),
        ]
    if workload == "wave-linalg":
        return [
            CliOp(workload, "wave-sandwich", "wave", "sandwich",
                  {"n": WAVE_SANDWICH_N}),
            CliOp(workload, "wave-energy", "wave", "energy", {"n": 200}),
            CliOp(workload, "wave-cutoff", "wave", "cutoff",
                  {"n": 40, "seed": seeds["cutoff"]}),
        ]
    if workload == "oracle-crosscheck":
        ops = []
        for k in (10, 20):
            ops += [OracleOp(f"oracle-L-k{k}", "L", k),
                    OracleOp(f"oracle-N-k{k}", "N", k),
                    OracleOp(f"oracle-G-k{k}", "G", k, z_seed=seeds["atoms"])]
        return ops + [RootsOp("roots-sweep", seeds["roots"])]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------

def _rel_drift(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return math.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where(same, 0.0, rel)
    return float(np.max(np.where(np.isfinite(rel), rel, math.inf), initial=0.0))


def _as_float(v) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        return math.nan


def compare(rec: dict, values: dict, ref: dict | None, ref_values) -> dict:
    """Gate one operation's outcome against its reference.

    failed: checked operations that failed -- an exception, a verdict other
    than the reference's, or a point beyond its tolerance (known or new).
    regression: the gate trips -- an exception, a changed verdict, a point
    beyond tolerance that was within it at the reference, or no reference.
    drift: the largest relative deviation of a constant or output number.
    """
    points = rec["points"]
    if "error" in rec:
        return {"attempted": points, "failed": points, "regression": True,
                "drift": math.inf, "why": rec["error"]}
    if ref is None:
        return {"attempted": points, "failed": 0, "regression": True,
                "drift": math.inf, "why": "no reference"}
    verdict_changed = "exit" in ref and (rec["exit"], rec["passed"]) != (ref["exit"], ref["passed"])
    new_bad = sorted(set(rec["bad"]) - set(ref["bad"]))
    drift = 0.0
    for key in set(rec["constants"]) | set(ref["constants"]):
        if key not in rec["constants"] or key not in ref["constants"]:
            drift = math.inf
            continue
        drift = max(drift, _rel_drift(np.array([_as_float(rec["constants"][key])]),
                                      np.array([_as_float(ref["constants"][key])])))
    for name in set(rec["arrays"]) | set(ref["arrays"]):
        sha, ref_sha = rec["arrays"].get(name), ref["arrays"].get(name)
        if sha != ref_sha:
            drift = max(drift, math.inf if sha is None or ref_sha is None
                        else _rel_drift(values[sha], ref_values[ref_sha]))
    why = []
    if verdict_changed:
        why.append(f"verdict {rec['exit']} {rec['passed']} != reference")
    if new_bad:
        why.append(f"{len(new_bad)} points newly beyond tolerance")
    return {"attempted": points,
            "failed": 1 if verdict_changed else len(rec["bad"]),
            "regression": bool(why), "drift": drift, "why": "; ".join(why)}


def agree_digits(drift: float) -> float:
    """Decimal digits of agreement with the reference: -log10(drift),
    DIGITS_CAP when bit-identical, 0 when a number or its shape is lost."""
    if drift == 0.0:
        return DIGITS_CAP
    if not math.isfinite(drift) or drift >= 1.0:
        return 0.0
    return min(DIGITS_CAP, -math.log10(drift))


def load_reference(workload: str):
    path = os.path.join(REFERENCE, f"{workload}.json")
    if not os.path.exists(path):
        return {}, {}
    with open(path) as fh:
        meta = json.load(fh)
    with np.load(os.path.join(REFERENCE, f"{workload}.npz")) as npz:
        arrays = {key: npz[key] for key in npz.files}
    return meta, arrays
