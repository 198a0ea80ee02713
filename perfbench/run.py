"""tauberlab benchmark: three verification workloads, timed end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload transform-series --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One workload per process.  ``--trace 0`` reports the end-to-end metrics with
no instrumentation installed; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics.  ``--workload all`` runs every
workload both ways, each in a fresh interpreter, prints one table, and exits
1 when any correctness gate fails.  The last line of a single-workload run is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import time

_T0 = time.perf_counter()  # setup_s counts from here: before numpy loads

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("transform-series", "wave-linalg", "oracle-crosscheck")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("const_agree_digits", "digits"),
)
SETUP_PROBES = 5
# the speed probe: a fixed pure-Python loop, timed every PROBE_INTERVAL_S
# while a pass runs; PROBE_REF_S is its time at the reference speed
PROBE_LOOP = 20_000
PROBE_INTERVAL_S = 0.2
PROBE_REF_S = 0.0016
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_blas_threads() -> int:
    """Cap every BLAS thread variable at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(cap, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def import_program():
    """Import tauberlab from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import tauberlab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import tauberlab from {SRC}: {exc}")
    found = os.path.dirname(os.path.abspath(tauberlab.__file__))
    if found != os.path.join(SRC, "tauberlab"):
        raise SystemExit(f"error: tauberlab imported from {found}, not from {SRC}")


def machine_block(seed: int, cap: int) -> dict:
    import platform

    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_thread_cap": cap,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# the speed probe
# ----------------------------------------------------------------------

def probe_loop() -> float:
    """Seconds the fixed calibration loop takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the CPU's speed while a pass runs.

    The host's cores are shared, and their speed drifts by up to a factor of
    two over seconds.  A timer signal runs ``probe_loop`` every
    PROBE_INTERVAL_S; ``factor`` is the mean of PROBE_REF_S / sample, the
    share of reference speed the pass ran at.
    """

    def __enter__(self):
        self.samples = [probe_loop()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame):
        self.samples.append(probe_loop())

    @property
    def factor(self) -> float:
        return statistics.fmean(PROBE_REF_S / s for s in self.samples)


# ----------------------------------------------------------------------
# set-up: fresh interpreters import the workload's modules and build its
# first input; the median of SETUP_PROBES of them is setup_s
# ----------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds since this interpreter started run.py, and the speed factor."""
    import importlib

    with SpeedProbe() as probe:
        import workloads as wl
        for name in wl.MODULES[workload]:
            importlib.import_module(f"tauberlab.{name}")
        wl.first_input(workload, seed)
        elapsed = time.perf_counter() - _T0
    return elapsed, probe.factor


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        elapsed, factor = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(elapsed), float(factor)))
    return samples


# ----------------------------------------------------------------------
# the measured passes
# ----------------------------------------------------------------------

def run_pass(ops) -> tuple[list, list]:
    """Run every operation once: each one's seconds and (ok, result)."""
    seconds, raws = [], []
    for op in ops:
        start = time.perf_counter()
        try:
            raws.append((True, op.run()))
        except Exception as exc:  # a failing operation is counted, not fatal
            raws.append((False, f"{type(exc).__name__}: {exc}"))
        seconds.append(time.perf_counter() - start)
    return seconds, raws


def check_pass(wl, ops, raws, refs, ref_values) -> list[dict]:
    checks = []
    for op, (ok, raw) in zip(ops, raws):
        ref = refs.get(op.label)
        if ok:
            rec, values = op.outcome(raw)
        else:
            rec, values = {"error": raw, "points": ref["points"] if ref else 1}, {}
        checks.append({"op": op.label, **wl.compare(rec, values, ref, ref_values)})
    return checks


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def run_workload(args, cap: int) -> int:
    import importlib

    setup_samples = measure_setup(args.workload, args.seed)
    import spans
    import workloads as wl
    for name in wl.MODULES[args.workload]:
        importlib.import_module(f"tauberlab.{name}")
    variant, _ = wl.variant_seeds(args.seed)
    ops = wl.build(args.workload, args.seed)
    meta, ref_values = wl.load_reference(args.workload)
    refs = meta.get("variants", {}).get(str(variant), {})

    tracer = spans.Tracer() if args.trace else None
    passes, checks = [], []
    begin = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if tracer:
            tracer.pass_id = len(passes)
            if traced:
                tracer.install()
        try:
            with SpeedProbe() as probe:
                per_op, raws = run_pass(ops)
        finally:
            if tracer:
                tracer.uninstall()
        raw = sum(per_op)
        passes.append({"traced": traced, "raw_s": raw, "speed": probe.factor,
                       "wall_s": raw * probe.factor, "op_s": per_op})
        checks.append(check_pass(wl, ops, raws, refs, ref_values))
        if traced:
            for op, c in zip(ops, checks[-1]):
                if isinstance(op, wl.OracleOp):
                    tracer.count("oracle.gap_ok", c["attempted"] - c["failed"])
        typical = statistics.median(p["raw_s"] for p in passes)
        if len(passes) >= (2 if tracer else 1) and \
                time.perf_counter() - begin + typical > args.seconds:
            break

    flat = [c for per_pass in checks for c in per_pass]
    attempted = sum(c["attempted"] for c in flat)
    failed = sum(c["failed"] for c in flat)
    regressions = sorted({f"{c['op']}: {c['why']}" for c in flat if c["regression"]})
    drift = max(c["drift"] for c in flat)
    untraced = [p for p in passes if not p["traced"]]
    wall = quartiles([p["wall_s"] for p in untraced])
    raw_wall = quartiles([p["raw_s"] for p in untraced])
    if tracer:
        pairs = list(zip(passes[::2], passes[1::2]))
        metrics = tracer.layer_metrics(
            [pid for pid in range(len(passes)) if pid % 2 == 1], wall[1],
            statistics.median(t["wall_s"] for _, t in pairs),
            statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs))
    else:
        metrics = {
            "setup_s": statistics.median(s * f for s, f in setup_samples),
            "wall_s": wall[1],
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "const_agree_digits": wl.agree_digits(drift),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": not regressions, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": args.workload, "trace": args.trace, "variant": variant,
        "machine": machine_block(args.seed, cap),
        "setup": {"raw_s": [s for s, _ in setup_samples],
                  "speed": [f for _, f in setup_samples]},
        "wall_s_untraced": {"q1_median_q3": wall, "raw_q1_median_q3": raw_wall,
                            "samples": len(untraced)},
        "passes": [dict(p, op_s=dict(zip((op.label for op in ops), p["op_s"])))
                   for p in passes],
        "fail_frac": failed / attempted, "const_drift_max": drift,
        "regressions": regressions, "result": result,
    }
    stem = os.path.join(wl.OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(wl.OUT, exist_ok=True)
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=2, default=str)
    if tracer:
        tracer.write_spans(stem + "-spans.csv")

    print(f"workload {args.workload}  seed {args.seed}  variant {variant}  "
          f"trace {args.trace}  passes {len(passes)}")
    print(f"  wall_s per untraced pass q1/median/q3 {wall[0]:.4f} / {wall[1]:.4f} / "
          f"{wall[2]:.4f} over {len(untraced)} passes (raw seconds {raw_wall[0]:.4f} / "
          f"{raw_wall[1]:.4f} / {raw_wall[2]:.4f})")
    print(f"  fail_frac {failed}/{attempted} = {failed / attempted:.6f}  "
          f"const_drift_max {drift:.3e}")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>16.6g} {m['unit']}")
    for line in regressions:
        print(f"  GATE FAILED {line}")
    print("machine " + json.dumps(detail["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# every workload, both ways, one table
# ----------------------------------------------------------------------

def run_all(args) -> int:
    results, status = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} trace {trace}: no result\n{proc.stderr}")
                return 1
            for line in lines[:-1]:
                if line.startswith("  GATE"):
                    print(f"{workload} trace {trace}:{line}")
            results[(workload, trace)] = res
            if proc.returncode != 0 or not res["correct"]:
                status = 1
    width = 20
    print(f"\n{'end-to-end metric':<24}{'unit':<8}" + "".join(f"{w:>{width}}" for w in WORKLOADS))
    for name, unit in END_TO_END:
        row = "".join(f"{results[(w, 0)]['metrics'][name]['value']:>{width}.6g}" for w in WORKLOADS)
        print(f"{name:<24}{unit:<8}{row}")
    print(f"{'correct':<32}" + "".join(f"{str(results[(w, 0)]['correct']):>{width}}"
                                        for w in WORKLOADS))
    print(f"\n{'per-layer metric (traced)':<56}{'unit':<7}" + "".join(f"{w:>{width}}" for w in WORKLOADS))
    first = results[(WORKLOADS[0], 1)]["metrics"]
    for name, m in first.items():
        row = "".join(f"{results[(w, 1)]['metrics'][name]['value']:>{width}.6g}" for w in WORKLOADS)
        print(f"{name:<56}{m['unit']:<7}{row}")
    print("\nALL GATES PASSED" if status == 0 else "\nA CORRECTNESS GATE FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cap = cap_blas_threads()
    import_program()
    if args.setup_probe:
        print(*setup_probe(args.workload, args.seed))
        return 0
    return run_workload(args, cap)


if __name__ == "__main__":
    sys.exit(main())
