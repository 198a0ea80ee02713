"""Fast smoke test of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.cap_blas_threads()
run.import_program()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from tauberlab import contour, counterexamples, semigroup  # noqa: E402


def toy_ops(workload, seed):
    kernel = wl.CliOp("toy", "toy-kernel", "contour", "kernel", {"points": 5})
    oracle = wl.OracleOp("toy-L", "L", 10)
    oracle.t = oracle.t[:12]
    roots = wl.RootsOp("toy-roots", wl.variant_seeds(seed)[1]["roots"], orders=range(1, 9))
    return [kernel, oracle, roots]


def toy_reference():
    ops = toy_ops("toy", 3)
    _, raws = run.run_pass(ops)
    refs, values = {}, {}
    for op, (ok, raw) in zip(ops, raws):
        assert ok, raw
        refs[op.label], vals = op.outcome(raw)
        values.update(vals)
    return refs, values


def run_toy(monkeypatch, trace, refs, values):
    variant, _ = wl.variant_seeds(3)
    monkeypatch.setattr(wl, "build", toy_ops)
    monkeypatch.setattr(wl, "load_reference",
                        lambda w: ({"variants": {str(variant): refs}}, values))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "oracle-crosscheck", "--seed", "3",
                         "--seconds", "0.01", "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)


def test_toy_run_reports_every_metric_and_passes_its_gate(monkeypatch):
    refs, values = toy_reference()
    code, res = run_toy(monkeypatch, 0, refs, values)
    assert code == 0 and res["correct"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    assert res["metrics"]["const_agree_digits"]["value"] == wl.DIGITS_CAP
    assert all(m["value"] > 0 for m in res["metrics"].values())

    code, res = run_toy(monkeypatch, 1, refs, values)
    assert code == 0
    metrics = res["metrics"]
    assert list(metrics) == [name for name, _ in spans.PER_LAYER]
    assert metrics["atoms.oracle.points"]["value"] == 12
    assert metrics["atoms.oracle.gap_ok_frac"]["value"] == 1.0
    assert metrics["atoms.roots_identity.calls"]["value"] == 8
    assert metrics["cli.run.s.contour-kernel"]["value"] > 0


def test_gate_fails_on_a_changed_verdict(monkeypatch):
    refs, values = toy_reference()
    refs["toy-kernel"] = dict(refs["toy-kernel"], passed={"lemma31": False})
    code, res = run_toy(monkeypatch, 0, refs, values)
    assert code == 1 and not res["correct"] and res["failed"] >= 1


def test_speed_probe_samples_during_a_pass_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        end = time.perf_counter() + 3 * run.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 3 and probe.factor > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_changed_numbers_show_as_drift_not_failure():
    (op,) = [o for o in toy_ops("toy", 0) if o.label == "toy-kernel"]
    rec, values = op.outcome(op.run())
    (name, sha), = rec["arrays"].items()
    ref = dict(rec, arrays={name: "other"})
    got = wl.compare(rec, values, ref, {"other": values[sha] * (1 + 1e-9)})
    assert not got["regression"] and got["failed"] == 0
    assert 8.5 < wl.agree_digits(got["drift"]) < 9.5


def test_oracle_gap_uses_an_absolute_floor_only_at_the_t0_zero():
    t = np.array([0.0, 1e-3, 1.0])
    oracle = np.array([1e-30, 1e-81, 2.0])
    series = np.array([0.0, 3e-114, 2.0 + 1e-12])
    assert wl._gap_bad(oracle, series, t, zero_floor=True) == [1]
    assert wl._gap_bad(oracle, series, t, zero_floor=False) == [0, 1]


def test_tracer_patches_direct_imports_and_restores_them():
    originals = (contour.adaptive_quad, counterexamples.adaptive_quad,
                 counterexamples.green_G, semigroup.np)
    tr = spans.Tracer()
    tr.pass_id = 0
    tr.install()
    try:
        assert counterexamples.adaptive_quad is not originals[1]
        assert counterexamples.green_G is not originals[2]
        contour.reconstruct_g_fixed(contour.exp_decay_pair(),
                                    contour.ContourSpec(R=8.0, n=2), 1.0)
        sys_ = semigroup.assemble_damped_wave(6, 1.0, np.full(6, 0.5))
        semigroup.resolvent_norm_scan(sys_, [0.5, 1.0])
    finally:
        tr.uninstall()
    assert (contour.adaptive_quad, counterexamples.adaptive_quad,
            counterexamples.green_G, semigroup.np) == originals
    names = [s[0] for s in tr.spans]
    root = names.index("contour.reconstruct_g_fixed")
    assert any(s[0] == "contour.adaptive_quad" and s[3] == root for s in tr.spans)
    # self times over a span's subtree add up to the span's duration
    selfs = tr.self_times()
    start, end = tr.spans[root][1], tr.spans[root][2]
    subtree = [i for i in range(root, len(tr.spans)) if tr.spans[i][2] <= end]
    assert sum(selfs[i] for i in subtree) == pytest.approx(end - start, rel=1e-9)
    counts = tr.counters[0]
    assert counts["contour.adaptive_quad.evals"] > 0
    assert counts["semigroup.resolvent_norm_scan.shifts"] == 2
    assert counts["semigroup.svd.calls"] >= 2
    assert counts["semigroup.linalg.flops_computed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(wl.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wave-linalg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
