"""Fitted-constant reports: every field pinned against recorded values."""
import dataclasses
import json
import pathlib

import numpy as np
import pytest

from tauberlab import atoms, contour, counterexamples, semigroup, weights
from tauberlab.reports import RHO_CAP, fit_rate, ladder_report, upper_report


def _report_record(rep):
    return {
        "name": rep.name,
        "constants": {k: float(v).hex() for k, v in rep.constants.items()},
        "worst_residual": float(rep.worst_residual).hex(),
        "passed": bool(rep.passed),
        "grid": rep.grid,
        "notes": rep.notes,
    }


def _prop52(variant, k, seed):
    fam = atoms.build_family(variant, k, 2.0 if variant == "power" else 1.0,
                             beta=2.0 if variant == "power" else None)
    zs = atoms.default_z_samples(fam, n=8, seed=seed)
    return [_report_record(r) for r in atoms.verify_prop52(fam, z_samples=zs)]


def _piece_norms(tp, M, t_grid):
    k_scale, n = 0.05, 2
    norms = [contour.reconstruct_g_adaptive(tp, M, k_scale, n, float(t))[1]
             for t in t_grid]
    return [_report_record(r) for r in contour.fit_piece_norms(
        M, k_scale, n, t_grid, norms, 1.0, 1.0, p=2.0)]


def _block_constants_log():
    # the fit reads only Y4; the recorded reports are the full Prop 5.2 set
    # at the fit's orders, with the z samples the fit once drew for G
    out = counterexamples.fit_block_constants("log", 1.0)
    reports = {}
    for k, (fit_y4,) in out["reports"].items():
        fam = atoms.build_family("log", k, 1.0)
        zs = atoms.default_z_samples(fam, n=8, seed=7)
        reports[str(k)] = [_report_record(r)
                           for r in atoms.verify_prop52(fam, z_samples=zs)]
        y4, fit_rec = reports[str(k)][-1], _report_record(fit_y4)
        assert y4["name"] == fit_rec["name"] == "Y4"
        for field in ("constants", "worst_residual", "passed"):
            assert fit_rec[field] == y4[field]
    return {
        "aggregate": {key: float(out[key]).hex()
                      for key in ("c1", "c2", "rho", "e_factor")},
        "reports": reports,
    }


def _window_record(rep):
    return {f.name: float(v).hex() if isinstance(v, float) else v
            for f in dataclasses.fields(rep)
            for v in (getattr(rep, f.name),)}


def _scan(variant):
    if variant == "power":
        spec = counterexamples.build_counterexample(
            "power", 2.0, 2.0, 4, gamma_log=counterexamples.inverse_log_weight)
    else:
        spec = counterexamples.build_counterexample("log", 1.0, 2.0, 3)
        counterexamples.fit_log_weight_exponent(spec)
    return {
        "gamma_exp": None if spec.gamma_exp is None
        else float(spec.gamma_exp).hex(),
        "windows": [_window_record(r)
                    for r in counterexamples.divergence_scan(spec)],
    }


FIT_RUNS = {
    **{f"prop52-{v}-k{k}-seed{s}": (lambda v=v, k=k, s=s: _prop52(v, k, s))
       for v, ks in (("power", (12, 20, 30)), ("log", (12, 20)))
       for k in ks for s in (7, 11)},
    "shift-suite-k20": lambda: [
        _report_record(r)
        for r in counterexamples.shift_semigroup_suite(2.0, 2.0, k_list=(20,))],
    "piece-norms-exp": lambda: _piece_norms(
        contour.exp_decay_pair(), weights.ConstantRate(2.0),
        np.geomspace(0.5, 5.0, 4)),
    "piece-norms-atom": lambda: _piece_norms(
        contour.transform_pair_from_family(
            atoms.build_family("power", 10, 2.0, beta=2.0)),
        weights.PowerRate(1.0, 2.0), np.geomspace(0.5, 5.0, 3)),
    "block-constants-log": _block_constants_log,
    "scan-power-alpha2-blocks4": lambda: _scan("power"),
    "scan-log-alpha1-blocks3": lambda: _scan("log"),
}

# every field of every report, constants and residuals as float.hex,
# recorded before the fitted-constant rule moved into tauberlab.reports;
# no refactor of that rule may move a bit
GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("fit_golden.json")).read_text())


class TestFitGolden:
    def test_recorded_runs_are_the_defined_runs(self):
        assert sorted(GOLDEN) == sorted(FIT_RUNS)

    @pytest.mark.parametrize("run", sorted(FIT_RUNS))
    def test_every_report_field(self, run):
        assert FIT_RUNS[run]() == GOLDEN[run]


def _smooth_state(n):
    xs = np.arange(1, n + 1) / (n + 1)
    u = sum(c * np.sin(m * np.pi * xs) for m, c in zip((1, 2, 3), (1.0, 0.4, 0.2)))
    return np.r_[u, np.sin(2 * np.pi * xs)]


def _decay_ladder(damping, n):
    a = np.ones(n) if damping == "constant" else semigroup.localized_bump_damping(n)
    sys_ = semigroup.assemble_damped_wave(n, 1.0, a)
    return semigroup.weighted_decay_suite(sys_, _smooth_state(n),
                                          weights.ConstantRate(2.0))


LADDER_RUNS = {
    **{f"decay-{d}-n{n}": (lambda d=d, n=n: _decay_ladder(d, n))
       for d in ("constant", "localized") for n in (30, 40)},
    "tail-power-1-1": lambda: weights.weighted_tail_convergence(
        weights.PowerRate(1.0, 1.0), 1.0, 2.0),
    "tail-constant-2": lambda: weights.weighted_tail_convergence(
        weights.ConstantRate(2.0), 1.0, 2.0),
    "tail-affine-2-0.5": lambda: weights.weighted_tail_convergence(
        weights.AffineRate(2.0, 0.5), 1.0, 2.0),
}

# verdicts and constants as float.hex, recorded while each ladder still
# walked its own nodes and applied its own convergence rule
LADDER_GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("ladder_golden.json")).read_text())


class TestLadderGolden:
    def test_recorded_runs_are_the_defined_runs(self):
        assert sorted(LADDER_GOLDEN) == sorted(LADDER_RUNS)

    @pytest.mark.parametrize("run", sorted(r for r in LADDER_RUNS
                                           if r.startswith("decay")))
    def test_decay_ladder_verdicts_and_constants(self, run):
        reports = LADDER_RUNS[run]()
        golden = LADDER_GOLDEN[run]
        assert [r.name for r in reports] == [g["name"] for g in golden]
        for rep, gold in zip(reports, golden):
            assert rep.passed == gold["passed"]
            for key, value in gold["constants"].items():
                assert rep.constants[key] == pytest.approx(
                    float.fromhex(value), rel=1e-10, abs=0.0), (rep.name, key)

    @pytest.mark.parametrize("run", sorted(r for r in LADDER_RUNS
                                           if r.startswith("tail")))
    def test_tail_ladder_increments_are_bit_identical(self, run):
        rep, increments = LADDER_RUNS[run]()
        golden = LADDER_GOLDEN[run]
        assert [float(v).hex() for v in increments] == golden["increments"]
        assert rep.passed == golden["passed"]
        assert rep.constants["estimate"] == pytest.approx(
            float.fromhex(golden["estimate"]), rel=1e-10, abs=0.0)


class TestLadderReport:
    def test_ratios_must_stay_below_the_bound(self):
        assert ladder_report("l", [8.0, 4.0, 2.0, 1.0, 0.5], "", "").passed
        rep = ladder_report("l", [8.0, 4.0, 2.0, 1.8, 0.5], "", "")
        assert not rep.passed
        assert rep.constants["worst_late_ratio"] == 0.9
        assert rep.constants["binding_rung"] == 3.0
        assert rep.worst_residual == 0.0
        assert rep.constants["estimate"] == np.inf

    def test_only_the_last_five_increments_count(self):
        rep = ladder_report("l", [1.0, 100.0, 8.0, 4.0, 2.0, 1.0, 0.5], "", "")
        assert rep.passed
        assert rep.constants["worst_late_ratio"] == 0.5
        assert rep.constants["total"] == 116.5
        assert rep.constants["estimate"] == 117.0

    def test_three_ratios_are_needed_unless_the_tail_vanished(self):
        assert not ladder_report("l", [4.0, 2.0, 1.0], "", "").passed
        assert not ladder_report("l", [0.0, 0.0, 0.0, 1.0, 0.5], "", "").passed
        rep = ladder_report("l", [4.0, 2.0, 0.0, 0.0], "", "")
        assert rep.passed
        assert rep.constants["estimate"] == 6.0


class TestFitRate:
    def test_zero_values_constrain_nothing(self):
        t = np.array([1.0, 2.0, 4.0])
        assert fit_rate(np.array([0.0, np.exp(-1.0), 0.0]), t) \
            == pytest.approx(0.5 * (1.0 - 1e-9), rel=1e-15)
        assert fit_rate(np.zeros(3), t) == RHO_CAP
        assert fit_rate(np.array([]), np.array([])) == RHO_CAP

    def test_rate_is_clamped_to_its_range(self):
        t = np.array([1.0, 2.0])
        assert fit_rate(np.array([3.0, 1.0]), t) == 0.0
        assert fit_rate(np.array([1e-300, 1e-300]), t) == RHO_CAP

    def test_rows_share_the_t_axis(self):
        values = np.array([[np.exp(-2.0), np.exp(-4.0)],
                           [np.exp(-1.0), np.exp(-6.0)]])
        t = np.array([1.0, 2.0])
        assert fit_rate(values, t) == fit_rate(values.ravel(), np.tile(t, 2))


class TestUpperReport:
    def test_verdict_needs_finite_constants_and_positive_rate(self):
        env, vals = np.array([2.0, 2.0]), np.array([1.0, 1.0])
        assert upper_report("u", {"C": 2.0, "rho": 0.5}, env, vals, "", "").passed
        assert not upper_report("u", {"C": np.inf, "rho": 0.5}, env, vals, "", "").passed
        assert not upper_report("u", {"C": 2.0, "rho": 0.0}, env, vals, "", "").passed
        rep = upper_report("u", {"C": 2.0}, env, vals - [0.0, -3.0], "", "")
        assert not rep.passed and rep.worst_residual == -2.0
