"""Fitted-constant reports: every field pinned against recorded values."""
import json
import pathlib

import numpy as np
import pytest

from tauberlab import atoms, contour, counterexamples, weights
from tauberlab.reports import RHO_CAP, fit_rate, upper_report


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
    out = counterexamples.fit_block_constants("log", 1.0, 2.0)
    return {
        "aggregate": {key: float(out[key]).hex()
                      for key in ("c1", "c2", "rho", "e_factor")},
        "reports": {str(k): [_report_record(r) for r in reps]
                    for k, reps in out["reports"].items()},
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
