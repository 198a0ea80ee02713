"""Golden outputs of the damped-wave scenarios and the weighted-decay ladder.

The `wave cutoff`, `wave energy` and `wave sandwich` CSV bodies are pinned by
sha256, and every `weighted_decay_suite` and `rate_sandwich_check` constant by
float.hex, all compared exactly: a speed-up of the orbit sweep or of the
energy bookkeeping may not move a bit.  The sizes are small: at them the
recorded values are the same at one and at two OpenBLAS threads, while larger
runs move in the last digits with the count.
"""
import hashlib
import json
import pathlib

import numpy as np
import pytest

from tauberlab import cli, semigroup, weights


def _run(command, action, raw, out_dir):
    """The handler's RunResult and the sha256 of each CSV it writes."""
    scenario = cli.Scenario(command, action,
                            cli._coerce_params(command, action, raw),
                            out_dir=str(out_dir))
    result = cli.ACTIONS[(command, action)].handler(scenario.params)
    paths = cli.write_reports(scenario, result, 0.0)
    return result, {pathlib.Path(p).name:
                    hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
                    for p in paths if p.endswith(".csv")}


def _csv_bodies(command, action, raw, out_dir):
    return _run(command, action, raw, out_dir)[1]


def _sandwich(raw, out_dir):
    result, bodies = _run("wave", "sandwich", raw, out_dir)
    return {"csv": bodies,
            "constants": {k: float(v).hex()
                          for k, v in result.constants["rate-sandwich"].items()},
            "worst_residual": float(result.residuals["rate-sandwich"]).hex(),
            "passed": result.passed["rate-sandwich"]}


def _smooth_state(n):
    xs = np.arange(1, n + 1) / (n + 1)
    u = sum(c * np.sin(m * np.pi * xs) for m, c in zip((1, 2, 3), (1.0, 0.4, 0.2)))
    return np.r_[u, np.sin(2 * np.pi * xs)]


def _decay_ladder(damping, n):
    a = np.ones(n) if damping == "constant" else semigroup.localized_bump_damping(n)
    sys_ = semigroup.assemble_damped_wave(n, 1.0, a)
    reports = semigroup.weighted_decay_suite(sys_, _smooth_state(n),
                                             weights.ConstantRate(2.0))
    return [{"name": r.name,
             "constants": {k: float(v).hex() for k, v in r.constants.items()},
             "worst_residual": float(r.worst_residual).hex(),
             "passed": bool(r.passed)} for r in reports]


CSV_RUNS = {
    **{f"cutoff-n40-seed{s}": ("wave", "cutoff", {"n": 40, "seed": s})
       for s in (3, 11)},
    "energy-n40": ("wave", "energy", {"n": 40}),
    "energy-periodic-n40": ("wave", "energy", {"n": 40, "bc": "periodic"}),
}
LADDER_RUNS = {f"decay-{d}-n30": d for d in ("constant", "localized")}
SANDWICH_RUNS = {"sandwich-n20-scan33": {"n": 20, "scan-points": 33}}

GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("wave_golden.json")).read_text())


def record(out_dir) -> dict:
    """Every golden value, keyed as in wave_golden.json."""
    out = {run: _csv_bodies(*spec, out_dir=pathlib.Path(out_dir) / run)
           for run, spec in CSV_RUNS.items()}
    out.update({run: _decay_ladder(d, 30) for run, d in LADDER_RUNS.items()})
    out.update({run: _sandwich(raw, pathlib.Path(out_dir) / run)
                for run, raw in SANDWICH_RUNS.items()})
    return out


class TestWaveGolden:
    def test_recorded_runs_are_the_defined_runs(self):
        assert sorted(GOLDEN) == sorted([*CSV_RUNS, *LADDER_RUNS, *SANDWICH_RUNS])

    @pytest.mark.parametrize("run", sorted(CSV_RUNS))
    def test_csv_bodies_are_byte_identical(self, run, tmp_path):
        assert _csv_bodies(*CSV_RUNS[run], out_dir=tmp_path) == GOLDEN[run]

    @pytest.mark.parametrize("run", sorted(LADDER_RUNS))
    def test_ladder_constants_are_bit_identical(self, run):
        assert _decay_ladder(LADDER_RUNS[run], 30) == GOLDEN[run]

    @pytest.mark.parametrize("run", sorted(SANDWICH_RUNS))
    def test_sandwich_is_bit_identical(self, run, tmp_path):
        assert _sandwich(SANDWICH_RUNS[run], tmp_path) == GOLDEN[run]
