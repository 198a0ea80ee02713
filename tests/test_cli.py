"""End-to-end tests for the batch front door: flags, configs, reports."""
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tauberlab
import tauberlab.cli as cli
from tauberlab import atoms, contour, reports, semigroup, weights

CLI_TIMEOUT = 300

# The directory holding the imported ``tauberlab`` package. The CLI runs in a
# subprocess whose cwd is a temporary directory, so a relative PYTHONPATH
# would not reach the checkout; the absolute path makes the subprocess run the
# same tree that pytest imported.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(tauberlab.__file__)))


def run_python(args, cwd, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT)


def run_cli(args, cwd, env=None):
    return run_python(["-m", "tauberlab.cli", *args], cwd, env)


def report(out, name, proc):
    """Path of a report the run should have written; if it is missing, the
    failure shows the run's stderr."""
    path = out / name
    assert path.exists(), f"{name} not written; stderr:\n{proc.stderr}"
    return path


def read_summary(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def verify_outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    proc = run_cli(["atoms", "verify", "--alpha", "2", "--beta", "2",
                    "--k", "20", "--out-dir", str(out)], cwd=out)
    return proc, out


@pytest.fixture(scope="module")
def sandwich_outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("sandwich")
    proc = run_cli(["wave", "sandwich", "--n", "400",
                    "--damping", "localized", "--points", "8",
                    "--scan-points", "33", "--t-max", "16",
                    "--out-dir", str(out)], cwd=out)
    return proc, out


class TestAtomsVerify:
    def test_exit_zero(self, verify_outcome):
        proc, _ = verify_outcome
        assert proc.returncode == 0, proc.stderr

    def test_summary_has_four_fit_reports(self, verify_outcome):
        proc, out = verify_outcome
        summary = read_summary(
            report(out, "atoms-verify-summary.json", proc))
        assert sorted(summary["passed"]) == ["X3", "X5", "X6", "XQ4"]
        assert all(summary["passed"].values())
        for name in ("X3", "XQ4", "X6"):
            assert summary["constants"][name]["rho"] > 0

    def test_summary_echoes_scenario(self, verify_outcome):
        proc, out = verify_outcome
        summary = read_summary(
            report(out, "atoms-verify-summary.json", proc))
        assert summary["scenario"]["command"] == "atoms"
        assert summary["scenario"]["params"]["k"] == 20
        assert summary["wall_time_s"] > 0

    def test_csv_schema_and_line_endings(self, verify_outcome):
        proc, out = verify_outcome
        raw = report(out, "atoms-verify-envelopes.csv", proc).read_bytes()
        lines = raw.split(b"\r\n")
        assert lines[0] == b"# schema=tauberlab.atoms.verify.envelopes.v1"
        assert lines[1] == b"t,log_abs_L,log_abs_N"
        # body floats carry 17 significant digits
        assert b"e+00" in lines[2] or b"e-" in lines[2]

    def test_series_are_evaluated_once(self, tmp_path, monkeypatch, capsys):
        # L and N once each, shared by the fit and the CSV
        calls = []
        real = atoms._series_map

        def counting(*args):
            calls.append(args[2].__name__)
            return real(*args)

        monkeypatch.setattr(atoms, "_series_map", counting)
        code = cli.main(["atoms", "verify", "--k", "12", "--z-count", "4",
                         "--out-dir", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        assert sorted(calls) == ["_laplace_point", "_primitive_point"]


class TestWaveSandwich:
    def test_exit_zero(self, sandwich_outcome):
        proc, _ = sandwich_outcome
        assert proc.returncode == 0, proc.stderr

    def test_decay_and_scan_series_written(self, sandwich_outcome):
        proc, out = sandwich_outcome
        decay = report(out, "wave-sandwich-decay.csv", proc).read_bytes()
        scan = report(out, "wave-sandwich-scan.csv", proc).read_bytes()
        assert decay.startswith(b"# schema=tauberlab.wave.sandwich.decay.v1\r\n")
        assert scan.startswith(b"# schema=tauberlab.wave.sandwich.scan.v1\r\n")

    def test_fitted_sandwich_constants(self, sandwich_outcome):
        proc, out = sandwich_outcome
        summary = read_summary(
            report(out, "wave-sandwich-summary.json", proc))
        consts = summary["constants"]["rate-sandwich"]
        for key in ("c", "C", "c_prime", "C_prime", "t0"):
            assert key in consts
        assert consts["t0"] <= 5.0
        assert summary["passed"]["rate-sandwich"] is True

    def test_horizon_past_the_expm1_range_writes_a_summary(self, tmp_path):
        # at t-max 2000 the constant-M extension's M_log^{-1}(t) would
        # overflow math.expm1 at 19 judged points; past the scan C comes
        # from the products in logs
        code = cli.main(["wave", "sandwich", "--n", "20", "--damping", "constant",
                         "--t-max", "2000", "--scan-points", "33",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        summary = read_summary(tmp_path / "wave-sandwich-summary.json")
        big_c = summary["constants"]["rate-sandwich"]["C"]
        assert math.isfinite(big_c) and big_c == pytest.approx(5.44e9, rel=1e-2)
        # 16 last-half norms underflow to 0.0 and 2 to subnormals; the slope
        # fit skips them and reads the decay rate -(spectral abscissa) = 1/2
        tail = summary["constants"]["rate-sandwich"]["tail_exponent"]
        assert tail == pytest.approx(0.5, rel=1e-3)


_SCENARIO = "[scenario]\ncommand = {}\naction = {}\n"


# one violating input per cross-key rule in cli.ACTIONS, by scenario and keys
RULE_BREAKERS = {
    ("weights", "profile", ("t-max", "t-min")): {"t-max": "1"},
    ("weights", "profile", ("tail-alpha", "tail-beta")): {"tail-alpha": "1"},
    ("contour", "reconstruct", ("t-max", "t-min")): {"t-max": "0.5"},
    ("contour", "reconstruct", ("points", "mode")): {"mode": "adaptive",
                                                     "points": "1"},
    ("wave", "energy", ("mode", "n", "bc")): {"n": "20", "mode": "21"},
    ("wave", "energy", ("t-max", "dt")): {"t-max": "0.003"},
    ("wave", "sandwich", ("t-max", "t-min")): {"t-max": "0.5"},
    ("wave", "sandwich", ("t0", "t-max")): {"t0": "41"},
    ("counterexample", "scan", ("blocks", "variant")): {"variant": "log",
                                                         "blocks": "2"},
}


def _table_cases():
    """Each bounded key at its bound, then one breach of each cross-key rule."""
    for (command, action), declared in cli.ACTIONS.items():
        for key, spec in declared.params.items():
            if spec.above is not None:
                yield pytest.param(command, action, {key: f"{spec.above:g}"},
                                   (key,), id=f"{command}-{action}-{key}")
    for (command, action), declared in cli.ACTIONS.items():
        for keys, _, _ in declared.rules:
            yield pytest.param(
                command, action, RULE_BREAKERS.get((command, action, keys)),
                keys, id=f"{command}-{action}-{'-vs-'.join(keys)}")


def _main_without_handlers(route, command, action, raw, tmp_path, monkeypatch):
    """cli.main on raw params, given as flags or as a config file, with every
    handler replaced by a recorder: (exit code, handler calls, out dir)."""
    calls = []
    monkeypatch.setattr(cli, "ACTIONS", {
        scenario: dataclasses.replace(
            declared, handler=lambda params: calls.append(params)
            or cli.RunResult())
        for scenario, declared in cli.ACTIONS.items()})
    out = tmp_path / "out"
    if route == "flags":
        argv = [command, action, "--out-dir", str(out),
                *(f"--{key}={value}" for key, value in raw.items())]
    else:
        conf = tmp_path / "scenario.conf"
        conf.write_text(
            _SCENARIO.format(command, action) + f"out-dir = {out}\n\n[params]\n"
            + "".join(f"{key} = {value}\n" for key, value in raw.items()))
        argv = ["run", "--config", str(conf)]
    return cli.main(argv), calls, out


class TestParamTable:
    def test_defaults_keep_every_bound_and_rule(self):
        for (command, action), declared in cli.ACTIONS.items():
            for key, spec in declared.params.items():
                assert spec.above is None or spec.default > spec.above, key
            cli._coerce_params(command, action, {})

    @pytest.mark.parametrize("route", ["flags", "config"])
    @pytest.mark.parametrize("command,action,raw,keys", list(_table_cases()))
    def test_breach_exits_2_before_the_handler(self, command, action, raw,
                                               keys, route, tmp_path,
                                               monkeypatch, capsys):
        assert raw, f"RULE_BREAKERS has no input breaking {keys}"
        code, calls, out = _main_without_handlers(route, command, action, raw,
                                                  tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 2
        for key in keys:
            assert f"key {key!r}" in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flags", "config"])
    @pytest.mark.parametrize("command,action,key,value", [
        ("weights", "profile", "t-max", "inf"),
        ("wave", "energy", "t-max", "inf"),
        ("wave", "cutoff", "horizon", "inf"),
        ("contour", "reconstruct", "t-max", "inf"),
        ("wave", "sandwich", "t-max", "inf"),
        ("wave", "sandwich", "height", "nan"),
        ("counterexample", "shift", "alpha", "-inf"),
        ("wave", "cutoff", "window1", "0:inf"),
    ], ids=["weights-t-max", "energy-t-max", "cutoff-horizon", "reconstruct-t-max",
            "sandwich-t-max", "sandwich-height-nan", "shift-alpha", "cutoff-span"])
    def test_non_finite_float_exits_2_before_the_handler(
            self, command, action, key, value, route, tmp_path, monkeypatch, capsys):
        code, calls, out = _main_without_handlers(route, command, action, {key: value},
                                                  tmp_path, monkeypatch)
        assert code == 2
        assert f"key {key!r} must be finite" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_help_prints_each_bound(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["wave", "sandwich", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "sandwich onset (> 0)" in help_text
        assert "decay grid size (> 1)" in help_text


# toy sizes per scenario; the sweep runs each at these values, then each
# non-default choice of its parameters on top, one at a time, then the
# EXTRA_PATHS.  The k and window1 values go in as strings so the int_list and
# span parsers run too.
TOY_PARAMS = {
    ("weights", "profile"): {"points": "20", "t-max": "100"},
    ("atoms", "verify"): {"k": "10", "z-count": "4"},
    ("contour", "kernel"): {"points": "8"},
    ("contour", "reconstruct"): {"points": "2", "atom-k": "6"},
    ("wave", "energy"): {"n": "20", "t-max": "0.5"},
    ("wave", "sandwich"): {"n": "20", "points": "8", "scan-points": "16"},
    # the identity check needs the default horizon
    ("wave", "cutoff"): {"n": "20", "t-points": "101", "lambdas": "2",
                         "window1": "0:0.4"},
    # a log train needs 3 blocks to settle its ladder
    ("counterexample", "scan"): {"blocks": "3"},
    ("counterexample", "shift"): {"k": "20", "n-lambda": "4"},
}

# paths no single choice reaches: the tail ladder, a given log weight rate
EXTRA_PATHS = {
    "weights-profile-tail": ("weights", "profile",
                             {"tail-alpha": "1", "tail-beta": "2"}),
    "counterexample-scan-variant-log-gamma-exp":
        ("counterexample", "scan", {"variant": "log", "gamma-exp": "4"}),
}


def _path_cases():
    for (command, action), declared in cli.ACTIONS.items():
        toy = TOY_PARAMS.get((command, action), {})
        yield pytest.param(command, action, toy, id=f"{command}-{action}")
        for key, spec in declared.params.items():
            for choice in spec.choices:
                if choice != spec.default:
                    yield pytest.param(command, action, {**toy, key: choice},
                                       id=f"{command}-{action}-{key}-{choice}")
    for case_id, (command, action, raw) in EXTRA_PATHS.items():
        yield pytest.param(command, action,
                           {**TOY_PARAMS[(command, action)], **raw}, id=case_id)


PATH_CASES = list(_path_cases())


@pytest.fixture(scope="module")
def walk(tmp_path_factory):
    """Every path case run once through cli.run, by id: its exit code, its
    stdout and the names of the suites its run emitted."""
    real = cli.write_reports
    emitted = []

    def recording(scenario, result, wall_time):
        emitted.extend(result.suites)
        return real(scenario, result, wall_time)

    outcomes = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "write_reports", recording)
        for case in PATH_CASES:
            command, action, raw = case.values
            emitted = []
            scenario = cli.Scenario(command, action,
                                    cli._coerce_params(command, action, raw),
                                    out_dir=str(tmp_path_factory.mktemp(case.id)))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.run(scenario)
            outcomes[case.id] = (code, stdout.getvalue(), emitted)
    return outcomes


class TestEveryPath:
    def test_toy_sizes_cover_every_scenario(self):
        assert sorted(TOY_PARAMS) == sorted(cli.ACTIONS)

    @pytest.mark.parametrize("command,action,raw", PATH_CASES)
    def test_runs_and_passes(self, command, action, raw, walk, request):
        code, stdout, emitted = walk[request.node.callspec.id]
        assert code == 0, stdout
        declared = {name for name, _ in cli.ACTIONS[(command, action)].suites}
        assert set(emitted) <= declared

    def test_every_declared_suite_is_emitted(self, walk):
        emitted = {}
        for case in PATH_CASES:
            command, action, _ = case.values
            emitted.setdefault((command, action), set()).update(walk[case.id][2])
        for scenario, declared in cli.ACTIONS.items():
            assert {name for name, _ in declared.suites} <= emitted[scenario], \
                scenario

    def test_periodic_mode_on_the_sine_zeros_is_refused(self, capsys):
        # under periodic conditions the state vanishes when n divides 2 mode
        code = cli.main(["wave", "energy", "--bc", "periodic", "--n", "20",
                         "--mode", "10"])
        assert code == 2
        assert "key 'mode' (10)" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_config_key_names_it(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("[scenario]\ncommand = atoms\naction = verify\n"
                        "\n[params]\nbogus-knob = 3\n")
        proc = run_cli(["run", "--config", str(conf)], cwd=tmp_path)
        assert proc.returncode == 2
        assert "bogus-knob" in proc.stderr

    def test_removed_backend_option_is_rejected(self, tmp_path):
        proc = run_cli(["atoms", "verify", "--k", "12", "--backend",
                        "oracle", "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--backend" in proc.stderr
        conf = tmp_path / "old.conf"
        conf.write_text("[scenario]\ncommand = atoms\naction = verify\n"
                        f"out-dir = {tmp_path}\nbackend = oracle\n\n"
                        "[params]\nk = 12\n")
        proc = run_cli(["run", "--config", str(conf)], cwd=tmp_path)
        assert proc.returncode == 2
        assert "unknown scenario key 'backend'" in proc.stderr
        assert not (tmp_path / "atoms-verify-summary.json").exists()

    @pytest.mark.parametrize("argv,key", [
        (["contour", "reconstruct", "--points", "0"], "'points'"),
        (["contour", "reconstruct", "--mode", "adaptive", "--points", "0"],
         "'points'"),
        (["wave", "energy", "--n", "20", "--dt", "0"], "'dt'"),
        (["weights", "profile", "--points", "0"], "'points'"),
        (["contour", "kernel", "--points", "1"], "'points'"),
        (["contour", "reconstruct", "--mode", "adaptive", "--points", "1"],
         "'points'"),
        (["wave", "cutoff", "--n", "20", "--t-points", "1"], "'t-points'"),
        (["wave", "cutoff", "--n", "20", "--lambdas", "0"], "'lambdas'"),
        (["wave", "sandwich", "--n", "20", "--scan-points", "0"],
         "'scan-points'"),
        (["wave", "sandwich", "--n", "20", "--t-max", "4"],
         "key 't0' (5) must not exceed key 't-max' (4)"),
        (["wave", "sandwich", "--n", "20", "--points", "1"],
         "key 'points' must exceed 1"),
        (["weights", "profile", "--t-max", "0.5"],
         "key 't-max' (0.5) must exceed key 't-min' (1)"),
        (["weights", "profile", "--t-max", "1", "--points", "3"],
         "key 't-max' (1) must exceed key 't-min' (1)"),
        (["contour", "reconstruct", "--t-max", "0.1"],
         "key 't-max' (0.1) must exceed key 't-min' (0.5)"),
        (["contour", "reconstruct", "--mode", "adaptive", "--target", "atom",
          "--t-max", "0.5"], "key 't-max' (0.5) must exceed key 't-min' (0.5)"),
        (["contour", "reconstruct", "--t-min", "0"], "'t-min' must exceed 0"),
        (["contour", "kernel", "--t-max", "0.01"], "'t-max' must exceed 0.01"),
        (["wave", "energy", "--n", "20", "--t-max", "1", "--dt", "0.3"],
         "key 't-max' (1) must span at least 4 steps of key 'dt' (0.3)"),
        (["wave", "energy", "--n", "20", "--t-max", "0.001", "--dt", "0.01"],
         "key 't-max' (0.001) must span at least 4 steps of key 'dt' (0.01)"),
    ], ids=["reconstruct-fixed", "reconstruct-adaptive", "wave-energy",
            "weights-profile", "contour-kernel", "reconstruct-adaptive-one-t",
            "wave-cutoff-one-t", "wave-cutoff-no-lambdas",
            "wave-sandwich-no-scan", "wave-sandwich-before-t0",
            "wave-sandwich-one-t", "weights-profile-reversed",
            "weights-profile-one-t", "reconstruct-fixed-reversed",
            "reconstruct-adaptive-one-t-atom", "reconstruct-zero-t-min",
            "contour-kernel-before-first-point", "wave-energy-three-steps",
            "wave-energy-no-step"])
    def test_empty_grid_fails_before_any_work(self, argv, key, tmp_path,
                                              monkeypatch, capsys):
        calls = []
        for mod, name in ((atoms, "build_family"),
                          (contour, "reconstruct_g_fixed"),
                          (contour, "reconstruct_g_adaptive"),
                          (contour, "lemma31_check"),
                          (semigroup, "evolve"),
                          (semigroup, "resolvent_norm_scan"),
                          (semigroup, "resolvent_sup_scan"),
                          (semigroup, "propagator_inverse_norms"),
                          (semigroup, "cutoff_transform_check"),
                          (weights, "w_m_log"),
                          (weights, "check_growth_bounds")):
            monkeypatch.setattr(mod, name,
                                lambda *args, **kwargs: calls.append(args))
        code = cli.main([*argv, "--out-dir", str(tmp_path)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert calls == []
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_non_positive_horizon_fails_before_any_solve(self, horizon, tmp_path,
                                                         monkeypatch, capsys):
        calls = []
        real = semigroup._laplace_of_orbit

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(semigroup, "_laplace_of_orbit", counting)
        code = cli.main(["wave", "cutoff", "--n", "20", "--horizon", horizon,
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "horizon T must be positive" in capsys.readouterr().err
        assert calls == []
        assert not list(tmp_path.iterdir())

    def test_non_positive_constant_level_names_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["weights", "profile", "--family", "constant",
                         "--c0=-3", "--out-dir", str(out)])
        assert code == 2
        assert "key 'c0'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_scan_nodes_names_the_key(self, tmp_path, capsys):
        code = cli.main(["counterexample", "scan", "--nodes", "0",
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "key 'nodes' must exceed 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_zero_z_count_is_a_usage_error(self, tmp_path):
        proc = run_cli(["atoms", "verify", "--k", "12", "--z-count", "0",
                        "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "z sample" in proc.stderr

    def test_invariant_failure_still_writes_report(self, tmp_path):
        # dt too coarse for the finite-difference energy identity
        proc = run_cli(["wave", "energy", "--n", "40", "--t-max", "4",
                        "--dt", "0.5", "--out-dir", str(tmp_path)],
                       cwd=tmp_path)
        assert proc.returncode == 1
        summary = read_summary(
            report(tmp_path, "wave-energy-summary.json", proc))
        assert summary["ok"] is False
        assert summary["passed"]["derivative_identity"] is False
        assert (tmp_path / "wave-energy-energy.csv").exists()


class TestRefusals:
    """Every refusal of a config or a flag exits 2 and names what it
    refuses; a broken invariant exits 1."""

    @pytest.mark.parametrize("text,names", [
        ("[scenario]\n[bogus]\n", "line 2: unknown section [bogus]"),
        ("[scenario]\ncommand atoms\n", "line 2: expected key = value"),
        ("# header\ncommand = atoms\n", "line 2: key before any [section]"),
        ("[scenario]\n = atoms\n", "line 2: empty key"),
        (_SCENARIO.format("atoms", "verify") + "command = wave\n",
         "line 4: duplicate key 'command'"),
        ("[scenario]\naction = verify\n", "missing scenario key 'command'"),
        ("[scenario]\ncommand = atoms\n", "missing scenario key 'action'"),
        (_SCENARIO.format("atoms", "plot"), "unknown scenario 'atoms' 'plot'"),
        (_SCENARIO.format("atoms", "verify") + "[params]\nk = twelve\n",
         "bad value for key 'k'"),
        (_SCENARIO.format("counterexample", "scan") + "[params]\nvariant = cubic\n",
         "key 'variant' must be one of ('power', 'log'), got 'cubic'"),
    ], ids=["unknown-section", "no-equals", "key-before-section", "empty-key",
            "duplicate-key", "no-command", "no-action", "unknown-scenario",
            "ill-typed-param", "param-outside-choices"])
    def test_bad_config_exits_2_naming_the_line_or_key(self, text, names, tmp_path,
                                                        capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text(text)
        assert cli.main(["run", "--config", str(conf), "--out-dir",
                         str(tmp_path / "out")]) == 2
        assert names in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,flag", [
        (["counterexample", "shift", "--k", "20,x"], "--k"),
        (["wave", "cutoff", "--window1", "0.5:0.2"], "--window1"),
    ])
    def test_bad_flag_exits_2_naming_the_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    # pass thresholds are constants of the verdicts that read them
    @pytest.mark.parametrize("command,action,key", [
        ("contour", "reconstruct", "tol"),
        ("contour", "reconstruct", "agree-tol"),
        ("wave", "energy", "tol"),
    ], ids=["reconstruct-tol", "reconstruct-agree-tol", "energy-tol"])
    def test_threshold_flag_and_key_exit_2(self, command, action, key, tmp_path,
                                           capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, action, f"--{key}", "1", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key} 1" in capsys.readouterr().err
        conf = tmp_path / "loose.conf"
        conf.write_text(_SCENARIO.format(command, action) + f"[params]\n{key} = 1\n")
        assert cli.main(["run", "--config", str(conf), "--out-dir",
                         str(tmp_path)]) == 2
        assert (f"unknown parameter key {key!r} for {command} {action}"
                in capsys.readouterr().err)
        assert not list(tmp_path.glob("*.json"))

    def test_unreadable_config_exits_2_naming_the_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.conf"
        assert cli.main(["run", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and str(missing) in err

    def test_out_dir_flag_overrides_the_config(self, tmp_path):
        conf = tmp_path / "scenario.conf"
        conf.write_text(_SCENARIO.format("weights", "profile")
                        + f"out-dir = {tmp_path / 'config-dir'}\n")
        assert cli.main(["run", "--config", str(conf), "--out-dir",
                         str(tmp_path / "flag-dir")]) == 0
        assert (tmp_path / "flag-dir" / "weights-profile-summary.json").exists()
        assert not (tmp_path / "config-dir").exists()

    def test_failed_tail_ladder_exits_1_with_a_json_estimate(self, tmp_path):
        # the ladder's increments do not decay geometrically, so its limit
        # estimate is inf, which the summary must carry as a string
        assert cli.main(["weights", "profile", "--tail-alpha", "0.2",
                         "--tail-beta", "1.01", "--out-dir", str(tmp_path)]) == 1

        def refuse(name):
            raise AssertionError(f"non-JSON constant {name} in the summary")

        summary = json.loads((tmp_path / "weights-profile-summary.json").read_text(),
                             parse_constant=refuse)
        assert summary["passed"] == {"growth": True, "tail": False}
        assert summary["constants"]["tail"]["estimate"] == "inf"

    def test_kernel_breach_exits_1_with_its_report(self, tmp_path, monkeypatch, capsys):
        # a quadrature of 2 + 1e-6 at every t breaks Lemma 3.1's cap
        # min(2, pi^2/(2 t^2)): the verdict fails, not an invariant
        monkeypatch.setattr(contour, "adaptive_quad",
                            lambda *args, **kwargs: (complex(2.0 + 1e-6), 0.0, 0))
        assert cli.main(["contour", "kernel", "--points", "5",
                         "--out-dir", str(tmp_path)]) == 1
        assert "invariant failure" not in capsys.readouterr().err
        summary = read_summary(tmp_path / "contour-kernel-summary.json")
        assert summary["passed"]["lemma31"] is False
        assert summary["residuals"]["cap_gap"] >= 1e-6

    def test_arithmetic_error_in_a_handler_exits_1(self, tmp_path, monkeypatch, capsys):
        def broken(params):
            raise ArithmeticError("guarded sum diverged")

        key = ("weights", "profile")
        monkeypatch.setitem(cli.ACTIONS, key,
                            dataclasses.replace(cli.ACTIONS[key], handler=broken))
        assert cli.main(["weights", "profile", "--out-dir", str(tmp_path)]) == 1
        assert "invariant failure: guarded sum diverged" in capsys.readouterr().err


class TestConfigFile:
    def test_config_matches_flag_invocation(self, tmp_path):
        flags = tmp_path / "flags"
        cfg = tmp_path / "cfg"
        flags.mkdir()
        proc = run_cli(["atoms", "verify", "--alpha", "2", "--beta", "2",
                        "--k", "12", "--out-dir", str(flags)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        flags_csv = report(flags, "atoms-verify-envelopes.csv", proc)
        conf = tmp_path / "scenario.conf"
        conf.write_text("[scenario]\ncommand = atoms\naction = verify\n"
                        f"out-dir = {cfg}\n\n[params]\nalpha = 2\nbeta = 2\n"
                        "k = 12\n")
        proc = run_cli(["run", "--config", str(conf)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        cfg_csv = report(cfg, "atoms-verify-envelopes.csv", proc)
        assert flags_csv.read_bytes() == cfg_csv.read_bytes()


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        bodies = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir()
            proc = run_cli(["contour", "reconstruct", "--out-dir", str(out)],
                           cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            bodies.append(sorted(
                (p.name, p.read_bytes()) for p in out.glob("*.csv")))
        assert bodies[0] == bodies[1]


class TestRunResultAdd:
    def test_summary_files_every_report_field(self, tmp_path):
        # a FitReport field the summary does not show is carried by every
        # producer and read by no one
        rep = reports.FitReport(name="probe", constants={"C": 2.5, "rho": 0.25},
                                worst_residual=0.125, passed=True)
        res = cli.RunResult()
        res.add(rep)
        scenario = cli.Scenario("weights", "profile", {}, out_dir=str(tmp_path))
        cli.write_reports(scenario, res, 0.0)
        summary = read_summary(tmp_path / "weights-profile-summary.json")
        filed = {
            "name": (list(summary["constants"]) == list(summary["residuals"])
                     == list(summary["passed"]) == ["probe"]),
            "constants": summary["constants"]["probe"] == {"C": 2.5, "rho": 0.25},
            "worst_residual": summary["residuals"]["probe"] == 0.125,
            "passed": summary["passed"]["probe"] is True,
        }
        assert sorted(filed) == sorted(f.name for f in dataclasses.fields(rep))
        assert all(filed.values()), filed


class TestListSuites:
    def test_names_and_count(self, tmp_path):
        # one row per suite some scenario emits: name, scenario, anchor line
        proc = run_cli(["list-suites"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = [ln.split("\t") for ln in proc.stdout.splitlines() if ln.strip()]
        assert len(rows) == 19
        assert all(len(row) == 3 and row[2] for row in rows)
        scenarios = {name: scenario for name, scenario, _ in rows}
        assert scenarios["X3"] == "atoms verify"
        assert scenarios["lemma31"] == "contour kernel"


class TestNoThreadOption:
    # the thread count is the environment's (OPENBLAS_NUM_THREADS,
    # OMP_NUM_THREADS); the CLI has no flag or key of its own for it
    def test_flag_and_config_key_are_unknown(self, tmp_path):
        proc = run_cli(["atoms", "verify", "--k", "12", "--threads", "2",
                        "--out-dir", str(tmp_path)], cwd=tmp_path)
        assert proc.returncode == 2
        assert "--threads" in proc.stderr
        conf = tmp_path / "threads.conf"
        conf.write_text("[scenario]\ncommand = atoms\naction = verify\n"
                        f"out-dir = {tmp_path}\nthreads = 2\n\n[params]\n"
                        "k = 12\n")
        proc = run_cli(["run", "--config", str(conf)], cwd=tmp_path)
        assert proc.returncode == 2
        assert "unknown scenario key 'threads'" in proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["threads.conf"]


class TestWaveEnergy:
    def test_energies_are_computed_once(self, monkeypatch):
        # evolve maps x0 into the energy frame once; the CSV columns and the
        # derivative check then share one energy per grid time
        params = cli._coerce_params("wave", "energy", {"n": 20, "t-max": 0.5})
        real = semigroup.DampedWaveSystem.to_hat
        calls = []

        def counting(self, x):
            calls.append(1)
            return real(self, x)

        monkeypatch.setattr(semigroup.DampedWaveSystem, "to_hat", counting)
        res = cli.ACTIONS[("wave", "energy")].handler(params)
        rows = res.series[0].rows
        assert len(rows) == 501
        assert len(calls) <= len(rows) + 1
        assert all(res.passed.values())

    def test_periodic_energy_identity_holds(self, tmp_path):
        code = cli.main(["wave", "energy", "--n", "20", "--bc", "periodic",
                         "--t-max", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        summary = read_summary(tmp_path / "wave-energy-summary.json")
        assert summary["passed"] == {"derivative_identity": True,
                                     "nonincreasing": True}


class TestLongGrids:
    @pytest.mark.parametrize("argv", [
        ["wave", "energy", "--n", "40", "--t-max", "20"],
        ["wave", "cutoff", "--n", "20", "--t-points", "30001"],
    ], ids=["energy-t-max-20", "cutoff-30001-points"])
    def test_long_linspace_grids_pass_the_uniform_check(self, argv, tmp_path):
        # linspace rounds a long grid's points by about an ulp of its end,
        # which a step spread bound of 1e-12 dt used to refuse (exit 2)
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0


class TestAdaptiveContour:
    def test_piece_fit_reuses_the_rows_contours(self, tmp_path, monkeypatch):
        points = 3
        params = cli._coerce_params("contour", "reconstruct", {
            "mode": "adaptive", "target": "atom", "points": points})
        scenario = cli.Scenario("contour", "reconstruct", params,
                                out_dir=str(tmp_path))
        real = contour.reconstruct_g_adaptive
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(contour, "reconstruct_g_adaptive", counting)
        cli.run(scenario)
        monkeypatch.undo()
        assert len(calls) == points
        summary = read_summary(tmp_path / "contour-reconstruct-summary.json")

        fam = atoms.build_family("power", params["atom-k"], params["atom-alpha"],
                                 beta=params["atom-beta"])
        tp, M = contour.transform_pair_from_family(fam), fam.matching_rate()
        ts = np.geomspace(params["t-min"], params["t-max"], points)
        norms = [contour.reconstruct_g_adaptive(tp, M, params["k-scale"],
                                                params["reg-n"], float(t))[1]
                 for t in ts]
        stub, boundary = contour.fit_adaptive_piece_bounds(
            M, params["k-scale"], params["reg-n"], ts, norms,
            params["growth-alpha"], params["growth-beta"], p=params["p"])
        assert summary["constants"]["i3est"] == dict(stub.constants)
        assert summary["constants"]["i4est1"] == dict(boundary.constants)

    def test_inadmissible_schedule_fails_before_any_contour(self, tmp_path,
                                                            monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(contour, "reconstruct_g_adaptive",
                            lambda *args, **kwargs: calls.append(args))
        code = cli.main(["contour", "reconstruct", "--mode", "adaptive",
                         "--target", "atom", "--growth-alpha", "3",
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "n > alpha" in capsys.readouterr().err
        assert calls == []


class TestImportBudget:
    # the series route (every module but semigroup) runs on numpy alone;
    # mpmath loads on the oracle's first call
    SCRIPT = """
import sys
import tauberlab.atoms, tauberlab.cli, tauberlab.contour
import tauberlab.counterexamples, tauberlab.logspace, tauberlab.reports
import tauberlab.weights
from tauberlab import atoms, cli
code = cli.run(cli.parse_config(
    "[scenario]\\ncommand = counterexample\\naction = scan\\n"
    "[params]\\nvariant = power\\nblocks = 2\\n"))
assert code == 0, code
loaded = sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "mpmath"})
assert not loaded, loaded
atoms.laplace_L(atoms.build_family("power", 10, 2.0, 2.0), 1.0,
                backend="oracle")
assert "mpmath" in sys.modules
print("ok")
"""

    def test_package_import_loads_no_submodule_and_no_numpy(self, tmp_path):
        # each scenario loads only the layers it runs
        proc = run_python(["-c", "import sys, tauberlab; print(sorted(m for m in "
                           "sys.modules if m.startswith(('tauberlab.', 'numpy'))))"],
                          cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_series_route_loads_numpy_alone(self, tmp_path):
        proc = run_python(["-c", self.SCRIPT], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"
        assert (tmp_path / "counterexample-scan-windows.csv").exists()
