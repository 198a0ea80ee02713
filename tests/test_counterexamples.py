"""Tests for the divergent-train construction and its window scans."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

import tauberlab.counterexamples as cx
from tauberlab import atoms
from tauberlab.atoms import build_family, default_z_samples, verify_prop52
from conftest import prop52_inputs

LADDER_TOL = 1e-6
SUM_TOL = 1e-12
QUAD_TOL = 1e-6


def fast_schedule(log_t):
    """log gamma for gamma(t) = (2 + t)^-2, fast enough for a desk ladder."""
    return -2.0 * math.log(2.0 + math.exp(log_t))


@pytest.fixture(scope="module")
def power_spec():
    return cx.build_counterexample("power", 2, 2, 4,
                                   gamma_log=cx.inverse_log_weight)


@pytest.fixture(scope="module")
def log_spec():
    spec = cx.build_counterexample("log", 1, 2, 3)
    cx.fit_log_weight_exponent(spec)
    return spec


@pytest.fixture(scope="module")
def desk_spec():
    # fast threshold weight so a small explicit ladder clears the schedule
    return cx.build_counterexample("power", 2, 2, 3,
                                   gamma_log=fast_schedule,
                                   k_seq=(10, 30, 90))


class TestSelection:
    def test_single_block_base_case(self):
        spec = cx.build_counterexample("power", 2, 2, 1,
                                       gamma_log=cx.inverse_log_weight)
        assert len(spec.blocks) == 1
        assert math.exp(spec.blocks[0].log_k) >= 3.0 - 1e-9

    def test_default_ladder_pinned(self, power_spec):
        got = [b.log_k for b in power_spec.blocks]
        want = [1.0986122886681098, 18.94667894580139,
                303.14563328652446, 4850.330132584395]
        assert np.allclose(got, want, rtol=LADDER_TOL)

    def test_orders_grow_at_least_threefold(self, power_spec):
        logs = [b.log_k for b in power_spec.blocks]
        assert all(b - a >= math.log(3.0) - 1e-12
                   for a, b in zip(logs[:-1], logs[1:]))

    def test_coefficients_decay(self, power_spec):
        coeffs = [b.coeff_log for b in power_spec.blocks]
        assert all(b < a for a, b in zip(coeffs[:-1], coeffs[1:]))

    def test_first_order_must_be_three(self):
        with pytest.raises(ValueError, match="at least 3"):
            cx.build_counterexample("power", 2, 2, 3,
                                    gamma_log=fast_schedule,
                                    k_seq=(2, 6, 18))

    def test_threefold_growth_enforced(self):
        with pytest.raises(ValueError, match="threefold"):
            cx.build_counterexample("power", 2, 2, 3,
                                    gamma_log=fast_schedule,
                                    k_seq=(10, 15, 90))

    def test_window_separation_enforced(self):
        # ratio exactly 3 from k=3: window tops at 3+sqrt(3) > 9/2 fails
        with pytest.raises(ValueError, match="separated"):
            cx.build_counterexample("power", 2, 2, 2,
                                    gamma_log=fast_schedule,
                                    k_seq=(3, 9))

    def test_threshold_schedule_must_decrease(self):
        # 1/log shrinks too slowly for a geometric desk ladder
        with pytest.raises(ValueError, match="strictly decrease"):
            cx.build_counterexample("power", 2, 2, 3,
                                    gamma_log=cx.inverse_log_weight,
                                    k_seq=(10, 30, 90))

    @pytest.mark.parametrize("gamma_log", [lambda log_t: 0.1 * log_t,
                                           lambda log_t: -1.0])
    def test_non_decreasing_schedule_refused_by_name(self, gamma_log):
        with pytest.raises(ValueError, match="gamma_log must decrease"):
            cx.build_counterexample("power", 2, 2, 3, gamma_log=gamma_log)

    def test_schedule_that_cannot_halve_is_refused_by_name(self):
        # at alpha = 3 the 1/log schedule halves for four rungs, not five
        with pytest.raises(ValueError, match="cannot halve"):
            cx.build_counterexample("power", 3, 2, 5,
                                    gamma_log=cx.inverse_log_weight)

    def test_log_ladder_without_envelope_decay_is_refused_by_name(self):
        # at rho = 0 the envelope never falls below the shrinking floor
        fit = cx.fit_block_constants("log", 1, k_fit=(3, 9, 27))
        with pytest.raises(ValueError, match="no admissible order"):
            cx.select_k_sequence(1, cx._dominance_rung(1.0, {**fit, "rho": 0.0}, 0.25))

    @pytest.mark.parametrize("k_seq", [None, (10, 30, 90)], ids=["selected", "k_seq"])
    def test_power_ladder_needs_a_schedule(self, k_seq, monkeypatch):
        calls = []
        monkeypatch.setattr(cx, "fit_block_constants",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="needs a threshold schedule"):
            cx.build_counterexample("power", 2, 2, 3, k_seq=k_seq)
        assert calls == []

    @pytest.mark.parametrize("N,error,words", [
        (1, ValueError, "no admissible order"),
        (2, ArithmeticError, "failed to stabilise"),
    ])
    def test_short_log_ladders_are_refused(self, N, error, words):
        # one order makes the refit's e_factor 0/0, a nan gap that no order
        # passes; two orders never stabilise against their refit
        with pytest.raises(error, match=words), np.errstate(invalid="ignore"):
            cx.build_counterexample("log", 1, 2, N)

    @pytest.mark.parametrize("variant", ["cubic", "shift"])
    def test_unknown_variant_rejected(self, variant):
        with pytest.raises(ValueError, match="unknown variant"):
            cx.build_counterexample(variant, 2, 2, 2)


class TestFittedConstants:
    def test_power_constants_pinned(self, power_spec):
        assert math.isclose(power_spec.c1, 0.046524831327269776, rel_tol=1e-9)
        assert power_spec.c2 == 1.0
        assert math.isclose(power_spec.rho, 0.12851572951468, rel_tol=1e-9)

    def test_constants_positive(self, power_spec, log_spec):
        for spec in (power_spec, log_spec):
            assert spec.c1 > 0 and spec.c2 > 0 and spec.rho > 0

    def test_fit_reports_all_pass(self):
        fit = cx.fit_block_constants("power", 2, beta=2.5, k_fit=(3, 16))
        assert fit["c1"] > 0 and fit["rho"] > 0
        for k, reports in fit["reports"].items():
            assert [r.name for r in reports] == ["X6"] and reports[0].passed
            # the families the fit reads must satisfy all of Prop 5.2
            fam = build_family("power", k, 2, beta=2.5)
            full = verify_prop52(fam, *prop52_inputs(
                fam, default_z_samples(fam, n=8, seed=7)))
            assert all(r.passed for r in full)

    def test_fit_evaluates_no_transform_or_z_sample(self, monkeypatch):
        # the constants read only the |N| envelope and window floors, so
        # the fit must never pay for L, G or the z samples that G needs
        calls = []

        def no_work(name):
            def record(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called by the ladder fit")
            return record

        for name in ("green_G", "laplace_L_log", "default_z_samples"):
            monkeypatch.setattr(cx, name, no_work(name))
            monkeypatch.setattr(atoms, name, no_work(name))
        cx.fit_block_constants("log", 1, k_fit=(3, 9, 27))
        cx.fit_block_constants("power", 2, beta=2.5, k_fit=(3, 16))
        assert calls == []


class TestTrainSums:
    def test_zero_at_origin(self, power_spec):
        assert cx.f_sum_eval(power_spec, 0.0) == 0.0
        assert cx.g_sum_eval(power_spec, 0.0) == 0.0

    def test_negative_time_rejected(self, power_spec):
        with pytest.raises(ValueError, match="nonnegative"):
            cx.f_sum_eval(power_spec, -1.0)

    def test_g_is_minus_integral_of_f(self, power_spec):
        for t in (1.5, 3.0):
            re = quad(lambda s: cx.f_sum_eval(power_spec, s).real,
                      0.0, t, limit=400)[0]
            im = quad(lambda s: cx.f_sum_eval(power_spec, s).imag,
                      0.0, t, limit=400)[0]
            g = cx.g_sum_eval(power_spec, t)
            assert abs(g + (re + 1j * im)) <= QUAD_TOL * max(1.0, abs(g))

    def test_small_block_far_past_its_order(self, desk_spec):
        # t far beyond the first order: the exact series for that block
        # caps out and the fused envelope must take over in the skip pass
        g = cx.g_sum_eval(desk_spec, 180.0)
        assert np.isfinite(g.real) and np.isfinite(g.imag)
        assert abs(g) < 1e-10

    def test_out_of_range_order_refused(self, power_spec):
        t = 2.0 * math.exp(power_spec.blocks[1].log_k)
        with pytest.raises(ValueError, match="window tools"):
            cx.g_sum_eval(power_spec, t)


class TestFarFieldEnvelope:
    def test_g_below_bump_envelope_sum(self, desk_spec):
        envs = []
        for b in desk_spec.blocks:
            rep = [r for r in verify_prop52(b.fam, *prop52_inputs(b.fam))
                   if r.name == "X6"][0]
            k = math.exp(b.log_k)
            envs.append((k, b.coeff_log,
                         rep.constants["C"], rep.constants["rho"]))
        for b in desk_spec.blocks:
            t = 2.0 * math.exp(b.log_k)
            total = 0.0
            for k, coeff_log, c, rho in envs:
                scale = (math.log(k) / k) ** (1.0 / desk_spec.alpha)
                bump = (c * scale * math.exp(-rho * (t - k) ** 2 / k)
                        if abs(t - k) < k / 2 else 0.0)
                total += math.exp(coeff_log) * (bump + math.exp(-rho * t))
            assert abs(cx.g_sum_eval(desk_spec, t)) <= total


class TestDivergenceScan:
    def test_power_windows_all_pass(self, power_spec):
        scan = cx.divergence_scan(power_spec)
        assert len(scan) == 4
        assert all(w.passed for w in scan)

    def test_power_contributions_strictly_increase(self, power_spec):
        contribs = [w.contribution_log for w in cx.divergence_scan(power_spec)]
        assert all(b > a for a, b in zip(contribs[:-1], contribs[1:]))

    def test_windows_ordered_and_disjoint(self, power_spec):
        scan = cx.divergence_scan(power_spec)
        for a, b in zip(scan[:-1], scan[1:]):
            assert a.t_hi < b.t_lo

    def test_window_minimum_clears_floor(self, power_spec):
        for w in cx.divergence_scan(power_spec):
            if math.isfinite(w.floor_log):
                assert w.min_log_abs_g >= w.floor_log

    @pytest.mark.parametrize("contribs,increase", [
        ([1.0, 2.0, 3.0], True),
        ([1.0, 2.0, 2.0], False),
        ([-math.inf, 0.0, 1.0], True),
        ([-math.inf, -math.inf, 1.0], False),
        ([2.0, 1.0], False),
        ([5.0], True),
    ], ids=["rising", "tie", "leading-minus-inf", "minus-inf-tie", "falling", "one"])
    def test_contributions_increase_strictly(self, contribs, increase):
        reports = [SimpleNamespace(contribution_log=c) for c in contribs]
        assert cx.contributions_increase(reports) is increase

    def test_single_block_scan(self):
        spec = cx.build_counterexample("power", 2, 2, 1,
                                       gamma_log=cx.inverse_log_weight)
        scan = cx.divergence_scan(spec)
        assert len(scan) == 1 and scan[0].passed


class TestLogSumExp:
    """The scan's in-house logsumexp is scipy's, bit for bit."""

    @staticmethod
    def _arrays(rng):
        for size in range(1, 49):
            for spread in (0.0, 1e-12, 1.0, 30.0, 1e3):
                for offset in (-800.0, 0.0, 800.0):
                    a = offset + spread * rng.standard_normal(size)
                    yield a
                    ties = rng.integers(0, size, rng.integers(1, size + 1))
                    b = a.copy()
                    b[ties] = a.max()
                    yield b

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(2024)
        mismatches = [a for _ in range(2) for a in self._arrays(rng)
                      if cx._logsumexp(a).hex() != float(logsumexp(a)).hex()]
        assert mismatches == []

    def test_tied_maxima_are_counted_apart(self):
        # every entry is a maximum: the shifted sum is empty and s stays 0
        assert cx._logsumexp(np.full(3, 1.0)) == math.log(3.0) + 1.0


class TestLogVariant:
    def test_scan_requires_fitted_exponent(self):
        spec = cx.build_counterexample("log", 1, 2, 3)
        with pytest.raises(ValueError, match="fit it first"):
            cx.divergence_scan(spec)

    def test_fitted_exponent(self, log_spec):
        assert log_spec.gamma_exp == 4.0

    def test_fit_raises_at_the_cap(self, monkeypatch):
        # flat contributions never increase: the rate doubles 1, 2, 4, 8,
        # stops at the cap 4p + 1 = 9 and raises there
        spec = cx.build_counterexample("log", 1, 2, 3)
        tried = []

        def flat(spec, nodes=24):
            tried.append(spec.gamma_exp)
            return [SimpleNamespace(contribution_log=0.0)] * 3

        monkeypatch.setattr(cx, "divergence_scan", flat)
        with pytest.raises(ArithmeticError,
                           match=r"window contributions fail to increase: \[0.0, 0.0, 0.0\]"):
            cx.fit_log_weight_exponent(spec)
        assert tried == [1.0, 2.0, 4.0, 8.0, 9.0]

    def test_log_contributions_increase_and_pass(self, log_spec):
        scan = cx.divergence_scan(log_spec)
        assert len(scan) == 3
        assert all(w.passed for w in scan)
        contribs = [w.contribution_log for w in scan]
        assert all(b > a for a, b in zip(contribs[:-1], contribs[1:]))


class TestSeriesCalls:
    """The window scan asks the series for each grid of nodes once."""

    @pytest.fixture
    def series_calls(self, monkeypatch):
        calls = []

        def counted(fam, t):
            calls.append(np.size(t))
            return atoms.primitive_N_log(fam, t)

        monkeypatch.setattr(cx, "primitive_N_log", counted)
        return calls

    def test_one_call_per_desk_block_in_each_window(self, log_spec, series_calls):
        # three windows, each summing the three desk blocks at its 24 nodes
        cx.divergence_scan(log_spec)
        assert series_calls == [24] * 9

    @pytest.mark.parametrize("variant,alpha,beta,k", [("power", 2.0, 1.25, 16),
                                                      ("log", 1.0, None, 27)])
    def test_one_call_per_window_floor_sweep(self, series_calls, variant, alpha, beta, k):
        cx._window_floor_log(variant, alpha, beta, math.log(k))
        assert series_calls == [81]


class TestShiftSuite:
    def test_report_names_and_verdicts(self):
        reports = cx.shift_semigroup_suite(2, 2, k_list=(20,))
        assert [r.name for r in reports] == [
            "T1", "T5", "T6", "73b", "shift-tail-identity"]
        assert all(r.passed for r in reports)


class TestInverseLogWeight:
    def test_pinned_values(self):
        # gamma(0) = 1/log 2 and gamma(e - 2) = 1
        assert math.isclose(cx.inverse_log_weight(-math.inf),
                            -math.log(math.log(2.0)), rel_tol=SUM_TOL)
        assert math.isclose(cx.inverse_log_weight(math.log(math.e - 2.0)),
                            0.0, abs_tol=SUM_TOL)

    @seed(12)
    @given(st.floats(min_value=-30.0, max_value=29.0),
           st.floats(min_value=-30.0, max_value=29.0))
    def test_decreasing(self, s, t):
        lo, hi = sorted((s, t))
        assert cx.inverse_log_weight(lo) >= cx.inverse_log_weight(hi)

    def test_log_companion_matches_direct(self):
        # past log t = 30 the schedule drops the exact exp; wherever e^{log t}
        # is still a float the two forms must agree
        for log_t in np.linspace(30.0, 700.0, 68):
            direct = -math.log(math.log(2.0 + math.exp(log_t)))
            assert math.isclose(cx.inverse_log_weight(log_t), direct,
                                rel_tol=1e-12)

    def test_log_companion_beyond_float_range(self):
        # log(2 + t) == log t to double precision once t = e^1000
        assert math.isclose(cx.inverse_log_weight(1000.0), -math.log(1000.0),
                            rel_tol=1e-15)
