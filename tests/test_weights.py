"""Rate families, the composite log-scale, its inverse, and the decay weight."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, strategies as st

from tauberlab.weights import (
    RATE_FLOOR,
    AffineRate,
    ConstantRate,
    LogRate,
    PowerRate,
    check_growth_bounds,
    m_log_eval,
    m_log_inverse,
    omega_m_contains,
    w_m_log,
    weighted_tail_convergence,
)

EVAL_TOL = 1e-12
INV_TOL = 1e-10


# ----------------------------------------------------------------------
# rate families: derivative and clamp point
# ----------------------------------------------------------------------

@pytest.mark.parametrize("M", [ConstantRate(2.0), PowerRate(0.5, 1.5),
                               LogRate(2.0), AffineRate(0.5, 1.5)],
                         ids=lambda M: type(M).__name__)
def test_rate_derivative_and_clamp_point(M):
    kink = M.clamp_point()
    # past the kink, deriv is the slope of the clamped M
    for s in kink + np.array([0.25, 1.0, 4.0, 20.0]):
        h = 1e-6 * (1.0 + s)
        central = (float(M(s + h)) - float(M(s - h))) / (2.0 * h)
        assert float(M.deriv(s)) == pytest.approx(central, rel=1e-6, abs=1e-9)
    if kink > 0.0:
        # the raw formula meets the floor at the kink; below it M is flat
        assert float(M.raw(kink)) == pytest.approx(RATE_FLOOR, rel=1e-12)
        for s in kink * np.array([0.1, 0.5, 0.9]):
            assert float(M.deriv(s)) == 0.0
            assert float(M(s)) == RATE_FLOOR


# ----------------------------------------------------------------------
# m_log_eval
# ----------------------------------------------------------------------

def test_composite_scale_constant_at_zero():
    assert m_log_eval(ConstantRate(2.0), 0.0) == pytest.approx(2.0 * math.log(3.0), abs=EVAL_TOL)


def test_composite_scale_constant_at_two():
    # value 2 at s = 2: both log factors collapse to log 3
    assert m_log_eval(ConstantRate(2.0), 2.0) == pytest.approx(4.0 * math.log(3.0), abs=EVAL_TOL)


def test_composite_scale_linear_family():
    # max(2, s) at s = 10 -> 10 (log 11 + log 11)
    assert m_log_eval(PowerRate(1.0, 1.0), 10.0) == pytest.approx(20.0 * math.log(11.0), rel=EVAL_TOL)


def test_composite_scale_rejects_negative_argument():
    with pytest.raises(ValueError):
        m_log_eval(ConstantRate(2.0), -0.5)


@seed(2)
@given(st.floats(min_value=0.0, max_value=1e8), st.floats(min_value=1e-6, max_value=1e8))
def test_composite_scale_strictly_increasing(s, gap):
    M = PowerRate(1.0, 2.0)
    assert m_log_eval(M, s) < m_log_eval(M, s + gap)


# ----------------------------------------------------------------------
# m_log_inverse
# ----------------------------------------------------------------------

def test_inverse_at_left_endpoint():
    t0 = 2.0 * math.log(3.0)
    assert m_log_inverse(ConstantRate(2.0), t0) == pytest.approx(0.0, abs=INV_TOL)


def test_inverse_rejects_below_range():
    with pytest.raises(ValueError):
        m_log_inverse(ConstantRate(2.0), 0.5 * math.log(3.0))


@seed(3)
@given(st.floats(min_value=0.0, max_value=25.0))
def test_inverse_round_trip(u):
    # 100 random targets drawn from the image of the forward map
    M = PowerRate(1.0, 1.0)
    t = m_log_eval(M, 0.0) + math.expm1(u)
    assert abs(m_log_eval(M, m_log_inverse(M, t)) - t) <= INV_TOL * max(1.0, abs(t))


def test_inverse_residual_deep_in_range():
    M = PowerRate(1.0, 2.0)
    s = m_log_inverse(M, 1e4)
    assert abs(m_log_eval(M, s) - 1e4) <= 1e-10 * 1e4


# ----------------------------------------------------------------------
# w_m_log
# ----------------------------------------------------------------------

def test_weight_is_one_at_zero():
    for M in (ConstantRate(2.0), PowerRate(1.0, 1.0), LogRate(1.0), AffineRate(2.0, 1.0)):
        assert w_m_log(M, 0.0) == 1.0


def test_weight_continuous_at_junction():
    M = PowerRate(1.0, 1.0)
    t_star = m_log_eval(M, 1.0)
    below = w_m_log(M, t_star * (1.0 - 1e-9))
    above = w_m_log(M, t_star * (1.0 + 1e-9))
    assert below == 1.0
    assert above == pytest.approx(1.0, abs=1e-6)


def test_weight_nondecreasing_on_grid():
    M = PowerRate(1.0, 1.0)
    vals = [w_m_log(M, t) for t in np.geomspace(1.0, 1e6, 50)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# omega_m_contains
# ----------------------------------------------------------------------

def test_region_accepts_right_half_plane_point():
    assert omega_m_contains(ConstantRate(2.0), 1.0 + 1e6j)


def test_region_rejects_deep_left_point():
    assert not omega_m_contains(ConstantRate(2.0), -1.0 + 0.0j)


def test_region_boundary_is_excluded():
    M = PowerRate(1.0, 1.0)
    lam = complex(-1.0 / M(5.0), 5.0)
    assert not omega_m_contains(M, lam)


@seed(4)
@given(
    st.floats(min_value=-0.4, max_value=2.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_region_membership_monotone_in_real_part(re, im, shift):
    M = PowerRate(1.0, 1.0)
    if omega_m_contains(M, complex(re, im)):
        assert omega_m_contains(M, complex(re + shift, im))


# ----------------------------------------------------------------------
# check_growth_bounds
# ----------------------------------------------------------------------

def test_growth_fit_power_family_explicit_grid():
    rep = check_growth_bounds(PowerRate(1.0, 2.0), t_grid=np.geomspace(10.0, 1e6, 200))
    assert rep.passed
    assert math.isfinite(rep.constants["C"]) and rep.constants["C"] > 0


def test_growth_fit_power_family_has_positive_lower_constant():
    rep = check_growth_bounds(PowerRate(2.0, 1.5))
    assert rep.passed
    assert rep.constants["c"] > 0


def test_growth_fit_slow_family_skips_lower_bound():
    rep = check_growth_bounds(LogRate(1.0))
    assert rep.passed
    assert "c" not in rep.constants
    assert "lower" in rep.notes


@pytest.mark.parametrize("M", [ConstantRate(2.0), PowerRate(1.0, 1.0), PowerRate(1.0, 2.0), AffineRate(2.0, 0.5)])
def test_growth_fit_single_constant_across_grid(M):
    assert check_growth_bounds(M).passed


# ----------------------------------------------------------------------
# weighted_tail_convergence
# ----------------------------------------------------------------------

def test_tail_increments_shrink_for_power_family():
    rep, inc = weighted_tail_convergence(PowerRate(1.0, 1.0), 1.0, 2.0)
    assert rep.passed
    assert all(inc[i + 1] < inc[i] for i in range(len(inc) - 6, len(inc) - 1))


def test_tail_converges_for_constant_family():
    assert weighted_tail_convergence(ConstantRate(2.0), 1.0, 2.0)[0].passed


def test_tail_rejects_unit_exponent():
    with pytest.raises(ValueError):
        weighted_tail_convergence(PowerRate(1.0, 1.0), 1.0, 1.0)


@pytest.mark.parametrize("t_max", [2.0, 16.0])
def test_short_tail_ladder_is_rejected_before_any_block(t_max, monkeypatch):
    # T_max = 2 gives no block and T_max = 16 three: too few ratios to judge
    calls = []
    monkeypatch.setattr("tauberlab.weights.w_m_log",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="T_max"):
        weighted_tail_convergence(PowerRate(1.0, 1.0), 1.0, 2.0, T_max=t_max)
    assert calls == []


def test_shortest_tail_ladder_has_four_blocks():
    rep, inc = weighted_tail_convergence(PowerRate(1.0, 1.0), 1.0, 2.0, T_max=17.0)
    assert len(inc) == 4
    assert rep.grid.startswith("4 dyadic blocks")


def test_tail_report_round_trips_to_dict():
    rep, inc = weighted_tail_convergence(ConstantRate(2.0), 1.0, 2.0)
    d = rep.as_dict()
    assert d["passed"] is True
    assert d["constants"]["estimate"] == pytest.approx(rep.constants["estimate"])
    assert d["constants"]["total"] == sum(inc)
