"""Rate families, the composite log-scale, its inverse, and the decay weight."""

import hashlib
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from tauberlab import cli, weights
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


# the scalar path each point of an array call must follow: bracket doubling
# from s = 1, then bisection on the residual, with math.log1p
def _scalar_m_log(M, s):
    m = float(M(s))
    return m * (math.log1p(m) + math.log1p(s))


def _scalar_inverse(M, t):
    floor = _scalar_m_log(M, 0.0)
    if t <= floor:
        return 0.0
    lo, hi = 0.0, 1.0
    while _scalar_m_log(M, hi) < t:
        lo, hi = hi, hi * 2.0
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        val = _scalar_m_log(M, mid)
        if abs(val - t) <= INV_TOL:
            return mid
        lo, hi = (mid, hi) if val < t else (lo, mid)
        if hi - lo <= 1e-17 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _scalar_w(M, t):
    return 1.0 if t <= _scalar_m_log(M, 1.0) else _scalar_inverse(M, t)


ARRAY_FAMILIES = [PowerRate(0.5, 1.5), LogRate(2.0), ConstantRate(2.0), AffineRate(0.5, 1.5)]


@pytest.mark.parametrize("M", ARRAY_FAMILIES, ids=lambda M: type(M).__name__)
@seed(6)
@settings(max_examples=8, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=7.0), min_size=1, max_size=12))
def test_array_calls_match_each_point_alone(M, us):
    floor, junction = m_log_eval(M, 0.0), m_log_eval(M, 1.0)
    t = np.array([math.expm1(u) for u in us]
                 + [floor, floor - 0.5 * INV_TOL, junction,
                    math.nextafter(junction, 0.0), math.nextafter(junction, math.inf)])
    for fn, ref, pts in ((m_log_eval, _scalar_m_log, t),
                         (m_log_inverse, _scalar_inverse, t[t >= floor - INV_TOL]),
                         (w_m_log, _scalar_w, t)):
        out = fn(M, pts.reshape(-1, 1))
        assert out.shape == (pts.size, 1)
        for x, y in zip(pts.tolist(), out[:, 0].tolist()):
            alone = fn(M, x)
            assert type(alone) is float
            assert alone.hex() == y.hex() == ref(M, x).hex(), (fn.__name__, x)


def test_inverse_past_the_last_bracket_is_inf_at_once(monkeypatch):
    # M_log(2^1023) is about 1420 for ConstantRate(2): past it the scalar
    # path doubles its bracket 1,024 times to [2^1023, inf] and answers inf
    M = ConstantRate(2.0)
    top = _scalar_m_log(M, 2.0 ** 1023)
    past = np.full(153, 5000.0)
    edge = np.array([top, math.nextafter(top, 0.0), math.nextafter(top, math.inf)])
    evals = []

    def counted(M, s):
        evals.append(np.size(s))
        return m_log_eval(M, s)

    monkeypatch.setattr(weights, "m_log_eval", counted)
    got = m_log_inverse(M, past)
    assert sum(evals) <= 2
    assert [x.hex() for x in got.tolist()] == [_scalar_inverse(M, 5000.0).hex()] * 153
    assert math.isinf(got[0])
    got = m_log_inverse(M, edge)
    assert [x.hex() for x in got.tolist()] == [_scalar_inverse(M, x).hex() for x in edge]
    assert np.isfinite(got[:2]).all() and math.isinf(got[2])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("M", ARRAY_FAMILIES, ids=lambda M: type(M).__name__)
def test_array_calls_name_a_bad_point(M):
    with pytest.raises(ValueError, match="got -0.25"):
        m_log_eval(M, np.array([1.0, -0.25, 2.0]))
    with pytest.raises(ValueError, match="got -0.25"):
        w_m_log(M, np.array([3.0, -0.25]))
    low = 0.5 * m_log_eval(M, 0.0)
    with pytest.raises(ValueError, match=f"t={low:g} below"):
        m_log_inverse(M, np.array([50.0, low]))
    with pytest.raises(ValueError, match="t=nan"):
        w_m_log(M, np.array([50.0, math.nan]))


@pytest.mark.parametrize("level", [0.0, -3.0, math.inf, math.nan])
def test_constant_rate_needs_a_finite_positive_level(level):
    with pytest.raises(ValueError, match="finite level > 0"):
        ConstantRate(level)


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
    rep = check_growth_bounds(PowerRate(1.0, 2.0))
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


@pytest.mark.parametrize("M", [ConstantRate(2.0), PowerRate(1.0, 1.0), PowerRate(1.0, 2.0), AffineRate(2.0, 0.5)])
def test_growth_fit_single_constant_across_grid(M):
    assert check_growth_bounds(M).passed


@pytest.mark.parametrize("kappa,alpha", [(0.5, 1.5), (0.3, 1.2), (0.5, 2.5), (0.2, 1.5)])
def test_growth_fit_sees_the_dip_past_the_clamp_kink(kappa, alpha):
    # the ratio M(w(t)) log t / t dips just past t = M_log(clamp point),
    # between two coarse samples; the fit holds on every grid point
    rep = check_growth_bounds(PowerRate(kappa, alpha))
    assert rep.passed
    assert rep.worst_residual >= 0


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


def test_tail_report_totals_its_increments():
    rep, inc = weighted_tail_convergence(ConstantRate(2.0), 1.0, 2.0)
    assert rep.passed is True
    assert rep.constants["total"] == sum(inc)


# ----------------------------------------------------------------------
# weights profile, pinned: CSV bodies by sha256, constants by float.hex
# ----------------------------------------------------------------------

# recorded with the scalar, one-point-at-a-time weight inverse; the default
# run is the one perfbench's transform-series workload runs
PROFILE_RUNS = {
    "profile-default": {},
    "profile-log2-tail": {"family": "log", "alpha": "2",
                          "tail-alpha": "1", "tail-beta": "2"},
}
PROFILE_GOLDEN = {
    "profile-default": {
        "csv": {"weights-profile-profile.csv":
                "1ea69d488e5716a0da26c080f140a21e37d734d761785628b970a8b00e3ea5c0"},
        "constants": {"growth": {"C": "0x1.9f69a680e7be7p-1",
                                 "c": "0x1.48be52ee6b52bp-1"}},
        "worst_residual": {"growth": "0x1.b15fc9fff3000p-8"},
        "passed": {"growth": True},
    },
    "profile-log2-tail": {
        "csv": {"weights-profile-profile.csv":
                "027139a5cadc1170b50413629506699c79d1b9ab202cbb1d7fdede9af0ffa142",
                "weights-profile-tail.csv":
                "8b5c0edb842e9ebd74fc8113c7d1eebeaf6ea342bb0b62d46a6ce0b4187ca8ac"},
        "constants": {"growth": {"C": "0x1.85af55fd90d4fp-1"},
                      "tail": {"total": "0x1.06471af18f6d6p+0",
                               "last_increment": "0x1.c02364f2e7b8bp-124",
                               "worst_late_ratio": "0x1.740ec320ccdf7p-13",
                               "binding_rung": "0x1.e000000000000p+3",
                               "estimate": "0x1.06471af18f6d6p+0"}},
        "worst_residual": {"growth": "0x1.2b3b511323400p-8",
                           "tail": "0x1.ccb58be09ac00p-1"},
        "passed": {"growth": True, "tail": True},
    },
}


@pytest.mark.parametrize("run", sorted(PROFILE_RUNS))
def test_weights_profile_is_bit_identical(run, tmp_path):
    scenario = cli.Scenario("weights", "profile",
                            cli._coerce_params("weights", "profile", PROFILE_RUNS[run]),
                            out_dir=str(tmp_path))
    result = cli.ACTIONS[("weights", "profile")].handler(scenario.params)
    paths = [pathlib.Path(p) for p in cli.write_reports(scenario, result, 0.0)]
    assert {
        "csv": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in paths if p.suffix == ".csv"},
        "constants": {suite: {k: float(v).hex() for k, v in consts.items()}
                      for suite, consts in result.constants.items()},
        "worst_residual": {suite: float(v).hex()
                           for suite, v in result.residuals.items()},
        "passed": result.passed,
    } == PROFILE_GOLDEN[run]
