"""Growth-rate functions, the composite weight, and its inverses.

A rate function M maps frequency s >= 0 to a bound M(s) >= 2 (families are
clamped at 2 from below, so small-s values never need special casing).
From M we build

    M_log(s) = M(s) * (log(1 + M(s)) + log(1 + s)),

its inverse (bracketing bisection; M_log is strictly increasing), the
time-side weight w(t) = 1 until M_log(1) and M_log^{-1} afterwards, and
the membership test for the open spectral region
{lambda : Re lambda > -1/M(|Im lambda|)}.

Also here: the two growth estimates tying M(w(t)) to t/log t, and the
doubling-ladder convergence check for the weighted tail integral
int R(t)^(-alpha) M(R(t))^(-beta) dt.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import LADDER_MIN_RATIOS, FitReport, ladder_report

__all__ = [
    "RateFunction",
    "ConstantRate",
    "PowerRate",
    "LogRate",
    "AffineRate",
    "m_log_eval",
    "m_log_inverse",
    "w_m_log",
    "omega_m_contains",
    "check_growth_bounds",
    "weighted_tail_convergence",
]

RATE_FLOOR = 2.0  # all families are clamped at this level from below
GROWTH_FIT_PAD = 1e-3  # coarse-fit allowance for peaks between samples
_INVERSE_TOL = 1e-10  # m_log_inverse returns s with |M_log(s) - t| <= this


class RateFunction:
    """Base class: continuous nondecreasing M with M(s) >= 2.

    Subclasses implement raw() (the unclamped formula) and raw_deriv();
    __call__ applies the floor clamp.  All evaluators accept scalars or
    numpy arrays.
    """

    def raw(self, s):
        raise NotImplementedError

    def raw_deriv(self, s):
        raise NotImplementedError

    def __call__(self, s):
        return np.maximum(RATE_FLOOR, self.raw(s))

    def deriv(self, s):
        """Derivative of the clamped M (0 inside the clamped region)."""
        return np.where(self.raw(s) > RATE_FLOOR, self.raw_deriv(s), 0.0)

    def clamp_point(self) -> float:
        """Smallest s with raw(s) >= 2, or 0.0 if raw never dips below 2.

        Used to place deterministic panel breaks where the clamp kinks the
        boundary curve.
        """
        return 0.0


@dataclass(frozen=True)
class ConstantRate(RateFunction):
    level: float = 2.0

    def raw(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.level) if np.ndim(s) else self.level

    def raw_deriv(self, s):
        return np.zeros_like(np.asarray(s, dtype=float)) if np.ndim(s) else 0.0


@dataclass(frozen=True)
class PowerRate(RateFunction):
    kappa: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        if self.kappa <= 0 or self.alpha <= 0:
            raise ValueError("power rate needs kappa > 0 and alpha > 0")

    def raw(self, s):
        return self.kappa * np.power(s, self.alpha)

    def raw_deriv(self, s):
        return self.kappa * self.alpha * np.power(s, self.alpha - 1.0)

    def clamp_point(self) -> float:
        return float((RATE_FLOOR / self.kappa) ** (1.0 / self.alpha))


@dataclass(frozen=True)
class LogRate(RateFunction):
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("log rate needs alpha > 0")

    def raw(self, s):
        return np.power(np.log(2.0 + np.asarray(s, dtype=float)), self.alpha)

    def raw_deriv(self, s):
        s = np.asarray(s, dtype=float)
        return self.alpha * np.power(np.log(2.0 + s), self.alpha - 1.0) / (2.0 + s)

    def clamp_point(self) -> float:
        return float(math.exp(RATE_FLOOR ** (1.0 / self.alpha)) - 2.0)


@dataclass(frozen=True)
class AffineRate(RateFunction):
    offset: float = 0.0
    slope: float = 1.0

    def __post_init__(self):
        if self.slope < 0 or self.offset < 0:
            raise ValueError("affine rate needs nonnegative offset and slope")

    def raw(self, s):
        return self.offset + self.slope * np.asarray(s, dtype=float) if np.ndim(s) else self.offset + self.slope * s

    def raw_deriv(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.slope) if np.ndim(s) else self.slope

    def clamp_point(self) -> float:
        if self.offset >= RATE_FLOOR or self.slope == 0:
            return 0.0
        return (RATE_FLOOR - self.offset) / self.slope


def m_log_eval(M: RateFunction, s: float) -> float:
    """M_log(s) = M(s) * (log(1+M(s)) + log(1+s)); strictly increasing."""
    s = float(s)
    if s < 0:
        raise ValueError(f"m_log_eval needs s >= 0, got {s}")
    m = float(M(s))
    return m * (math.log1p(m) + math.log1p(s))


def m_log_inverse(M: RateFunction, t: float) -> float:
    """Solve M_log(s) = t by bracket doubling + bisection.

    Returns s with |M_log(s) - t| <= 1e-10.  M_log is strictly increasing
    (the log(1+s) factor grows even where M is clamped flat), so the root
    is unique.
    """
    t = float(t)
    floor = m_log_eval(M, 0.0)
    if t < floor - _INVERSE_TOL:
        raise ValueError(f"m_log_inverse: t={t:g} below M_log(0)={floor:g}")
    if t <= floor:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(2200):
        if m_log_eval(M, hi) >= t:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ValueError(f"m_log_inverse: no bracket below s={hi:g} for t={t:g}")
    # bisect on the residual, not the interval: the tolerance is on the value
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        val = m_log_eval(M, mid)
        if abs(val - t) <= _INVERSE_TOL:
            return mid
        if val < t:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * max(1.0, hi):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def w_m_log(M: RateFunction, t: float) -> float:
    """w(t) = 1 for t <= M_log(1), else M_log^{-1}(t).

    Continuous at the junction since M_log^{-1}(M_log(1)) = 1.
    """
    t = float(t)
    if t < 0:
        raise ValueError(f"w_m_log needs t >= 0, got {t}")
    if t <= m_log_eval(M, 1.0):
        return 1.0
    return m_log_inverse(M, t)


def omega_m_contains(M: RateFunction, lam: complex) -> bool:
    """Open spectral-region test: Re lam > -1/M(|Im lam|) (boundary out)."""
    lam = complex(lam)
    return lam.real > -1.0 / float(M(abs(lam.imag)))


def check_growth_bounds(M: RateFunction, t_grid=None) -> FitReport:
    """Fit C (and for power families c) in  c*t/log t <= M(w(t)) <= C*t/log t.

    Constants are fitted on a coarse subgrid (max/min of pointwise ratios,
    padded by a 0.1% refinement allowance for peaks that land between the
    coarse samples) and the residuals reported from the full grid, so the
    fit is honest evidence rather than tautology.  The lower estimate needs
    the growth hypothesis M(s) >= kappa*s^alpha and is skipped for the
    other families.
    """
    if t_grid is None:
        # stop where the weight itself would overflow (log-growth families)
        with np.errstate(over="ignore"):
            t_cap = min(1e6, 0.9 * m_log_eval(M, 1e300))
        t_grid = np.geomspace(2.0, max(4.0, t_cap), 240)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("check_growth_bounds: empty grid")
    if t_grid.min() < 2.0:
        raise ValueError("check_growth_bounds: grid must lie in [2, inf)")

    target = t_grid / np.log(t_grid)
    m_of_r = np.array([float(M(w_m_log(M, t))) for t in t_grid])
    ratios = m_of_r / target

    coarse = np.r_[ratios[::3], ratios[-1]]  # endpoints carry the extrema
    c_upper = float(np.max(coarse)) * (1.0 + GROWTH_FIT_PAD)
    upper_resid = float(np.min(c_upper * target - m_of_r))
    constants = {"C": c_upper}
    passed = math.isfinite(c_upper) and upper_resid >= -1e-9 * c_upper * float(np.max(target))

    if isinstance(M, PowerRate):
        c_lower = float(np.min(coarse)) * (1.0 - GROWTH_FIT_PAD)
        lower_resid = float(np.min(m_of_r - c_lower * target))
        constants["c"] = c_lower
        passed = passed and c_lower > 0 and lower_resid >= -1e-9 * float(np.max(m_of_r))
        worst = min(upper_resid, lower_resid)
    else:
        worst = upper_resid

    return FitReport(
        name="growth-of-M-along-weight",
        constants=constants,
        worst_residual=worst,
        passed=passed,
    )


def weighted_tail_convergence(
    M: RateFunction, alpha: float, beta: float, T_max: float = 2.0**20
) -> tuple[FitReport, list[float]]:
    """Evidence that int_2^inf w(t)^(-alpha) M(w(t))^(-beta) dt converges.

    Integrates dyadic blocks [2^j, 2^(j+1)] with fixed Gauss-Legendre
    panels and judges the block increments by reports.ladder_report.
    Returns the report and the increments.  beta > 1 is a hard
    precondition; alpha > 0 required likewise; T_max must give at least
    LADDER_MIN_RATIOS + 1 blocks, so the ladder rule sees enough ratios.
    """
    if beta <= 1.0:
        raise ValueError(f"weighted_tail_convergence needs beta > 1, got {beta}")
    if alpha <= 0.0:
        raise ValueError(f"weighted_tail_convergence needs alpha > 0, got {alpha}")
    edges = [2.0]
    while edges[-1] < T_max:
        edges.append(min(2.0 * edges[-1], T_max))
    if len(edges) - 1 < LADDER_MIN_RATIOS + 1:
        raise ValueError(f"weighted_tail_convergence needs T_max to give at least "
                         f"{LADDER_MIN_RATIOS + 1} dyadic blocks from 2, got "
                         f"{len(edges) - 1} for T_max={T_max:g}")

    nodes, wts = np.polynomial.legendre.leggauss(16)

    def block(a: float, b: float) -> float:
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        vals = []
        for t in x:
            r = w_m_log(M, t)
            vals.append(r ** (-alpha) * float(M(r)) ** (-beta))
        return 0.5 * (b - a) * float(np.dot(wts, vals))

    increments = [block(a, b) for a, b in zip(edges[:-1], edges[1:])]
    return ladder_report("weighted-tail-ladder", increments), increments
