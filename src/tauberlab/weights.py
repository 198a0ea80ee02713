"""Growth-rate functions, the composite weight, and its inverses.

A rate function M maps frequency s >= 0 to a bound M(s) >= 2 (families are
clamped at 2 from below, so small-s values never need special casing).
From M we build

    M_log(s) = M(s) * (log(1 + M(s)) + log(1 + s)),

its inverse (bracketing bisection; M_log is strictly increasing), the
time-side weight w(t) = 1 until M_log(1) and M_log^{-1} afterwards, and
the membership test for the open spectral region
{lambda : Re lambda > -1/M(|Im lambda|)}.

m_log_eval, m_log_inverse and w_m_log map a scalar to a Python float and an
array to an array of its shape, each point bit for bit as if alone: M through
numpy, then log1p and the product per point in math (np.log1p is not bit-equal).

Also here: the two growth estimates tying M(w(t)) to t/log t, and the
doubling-ladder convergence check for the weighted tail integral
int R(t)^(-alpha) M(R(t))^(-beta) dt.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import FitReport, ladder_report

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

    def __post_init__(self):
        if not (math.isfinite(self.level) and self.level > 0):
            raise ValueError(f"constant rate needs a finite level > 0, got {self.level}")

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


def _shaped(values: np.ndarray, like: np.ndarray):
    """values in the shape of like; a Python float when like is 0-d."""
    return float(values[0]) if like.ndim == 0 else values.reshape(like.shape)


def m_log_eval(M: RateFunction, s):
    """M_log(s) = M(s) * (log(1+M(s)) + log(1+s)); strictly increasing."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError(f"m_log_eval needs s >= 0, got {s[s < 0].flat[0]}")
    m = np.asarray(M(s.ravel()), dtype=float).tolist()
    vals = [a * (math.log1p(a) + math.log1p(b)) for a, b in zip(m, s.ravel().tolist())]
    return _shaped(np.array(vals, dtype=float), s)


def m_log_inverse(M: RateFunction, t):
    """Solve M_log(s) = t at each point of a scalar or array t.

    Each point doubles its own bracket from s = 1, then bisects until
    |M_log(s) - t| <= 1e-10 (absolute) or, at t so large that floats near s
    are coarser, until the bracket is a few ulps wide (s at float
    resolution).  M_log is strictly increasing, so the root is unique.  A t
    past M_log(2^1023) is inf at once: its bracket would double to
    [2^1023, inf], whose midpoint is inf.
    """
    t = np.asarray(t, dtype=float)
    y = t.ravel()
    with np.errstate(over="ignore"):
        floor, top = m_log_eval(M, np.array([0.0, 2.0 ** 1023]))
    if np.any(y < floor - _INVERSE_TOL):
        raise ValueError(f"m_log_inverse: t={y[y < floor - _INVERSE_TOL][0]:g} "
                         f"below M_log(0)={floor:g}")
    lo, hi = np.zeros(y.size), np.ones(y.size)
    past = y > top
    lo[past] = hi[past] = math.inf
    todo = live = np.flatnonzero(~(y <= floor) & ~past)  # live: brackets still open
    for _ in range(2200):
        live = live[~(m_log_eval(M, hi[live]) >= y[live])]
        if live.size == 0:
            break
        with np.errstate(over="ignore"):  # as a Python float, hi may double to inf
            lo[live], hi[live] = hi[live], hi[live] * 2.0
    else:
        raise ValueError(f"m_log_inverse: no bracket below s={hi[live[0]]:g} for t={y[live[0]]:g}")
    # bisect on the residual, not the interval: the tolerance is on the value;
    # each point returns the midpoint of its last bracket
    live = todo
    for _ in range(400):
        mid = 0.5 * (lo[live] + hi[live])
        val = m_log_eval(M, mid)
        going = ~(np.abs(val - y[live]) <= _INVERSE_TOL)
        live, mid, below = live[going], mid[going], (val < y[live])[going]
        lo[live[below]], hi[live[~below]] = mid[below], mid[~below]
        live = live[~(hi[live] - lo[live] <= 1e-17 * np.maximum(1.0, hi[live]))]
        if live.size == 0:
            break
    return _shaped(np.where(y <= floor, 0.0, 0.5 * (lo + hi)), t)


def w_m_log(M: RateFunction, t):
    """w(t) = 1 for t <= M_log(1), else M_log^{-1}(t), at a scalar or array t.

    Continuous at the junction since M_log^{-1}(M_log(1)) = 1.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"w_m_log needs t >= 0, got {t[t < 0].flat[0]}")
    w = np.ones(t.size)
    past = ~(t.ravel() <= m_log_eval(M, 1.0))
    w[past] = m_log_inverse(M, t.ravel()[past])
    return _shaped(w, t)


def omega_m_contains(M: RateFunction, lam: complex) -> bool:
    """Open spectral-region test: Re lam > -1/M(|Im lam|) (boundary out)."""
    lam = complex(lam)
    return lam.real > -1.0 / float(M(abs(lam.imag)))


def check_growth_bounds(M: RateFunction) -> FitReport:
    """Fit C (and for power families c) in  c*t/log t <= M(w(t)) <= C*t/log t.

    The grid is 240 geometric points from 2 to 1e6, or to where w itself
    would overflow (log-growth families).  Constants are fitted on a coarse
    subgrid (every third point, the last and the two around the clamp's
    kink t = M_log(clamp_point()); max/min of pointwise ratios, padded by a
    0.1% refinement allowance for peaks that land between the coarse
    samples) and the residuals reported from the full grid, so the fit is
    honest evidence rather than tautology.  The lower estimate needs the growth hypothesis
    M(s) >= kappa*s^alpha and is skipped for the other families.
    """
    with np.errstate(over="ignore"):
        t_cap = min(1e6, 0.9 * m_log_eval(M, 1e300))
    t_grid = np.geomspace(2.0, max(4.0, t_cap), 240)

    target = t_grid / np.log(t_grid)
    m_of_r = np.asarray(M(w_m_log(M, t_grid)), dtype=float)
    ratios = m_of_r / target

    # the endpoints carry the extrema; the ratio can dip just past the kink
    kink = int(np.searchsorted(t_grid, m_log_eval(M, M.clamp_point())))
    coarse = np.r_[ratios[::3], ratios[-1], ratios[max(kink - 1, 0):kink + 1]]
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


def weighted_tail_convergence(M: RateFunction, alpha: float,
                              beta: float) -> tuple[FitReport, list[float]]:
    """Evidence that int_2^inf w(t)^(-alpha) M(w(t))^(-beta) dt converges.

    Integrates the 19 dyadic blocks [2^j, 2^(j+1)] up to 2^20 with 16-node
    Gauss-Legendre panels (one weight solve for all nodes; the integrand in
    Python floats, as numpy's power differs from ** in the last bit) and
    judges the increments by reports.ladder_report.  Returns the report and
    the increments.  beta > 1 and alpha > 0 are hard preconditions.
    """
    if beta <= 1.0:
        raise ValueError(f"weighted_tail_convergence needs beta > 1, got {beta}")
    if alpha <= 0.0:
        raise ValueError(f"weighted_tail_convergence needs alpha > 0, got {alpha}")
    edges = 2.0 ** np.arange(1, 21)
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes, wts = np.polynomial.legendre.leggauss(16)
    r = w_m_log(M, half[:, None] * nodes + 0.5 * (edges[:-1] + edges[1:])[:, None])
    vals = np.array([[ri ** (-alpha) * mi ** (-beta) for ri, mi in zip(r_row, m_row)]
                     for r_row, m_row in zip(r.tolist(), np.asarray(M(r), dtype=float).tolist())])
    increments = [h * float(np.dot(wts, v)) for h, v in zip(half.tolist(), vals)]
    return ladder_report("weighted-tail-ladder", increments), increments
