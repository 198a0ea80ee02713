"""Fit reports: the uniform result record for every fitted-constant check,
and the one rule that fits the envelope constants.

A "fitted constant" is the extremal constant making an existential
inequality hold on a finite verification grid (max of pointwise ratios for
an upper bound, min for a lower bound).  Every check in this package
returns one of these records instead of a bare bool so the CLI can emit a
uniform JSON summary.

Every envelope fit follows the one rule kept here: fit_rate pins the decay
rate on the tail points, C is the extremal ratio on the rest padded by
FIT_PAD, and upper_report / floor_report give the residual and verdict.
Every dyadic ladder of weighted integrals is judged by ladder_report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["FitReport", "FIT_PAD", "RHO_CAP", "fit_rate", "tail_fit",
           "box_tail_fit", "upper_report", "floor_report", "LADDER_WINDOW",
           "LADDER_RATIO", "LADDER_MIN_RATIOS", "ladder_report"]

# one-ulp slack so a fitted envelope clears its own binding grid point
FIT_PAD = 1.0 + 1e-12
RHO_CAP = 1.5  # fitted decay rates are capped here for stability
# a ladder converges when, over its last LADDER_WINDOW increments, every
# ratio of consecutive increments is below LADDER_RATIO and there are at
# least LADDER_MIN_RATIOS of them (or the last increment is exactly 0)
LADDER_WINDOW = 5
LADDER_RATIO = 0.9
LADDER_MIN_RATIOS = 3


@dataclass(frozen=True)
class FitReport:
    """Outcome of fitting constants to one inequality on one grid.

    worst_residual is signed slack at the tightest grid point, oriented so
    that >= 0 means the inequality holds there (bound minus value for upper
    bounds, value minus floor for lower bounds).
    """

    name: str
    constants: Mapping[str, float]
    worst_residual: float
    passed: bool


def _log_or_neg_inf(values) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(values > 0, np.log(values), -np.inf)


def fit_rate(values, t) -> float:
    """Largest rho with values <= e^(-rho t), less 1e-9 relative, in [0, RHO_CAP].

    t broadcasts against values; zero values (or none at all) constrain nothing.
    """
    values = np.asarray(values)
    if values.size == 0:
        return RHO_CAP
    lv = _log_or_neg_inf(values)
    rates = np.where(lv == -np.inf, np.inf, -lv / np.maximum(t, 1e-300))
    return max(0.0, min(float(np.min(rates)) * (1.0 - 1e-9), RHO_CAP))


def tail_fit(values, u) -> tuple[float, float]:
    """(C, rho) of values <= C e^(-rho u); C is taken in log space."""
    rho = fit_rate(values, u)
    return FIT_PAD * float(np.exp(np.max(_log_or_neg_inf(values) + rho * u))), rho


def box_tail_fit(values, t, box, tail, shape, scale: float = 1.0):
    """(C, rho, envelope) of values <= C scale 1_box shape(rho) + e^(-rho t).

    box and tail mask the t axis (the last); rho is fitted on the tail
    columns and C on what the decay leaves over in the box columns.
    """
    rho = fit_rate(values[..., tail], t[tail])
    prof = shape(rho)
    with np.errstate(under="ignore"):
        over = np.maximum(values[..., box] - np.exp(-rho * t[box]), 0.0)
        c = FIT_PAD * float(np.max(
            over / (scale * np.broadcast_to(prof, values.shape)[..., box])))
    return c, rho, c * scale * box * prof + np.exp(-rho * t)


def upper_report(name: str, constants: Mapping[str, float], envelope,
                 values) -> FitReport:
    """Passes when every constant is finite, rho (if any) is positive and
    the envelope clears every value."""
    return FitReport(
        name=name, constants=constants,
        worst_residual=float(np.min(envelope - values)),
        passed=(all(math.isfinite(v) for v in constants.values())
                and constants.get("rho", 1.0) > 0
                and bool(np.all(envelope >= values))),
    )


def floor_report(name: str, values, scale: float) -> FitReport:
    """Fit the floor values >= c scale; passes when c > 0 and it clears every value."""
    c = float(np.min(values)) / scale / FIT_PAD
    resid = float(np.min(values - c * scale))
    return FitReport(name=name, constants={"c": c}, worst_residual=resid,
                     passed=c > 0 and resid >= 0)


def ladder_report(name: str, increments) -> FitReport:
    """Judge a dyadic ladder of nonnegative increments by geometric decay.

    Ratios are taken over the last LADDER_WINDOW increments wherever the
    denominator is positive.  Increments that underflow to exact zero are
    stronger evidence than any ratio, so a last increment of 0 needs no
    minimum ratio count.  The estimate extrapolates the tail geometrically
    from the last ratio; it is inf when the ladder fails.
    """
    inc = [float(v) for v in increments]
    first = max(0, len(inc) - LADDER_WINDOW)
    ratios = [(inc[j + 1] / inc[j], j + 1)
              for j in range(first, len(inc) - 1) if inc[j] > 0]
    worst, binding = max(ratios, default=(0.0, len(inc) - 1))
    passed = (all(r < LADDER_RATIO for r, _ in ratios)
              and (len(ratios) >= LADDER_MIN_RATIOS or inc[-1] == 0.0))
    total = sum(inc)
    if not passed:
        estimate = math.inf
    elif inc[-1] > 0.0 and ratios:
        r_last = ratios[-1][0]
        estimate = total + inc[-1] * r_last / (1.0 - r_last)
    else:
        estimate = total
    return FitReport(
        name=name,
        constants={"total": total, "last_increment": inc[-1],
                   "worst_late_ratio": worst, "binding_rung": float(binding),
                   "estimate": estimate},
        worst_residual=LADDER_RATIO - worst, passed=passed,
    )
