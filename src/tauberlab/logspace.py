"""Log-magnitude/phase arithmetic for complex values of extreme scale.

The atom-family transforms multiply factors like A^(k-1), t^(k-1), 1/(k-1)!
and e^{tw} whose individual magnitudes overflow float64 long before the
product does.  Values are carried as (log|z|, arg z) pairs; addition pivots
on the largest magnitude so only ratios <= 1 are ever exponentiated.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LogComplex", "log_from_sums", "log_sum", "log_sum_arrays"]

_NEG_INF = float("-inf")
_TWO_PI = 2.0 * math.pi
# exp() overflows just above this; to_complex refuses rather than returning inf
_EXP_MAX = 709.0


def _wrap_phase(p: float) -> float:
    # normalize into (-pi, pi]
    if -math.pi < p <= math.pi:
        return p
    p = math.fmod(p, _TWO_PI)
    if p <= -math.pi:
        p += _TWO_PI
    elif p > math.pi:
        p -= _TWO_PI
    return p


@dataclass(frozen=True)
class LogComplex:
    """A complex number stored as (log magnitude, phase).

    log_mag = -inf encodes exact zero (phase is then meaningless but kept 0).
    """

    log_mag: float
    phase: float = 0.0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LogComplex":
        return LogComplex(_NEG_INF, 0.0)

    @staticmethod
    def from_complex(z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return LogComplex.zero()
        return LogComplex(math.log(abs(z)), cmath.phase(z))

    @staticmethod
    def from_real(x: float) -> "LogComplex":
        x = float(x)
        if x == 0.0:
            return LogComplex.zero()
        if x > 0.0:
            return LogComplex(math.log(x), 0.0)
        return LogComplex(math.log(-x), math.pi)

    @staticmethod
    def from_log(log_mag: float, phase: float = 0.0) -> "LogComplex":
        return LogComplex(float(log_mag), _wrap_phase(float(phase)))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.log_mag == _NEG_INF

    def to_complex(self) -> complex:
        """Round to an ordinary complex double.

        Underflow quietly returns 0; overflow raises (the callers that can
        legitimately exceed float range must stay in log space).
        """
        if self.is_zero():
            return 0j
        if self.log_mag > _EXP_MAX:
            raise OverflowError(
                f"log magnitude {self.log_mag:.6g} exceeds float64 range"
            )
        return cmath.rect(math.exp(self.log_mag), self.phase)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "LogComplex | complex | float") -> "LogComplex":
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return LogComplex.zero()
        return LogComplex(
            self.log_mag + other.log_mag, _wrap_phase(self.phase + other.phase)
        )

    def __truediv__(self, other: "LogComplex | complex | float") -> "LogComplex":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("LogComplex division by zero")
        if self.is_zero():
            return LogComplex.zero()
        return LogComplex(
            self.log_mag - other.log_mag, _wrap_phase(self.phase - other.phase)
        )

    def __pow__(self, n: int) -> "LogComplex":
        if self.is_zero():
            if n == 0:
                return LogComplex(0.0, 0.0)
            if n < 0:
                raise ZeroDivisionError("0 to a negative power")
            return LogComplex.zero()
        return LogComplex(n * self.log_mag, _wrap_phase(n * self.phase))

    def __add__(self, other: "LogComplex | complex | float") -> "LogComplex":
        return log_sum((self, _coerce(other)))


def _coerce(v) -> LogComplex:
    if isinstance(v, LogComplex):
        return v
    if isinstance(v, complex):
        return LogComplex.from_complex(v)
    return LogComplex.from_real(float(v))


def log_sum(terms) -> LogComplex:
    """Sum LogComplex terms: pivot on the largest magnitude, accumulate the
    (<= 1) ratios in ordinary doubles with compensated summation."""
    live = [t for t in terms if not t.is_zero()]
    if not live:
        return LogComplex.zero()
    pivot = max(t.log_mag for t in live)
    re = math.fsum(
        math.exp(t.log_mag - pivot) * math.cos(t.phase) for t in live
    )
    im = math.fsum(
        math.exp(t.log_mag - pivot) * math.sin(t.phase) for t in live
    )
    if re == 0.0 and im == 0.0:
        return LogComplex.zero()
    return LogComplex(pivot + math.log(math.hypot(re, im)), math.atan2(im, re))


def log_sum_arrays(log_mags, phases, axis: int = 0):
    """Vectorized log_sum along `axis` of matching float arrays.

    `phases` may be any shape that broadcasts against `log_mags` (a column
    of per-row phases, say); its cos/sin are taken before broadcasting.
    Returns (log_mag, phase) arrays with that axis reduced.  Entries with
    log_mag = -inf act as exact zeros.
    """
    log_mags = np.asarray(log_mags, dtype=float)
    phases = np.asarray(phases, dtype=float)
    pivot = np.max(log_mags, axis=axis, keepdims=True)
    pivot = np.where(np.isfinite(pivot), pivot, 0.0)
    scale = np.exp(log_mags - pivot)
    re = np.sum(scale * np.cos(phases), axis=axis)
    im = np.sum(scale * np.sin(phases), axis=axis)
    return log_from_sums(np.squeeze(pivot, axis=axis), re, im)


def log_from_sums(pivot, re, im):
    """(log magnitude, phase) arrays of e^pivot (re + i im), elementwise.

    The last step of log_sum_arrays, for callers that form the pivoted sums
    themselves; re = im = 0 gives log magnitude -inf.
    """
    with np.errstate(divide="ignore"):
        out_log = pivot + np.log(np.hypot(re, im))
    return out_log, np.arctan2(im, re)
