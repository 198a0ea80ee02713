"""Log-magnitude/phase arithmetic for complex values of extreme scale.

The atom-family transforms multiply factors like A^(k-1), t^(k-1), 1/(k-1)!
and e^{tw} whose individual magnitudes overflow float64 long before the
product does.  Values are carried as (log|z|, arg z) pairs of floats or
float arrays, with log|z| = -inf for an exact zero; a sum pivots on the
largest magnitude so only ratios <= 1 are ever exponentiated.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["log_from_sums", "log_sum2", "log_sum_arrays", "to_complex"]

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


def log_sum2(lm1: float, ph1: float, lm2: float, ph2: float) -> tuple[float, float]:
    """(log magnitude, phase) of the sum of two nonzero terms, in math floats.

    Pivots on the larger magnitude and adds the two scaled real parts and
    the two imaginary parts, each sum rounded once; a sum that cancels
    exactly gives (-inf, 0.0).
    """
    pivot = max(lm1, lm2)
    e1 = math.exp(lm1 - pivot)
    e2 = math.exp(lm2 - pivot)
    re = e1 * math.cos(ph1) + e2 * math.cos(ph2)
    im = e1 * math.sin(ph1) + e2 * math.sin(ph2)
    if re == 0.0 and im == 0.0:
        return -math.inf, 0.0
    return pivot + math.log(math.hypot(re, im)), math.atan2(im, re)


def to_complex(log_mag, phase):
    """e^log_mag e^(i phase) at each point, by math.exp and cmath.rect.

    A scalar (or 0-d array) gives a complex, arrays give a complex array of
    their shape.  Underflow quietly returns 0; a log magnitude above
    _EXP_MAX raises OverflowError (the callers that can legitimately exceed
    float range must stay in log space).
    """
    lm = np.asarray(log_mag, dtype=float)
    over = lm > _EXP_MAX
    if over.any():
        raise OverflowError(
            f"log magnitude {lm[over].flat[0]:.6g} exceeds float64 range")
    vals = [cmath.rect(math.exp(m), p)
            for m, p in zip(lm.ravel().tolist(), np.ravel(phase).tolist())]
    if lm.ndim == 0:
        return vals[0]
    return np.array(vals, dtype=complex).reshape(lm.shape)


def log_sum_arrays(log_mags, phases, axis: int = 0):
    """Sum along `axis` of matching (log magnitude, phase) float arrays.

    `phases` may be any shape that broadcasts against `log_mags` (a column
    of per-row phases, say); its cos/sin are taken before broadcasting.
    Returns (log_mag, phase) arrays with that axis reduced.  Entries with
    log_mag = -inf act as exact zeros.  log_mags is overwritten, so callers
    hand it a fresh array.
    """
    pivot = np.max(log_mags, axis=axis, keepdims=True)
    pivot[~np.isfinite(pivot)] = 0.0
    scale = np.exp(np.subtract(log_mags, pivot, out=log_mags), out=log_mags)
    part = np.cos(phases, out=np.empty_like(scale))
    re = np.sum(np.multiply(part, scale, out=part), axis=axis)
    im = np.sum(np.multiply(np.sin(phases, out=part), scale, out=part), axis=axis)
    return log_from_sums(np.squeeze(pivot, axis=axis), re, im)


def log_from_sums(pivot, re, im):
    """(log magnitude, phase) arrays of e^pivot (re + i im), elementwise.

    The last step of log_sum_arrays, for callers that form the pivoted sums
    themselves; re = im = 0 gives log magnitude -inf.  Works in place: the
    log magnitude is pivot and the phase im, so callers hand in fresh
    arrays.
    """
    mag = np.hypot(re, im)
    np.arctan2(im, re, out=im)
    with np.errstate(divide="ignore"):
        np.add(pivot, np.log(mag, out=mag), out=pivot)
    return pivot, im
