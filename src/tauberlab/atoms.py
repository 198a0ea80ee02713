"""Atomic-measure families and their stably evaluated transforms.

A family places k point masses at w + q^s/A (q the primitive k-th root of
unity, A = 2k log k) just left of the line Re z = -1, with scalar weight
tau = A^(k-1)/sqrt(k).  Three derived quantities matter:

    L(t) = sum_s weight_s e^(t zeta_s)          (time profile)
    G(t,z) = sum_s weight_s e^(t zeta_s)/(z-zeta_s)
    N(t) = sum_s weight_s e^(t zeta_s)/zeta_s   (decaying primitive)

The direct sums cancel catastrophically (about 10^15 digits at k = 40), so
the production path evaluates factored power series / an exact resummation
in log space, and an arbitrary-precision direct-sum oracle (mpmath) serves
as the arbiter for k <= 30.  The oracle takes its exponentials from mpmath
and sums them in integer fixed point with guard bits, rounding once to the
working precision.  mpmath loads on the oracle's first call, so the series
route imports numpy alone.

Also here: the root-of-unity partial-fraction identity, the truncated-
exponential remainder bound, the Stirling-type peak envelopes, and the
envelope fits for the four inequalities each family is designed to satisfy.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logspace import _to_complex_array, _wrap_phase, log_from_sums, log_sum2, to_complex
from .reports import FIT_PAD, FitReport, box_tail_fit, fit_rate, floor_report, \
    tail_fit, upper_report
from .weights import LogRate, PowerRate, RateFunction, omega_m_contains

__all__ = [
    "AtomFamily",
    "build_family",
    "laplace_L",
    "laplace_L_log",
    "green_G",
    "primitive_N",
    "primitive_N_log",
    "roots_identity",
    "verify_prop52",
    "default_t_grid",
    "default_z_samples",
    "SERIES",
    "DIRECT_ORACLE",
]

SERIES = "series"
DIRECT_ORACLE = "oracle"

SERIES_TRUNC = 1e-30       # relative term size at which series stop
SERIES_CAP = 10_000        # hard cap on series terms
ORACLE_MAX_K = 30          # mpmath direct sums are the arbiter only up to here
ORACLE_MIN_DPS = 60        # >= 160-bit significand floor, with headroom
ORACLE_GUARD_BITS = 32     # fixed-point oracle sums carry this many bits past the precision
STIRLING_RHO = 0.19        # valid for every t, k in both peak envelopes
EXP_CUT = -708.39          # G's series sums skip exp below this: e^EXP_CUT is about the smallest normal
# G's series walks t in column tiles of at most TILE_POINTS elements of its
# (rows x t) and (z x t) arrays, though never narrower than TILE_MIN_COLUMNS
# columns (past 1,024 rows or z)
TILE_POINTS = 1 << 15
TILE_MIN_COLUMNS = 32

_LN10 = math.log(10.0)


# ----------------------------------------------------------------------
# family construction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AtomFamily:
    """One atomic family: variant parameters plus the derived geometry."""

    variant: str            # "power" or "log"
    k: int
    alpha: float
    beta: float | None      # power variant only
    gamma: float | None     # height-equation coefficient (power variant)
    circle_scale: float     # A = 2k log k; atoms sit on a circle of radius 1/A
    height: float           # H, the imaginary part scale of the base point
    base: complex           # w: the circle center
    log_tau: float          # log of the scalar weight A^(k-1)/sqrt(k)

    def locations(self) -> np.ndarray:
        s = np.arange(1, self.k + 1)
        return self.base + np.exp(2j * math.pi * s / self.k) / self.circle_scale

    def matching_rate(self) -> RateFunction:
        """The rate function whose spectral region this family probes."""
        if self.variant == "power":
            return PowerRate(1.0, self.alpha)
        return LogRate(self.alpha)

    def window(self) -> tuple[float, float]:
        """The sqrt(k)-window around t = k where the primitive has a floor."""
        r = math.sqrt(self.k)
        return (self.k - r, self.k + r)


def build_family(
    variant: str,
    k: int,
    alpha: float,
    beta: float | None = None,
) -> AtomFamily:
    """Construct a family; all derived parameters solved/validated here.

    power: needs beta > alpha/2; gamma is the midpoint (beta - alpha/2)/2
    of its admissible interval (0, beta - alpha/2); the height H solves
    gamma * H^alpha * log H = k by bisection (residual <= 1e-10).
    log: H = exp(k^(1/(alpha+1))), base w = iH - 1 - 2 (log H)^(-alpha).
    """
    k = int(k)
    if k < 3:
        raise ValueError(f"k must be >= 3 (root-of-unity cancellations), got {k}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    a_scale = 2.0 * k * math.log(k)
    log_tau = (k - 1) * math.log(a_scale) - 0.5 * math.log(k)

    if variant == "power":
        if beta is None or beta <= alpha / 2.0:
            raise ValueError(
                f"power variant needs beta > alpha/2, got beta={beta}, alpha={alpha}"
            )
        gamma = 0.5 * (beta - alpha / 2.0)
        height = _solve_height(gamma, alpha, k)
        base = complex(-1.0, height)
        return AtomFamily("power", k, float(alpha), float(beta), float(gamma),
                          a_scale, height, base, log_tau)

    if variant == "log":
        if beta is not None:
            raise ValueError("log variant takes no beta")
        height = math.exp(k ** (1.0 / (alpha + 1.0)))
        base = complex(-1.0 - 2.0 * math.log(height) ** (-alpha), height)
        return AtomFamily("log", k, float(alpha), None, None,
                          a_scale, height, base, log_tau)

    raise ValueError(f"unknown variant {variant!r}; expected 'power' or 'log'")


def _solve_height(gamma: float, alpha: float, k: int) -> float:
    """Solve gamma * H^alpha * log H = k for H > 1 (strictly increasing)."""

    def val(h: float) -> float:
        return gamma * h ** alpha * math.log(h)

    lo, hi = 1.0 + 1e-12, math.e
    for _ in range(400):
        if val(hi) >= k:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ValueError("height bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if val(mid) < k:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    h = 0.5 * (lo + hi)
    if abs(val(h) - k) > 1e-10 * max(1.0, k):
        raise ArithmeticError(f"height solve residual too large at k={k}")
    return h


def atoms_outside_region(fam: AtomFamily) -> bool:
    """Test support: True iff no atom lies in the open spectral region of
    the matching M.

    Holds for every k >= 3: Re(atom) <= Re(w) + 1/A <= -1/2 while the
    region boundary sits at Re = -1/M >= -1/2.
    """
    M = fam.matching_rate()
    return not any(omega_m_contains(M, z) for z in fam.locations())


# ----------------------------------------------------------------------
# series backends
# ----------------------------------------------------------------------

# k -> (nan, then lgamma(k(m+1)) - lgamma(km) at index m >= 1), grown on need
_LGAMMA_STEPS: dict = {}


def _lgamma_steps(k: int, n: int) -> tuple:
    """The per-k table of lgamma(k(m+1)) - lgamma(km), with n entries or more.

    Each entry is the same difference of math.lgamma values whatever order
    the table grew in; a caller reads the tuple it grew or got, never a
    table another thread may have replaced.
    """
    table = _LGAMMA_STEPS.get(k, (math.nan,))
    if len(table) < n:
        table += tuple(math.lgamma(k * (m + 1)) - math.lgamma(k * m)
                       for m in range(len(table), max(n, 2 * len(table))))
        _LGAMMA_STEPS[k] = table
    return table


def _series_tail_sums(k: int, a_scale: float, t: float):
    """The two positive m-series shared by L and N.

    Returns (S_plain, S_weighted) with
      S_plain    = sum_m c_m,           c_m = (t^k/A^k)^(m-1) (k-1)!/(km-1)!
      S_weighted = sum_m c_m (km - 1).
    All terms are positive; truncation at SERIES_TRUNC relative.
    """
    log_ta = math.log(t / a_scale)
    steps = _lgamma_steps(k, 2)
    c = 1.0
    s_plain = 0.0
    s_weighted = 0.0
    m = 1
    while m <= SERIES_CAP:
        s_plain += c
        s_weighted += c * (k * m - 1.0)
        # ratio c_{m+1}/c_m = (t/A)^k * (km-1)!/(k(m+1)-1)!
        if m == len(steps):
            steps = _lgamma_steps(k, m + 1)
        c = c * math.exp(k * log_ta - steps[m])
        if c * (k * (m + 1)) < SERIES_TRUNC * max(s_plain, s_weighted):
            break
        m += 1
    else:
        raise ArithmeticError("series cap exceeded")
    return s_plain, s_weighted


class _SeriesLogs(NamedTuple):
    """The t-independent logs of one family that L's and N's series read."""

    k: int
    a: float            # A
    w: complex
    log_tau: float
    half_log_k: float   # 0.5 log k
    log_k: float
    lgamma_k: float     # log (k-1)!
    log_a: float
    log_abs_w: float
    arg_w: float        # arg w
    neg_tw_ph: float    # arg(1/w), as L's 1/(tw) piece reads it


def _series_map(fam: AtomFamily, t, point):
    """(log_mag, phase) arrays shaped like t, from point(logs, t_i) at each
    t_i > 0, with the family's _SeriesLogs built once.

    t = 0 is an exact zero, (-inf, 0.0).
    """
    t = _finite_t(t)
    k, w = fam.k, fam.base
    logs = _SeriesLogs(k, fam.circle_scale, w, fam.log_tau, 0.5 * math.log(k), math.log(k),
                       math.lgamma(k), math.log(fam.circle_scale), math.log(abs(w)),
                       cmath.phase(w), _wrap_phase(0.0 - _wrap_phase(cmath.phase(w))))
    lm, ph = [], []
    for ti in t.ravel().tolist():
        m, p = point(logs, ti) if ti > 0.0 else (-math.inf, 0.0)
        lm.append(m)
        ph.append(p)
    return np.array(lm, dtype=float).reshape(t.shape), np.array(ph, dtype=float).reshape(t.shape)


def _laplace_point(c: _SeriesLogs, t: float) -> tuple[float, float]:
    """(log|L|, arg L) at one t > 0, in math-module floats."""
    s_plain, s_weighted = _series_tail_sums(c.k, c.a, t)
    log_t = math.log(t)
    pref_lm = c.half_log_k + (c.k - 1) * log_t + t * c.w.real - c.lgamma_k
    pref_ph = _wrap_phase(t * c.w.imag)
    s_lm, s_ph = log_sum2(math.log(s_plain), 0.0,
                          math.log(s_weighted) - (log_t + c.log_abs_w), c.neg_tw_ph)
    return pref_lm + s_lm, _wrap_phase(pref_ph + s_ph)


def laplace_L_log(fam: AtomFamily, t):
    """Series evaluation of the time profile, returned in log space.

    Factored form: sqrt(k) t^(k-1) e^(tw)/(k-1)! *
    sum_m (t^k/A^k)^(m-1) (k-1)!/(km-1)! (1 + (km-1)/(tw)); the two real
    positive sub-series are accumulated in doubles and the singular-looking
    1/(tw) piece is combined in log space (t=0 is an exact zero).
    Scalar or array t; returns (log_mag, phase) float arrays shaped like t,
    each point in math-module floats.
    """
    return _series_map(fam, t, _laplace_point)


def _primitive_point(c: _SeriesLogs, t: float) -> tuple[float, float]:
    """(log|N|, arg N) at one t > 0, in math-module floats."""
    s_plain, _ = _series_tail_sums(c.k, c.a, t)
    lead = (c.k - 1) * (math.log(t) - c.log_a) - c.lgamma_k
    return (
        c.log_tau + t * c.w.real - c.log_abs_w + c.log_k + lead + math.log(s_plain),
        _wrap_phase(t * c.w.imag - c.arg_w),
    )


def primitive_N_log(fam: AtomFamily, t):
    """Series evaluation of the decaying primitive, in log space.

    Closed form (tau e^(tw)/w) * k * sum_m (t/A)^(km-1)/(km-1)!; the atom
    weight factor cancels the denominator w + q^s/A exactly, leaving an
    all-positive series.  Scalar or array t; returns (log_mag, phase) float
    arrays shaped like t.
    """
    return _series_map(fam, t, _primitive_point)


_LGAMMA = np.empty(0)  # log j! = math.lgamma(j + 1.0) for j < _LGAMMA.size


def _log_factorials(n: int) -> np.ndarray:
    """log j! for j < n, from a module table grown on first need.

    The entries are the same math.lgamma values whatever order the table
    grew in, so every caller reads identical numbers.  A caller slices the
    table it grew or read, never a global another thread may have replaced;
    the table is read-only because every caller shares it.
    """
    global _LGAMMA
    table = _LGAMMA
    if table.size < n:
        grown = [math.lgamma(j + 1.0) for j in range(table.size, max(n, 2 * table.size))]
        table = np.concatenate([table, grown])
        table.setflags(write=False)
        _LGAMMA = table
    return table[:n]


def _exp_live(d: np.ndarray, live: np.ndarray) -> np.ndarray:
    """exp(d) in place where d >= EXP_CUT, and exactly 0.0 elsewhere; live
    is a boolean scratch array of d's shape.

    Each d here is a log magnitude minus its column's pivot, so every column
    holds a term of size 1, beside which a value under e^EXP_CUT (a
    subnormal, or the 0.0 of an underflow) is lost in rounding.  Skipping
    those keeps each sum bit for bit and spares exp its slow paths: on
    x86-64 an underflow costs it about 15 times a normal result, and a
    subnormal result about 100 times.
    """
    np.greater_equal(d, EXP_CUT, out=live)
    np.exp(d, out=d, where=live)
    np.putmask(d, np.logical_not(live, out=live), 0.0)
    return d


def _column_tiles(n_cols: int, n_rows: int) -> list:
    """Column slices of an (n_rows x n_cols) matrix, each of at most
    TILE_POINTS elements, but never fewer than TILE_MIN_COLUMNS columns.

    numpy sums axis 0 of a C-ordered matrix of two or more columns in row
    order, each column as the whole matrix would, but a lone column
    pairwise.  So every tile has two or more columns: a 1-column remainder
    joins the tile before it, as in semigroup.evolve_chunks, and only
    n_cols = 1 gives a 1-column tile.  The floor spreads each tile's fixed
    cost over enough columns when the rows are many: a reduction over
    axis 0 loops once per row, whatever the width.
    """
    width = max(TILE_MIN_COLUMNS, TILE_POINTS // max(1, n_rows))
    bounds = [*range(0, n_cols, width), n_cols]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _phase_columns(ph: np.ndarray) -> tuple:
    """(cos, sin) of one phase per row, each as a column."""
    return np.cos(ph)[:, None], np.sin(ph)[:, None]


def _row_sums(lm: np.ndarray, cos_sin: tuple, part: np.ndarray, live: np.ndarray):
    """(pivot, re, im) per column of the sum over rows (axis 0) of
    e^lm e^(i phase), the phases given by cos/sin arrays that broadcast
    against lm (one column per row, say): log_from_sums of these is the
    sum in log space.

    Each column is taken against its largest log term (0.0 where all are
    -inf), and summed in row order unless it is lm's only column.  lm is
    overwritten; part and live are float and boolean scratch arrays of its
    shape.
    """
    cos, sin = cos_sin
    # the ufuncs' own reductions, which np.max and np.sum call
    pivot = np.maximum.reduce(lm, axis=0)
    pivot = np.where(np.isfinite(pivot), pivot, 0.0)
    scale = _exp_live(np.subtract(lm, pivot, out=lm), live)
    re = np.add.reduce(np.multiply(scale, cos, out=part), axis=0)
    im = np.add.reduce(np.multiply(scale, sin, out=part), axis=0)
    return pivot, re, im


def _main_rows(log_a: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """The log terms j log_a - log j!, j <= k-2, of G's main sum, written
    into out, a (k-1) x log_a.size matrix."""
    n = k - 1
    np.multiply(np.arange(n, dtype=float)[:, None], log_a, out=out)
    return np.subtract(out, _log_factorials(n)[:, None], out=out)


def _shaped(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The first entries of a flat buffer as a C-ordered array of shape, so
    that tiles of any width share one allocation."""
    return flat[:math.prod(shape)].reshape(shape)


def _green_factors(fam: AtomFamily, z: complex):
    """(log|Z|, arg Z, log|Z^k - 1|, arg(Z^k - 1)) at one z, Z = A(z - w)."""
    k = fam.k
    bigz = fam.circle_scale * (z - fam.base)
    abs_bigz = abs(bigz)
    if abs_bigz == 0.0:
        raise ValueError("z coincides with the family base point")
    z_lm, z_ph = math.log(abs_bigz), cmath.phase(bigz)
    if k * z_lm > 50.0:
        # Z^k - 1 == Z^k to below every tolerance in play
        return z_lm, z_ph, k * z_lm, _wrap_phase(k * z_ph)
    zk = bigz ** k
    if zk == 1.0:
        raise ValueError("z coincides with an atom location (Z^k = 1)")
    return z_lm, z_ph, math.log(abs(zk - 1.0)), cmath.phase(zk - 1.0)


class _TailPlan(NamedTuple):
    """The z-independent part of G's tail over one 1-d t array."""

    log_t: np.ndarray     # log t, 0.0 at t = 0
    zero: np.ndarray      # t == 0
    log_a: float          # log A
    nn: np.ndarray        # the tail's orders k-1..n_hi, as a column
    log_fact: np.ndarray  # log nn!, as a column
    res: np.ndarray       # nn mod k
    residues: list        # the distinct residues, the only brackets the tail reads

    def rows(self, cols: slice, out: np.ndarray) -> np.ndarray:
        """The tail rows nn (log t - log A) - log nn! at the columns cols,
        -inf at t = 0, written into out."""
        np.multiply(self.nn, self.log_t[cols] - self.log_a, out=out)
        np.subtract(out, self.log_fact, out=out)
        out[:, self.zero[cols]] = -np.inf
        return out


def _tail_plan(fam: AtomFamily, t_arr: np.ndarray) -> _TailPlan:
    """The plan of G's tail at a 1-d t with some t > 0.

    The tail length n_hi comes from the largest t, so it is the same for
    every column tile; the rows themselves are built one tile at a time
    (_TailPlan.rows), shared by all z of the call.
    """
    k, a = fam.k, fam.circle_scale
    zero = t_arr == 0.0
    log_t = np.log(np.where(zero, 1.0, t_arr))
    ratio = float(np.max(t_arr)) / a
    n_hi = int(max(k - 1, math.ceil(ratio)) + 90 + 4.0 * math.sqrt(max(k, ratio)))
    nn = np.arange(k - 1, n_hi + 1)
    res = nn % k
    return _TailPlan(log_t, zero, math.log(a), nn[:, None],
                     _log_factorials(n_hi + 1)[k - 1:, None], res, np.unique(res).tolist())


class _GreenPoint(NamedTuple):
    """The t-independent work of G's series at one z; the array fields are
    None when no t of the call is > 0."""

    log_x: float          # log|z - w|
    main_cs: tuple        # _phase_columns(j arg(z - w)), j <= k-2
    main_lm: float        # log|k A z / (w (Z^k - 1))|, the main sum's factor
    main_ph: float
    tail_lm: np.ndarray   # log|g_r| at the tail's rows, as a column
    tail_cs: tuple        # _phase_columns(arg g_r) at the tail's rows
    tail_k_lm: float      # log|k / (Z^k - 1)|, the tail sum's factor
    tail_k_ph: float


def _green_point(fam: AtomFamily, z: complex, plan: _TailPlan | None) -> _GreenPoint:
    """_GreenPoint at z, for the t of plan (None: no t > 0)."""
    k, a, w = fam.k, fam.circle_scale, fam.base
    w_lm, w_ph = math.log(abs(w)), cmath.phase(w)
    a_lm = math.log(a)
    z_lm, z_ph, zk1_lm, zk1_ph = _green_factors(fam, z)
    x = z - w
    main_cs = tail_lm = tail_cs = None
    if plan is not None:
        main_cs = _phase_columns(np.arange(k - 1, dtype=float) * cmath.phase(x))
        # bracket g_r = A Z^(r) + Z^((r+1) mod k)/w, at the residues r = n mod k
        # the tail reads
        g_lm = np.empty(k)
        g_ph = np.empty(k)
        for r in plan.residues:
            r1 = (r + 1) % k
            # the 0.0 + is the real A's phase: it turns -0.0 (r = 0) into 0.0
            g_lm[r], g_ph[r] = log_sum2(
                a_lm + r * z_lm, 0.0 + _wrap_phase(r * z_ph),
                r1 * z_lm - w_lm, _wrap_phase(_wrap_phase(r1 * z_ph) - w_ph))
        tail_lm = g_lm[plan.res][:, None]
        tail_cs = _phase_columns(g_ph[plan.res])
    # k A z / (w (Z^k - 1)) times the main sum; nothing at z = 0
    if z != 0:
        main_lm = math.log(k) + a_lm + math.log(abs(z)) - w_lm - zk1_lm
        main_ph = _wrap_phase(_wrap_phase(_wrap_phase(0.0 + cmath.phase(z)) - w_ph) - zk1_ph)
    else:
        main_lm, main_ph = -math.inf, 0.0
    return _GreenPoint(math.log(abs(x)), main_cs, main_lm, main_ph, tail_lm, tail_cs,
                       math.log(k) - zk1_lm, _wrap_phase(0.0 - zk1_ph))


def _green_block(fam: AtomFamily, t: np.ndarray, points: list, plan, cols: slice, rows,
                 scratch: tuple):
    """(log_mag, phase) of G at the _GreenPoints over the tile t of the
    call's t (its columns cols), each (len(points), t.size).

    rows is plan.rows(cols), or None when no t of the call is > 0: then
    the main sum is exactly 1 and the tail exactly 0 everywhere, so no
    series is built.  Otherwise columns at t = 0 are summed with the rest
    and then set, not read.  scratch holds three flat buffers (log terms,
    products, live mask) of at least rows x t.size and 2 z x t.size
    entries each.  The main sum and the tail are layers 0 and 1 of one
    (2, z, t) pair of arrays, summed in place; _row_sums then adds the two
    layers as it adds the rows of each sum.
    """
    shape = (2, len(points), t.size)
    if rows is None:
        lm, ph = np.zeros(shape), np.zeros(shape)
        lm[1] = -np.inf
    else:
        sums = tuple(np.empty(shape) for _ in range(3))  # pivot, re, im
        log_t = plan.log_t[cols]
        lm_main, *tmp_main = (_shaped(b, fam.k - 1, t.size) for b in scratch)
        lm_tail, *tmp_tail = (_shaped(b, rows.shape[0], t.size) for b in scratch)
        for i, p in enumerate(points):
            _main_rows(log_t + p.log_x, fam.k, lm_main)
            for part, row in zip(sums, _row_sums(lm_main, p.main_cs, *tmp_main)):
                part[0, i] = row
            np.add(rows, p.tail_lm, out=lm_tail)
            for part, row in zip(sums, _row_sums(lm_tail, p.tail_cs, *tmp_tail)):
                part[1, i] = row
        lm, ph = log_from_sums(*sums)
        del sums  # frees re before the combine's temporaries
        zero = plan.zero[cols]
        lm[0][:, zero] = ph[0][:, zero] = 0.0
    lm += np.array([[p.main_lm for p in points], [p.tail_k_lm for p in points]])[..., None]
    ph += np.array([[p.main_ph for p in points], [p.tail_k_ph for p in points]])[..., None]
    at_zero = np.array([p.main_lm == -math.inf for p in points], dtype=bool)
    lm[0, at_zero], ph[0, at_zero] = -np.inf, 0.0

    # ---- combine with the scalar prefactor tau e^(tw); nothing reads the
    # phases after their sin and cos, so the cos overwrites them
    sin, part, live = (_shaped(b, *lm.shape) for b in scratch)
    np.sin(ph, out=sin)
    lm, ph = log_from_sums(*_row_sums(lm, (np.cos(ph, out=ph), sin), part, live))
    lm += fam.log_tau + t * fam.base.real
    ph += t * fam.base.imag
    return lm, ph


def _green_blocks(fam: AtomFamily, t_arr: np.ndarray, z):
    """Resummed evaluation of G(t, z) over a 1-d array of t, in log space,
    as (t slice, log_mag, phase) blocks, one per column tile, each over
    every z.

    With Z = A(z - w), the atom sum collapses (root-of-unity partial
    fractions, all exponents) to

      G = tau e^(tw) k/(Z^k - 1) * sum_{n>=0} (t/A)^n/n! *
            (A Z^(n mod k) + Z^((n+1) mod k)/w)

    and for n <= k-2 the bracket is exactly Z^n A z / w, turning that range
    into a truncated exponential in t(z - w).  Everything is accumulated as
    (log magnitude, phase) arrays; no intermediate exceeds float range.

    The t-independent work of each z (_green_point) runs once per call.
    The t are then walked in column tiles (_column_tiles) sized to the
    tallest of the main sum's k-1 rows, the tail's rows and the z, so the
    working arrays do not grow with t.size.  Every column sums in the
    order of the whole matrix, so each value is bit for bit the call with
    that z and t alone, whatever the tiles.
    """
    plan = None if np.all(t_arr == 0.0) else _tail_plan(fam, t_arr)
    points = [_green_point(fam, zi, plan) for zi in np.ravel(z).tolist()]
    n_rows = 1 if plan is None else max(fam.k - 1, plan.nn.shape[0])
    tiles = _column_tiles(t_arr.size, max(n_rows, len(points)))
    # every tile matrix lives in buffers allocated once per call: a fresh
    # allocation per tile made the allocator return and re-fault the pages,
    # some 87,000 page faults per call at log k = 7506
    max_width = max((c.stop - c.start for c in tiles), default=0)
    scratch = tuple(np.empty(max(n_rows, 2 * len(points)) * max_width, dtype=d)
                    for d in (float, float, bool))
    rows_flat = np.empty(0 if plan is None else plan.nn.shape[0] * max_width)
    for cols in tiles:
        rows = None if plan is None else plan.rows(
            cols, _shaped(rows_flat, plan.nn.shape[0], cols.stop - cols.start))
        yield cols, *_green_block(fam, t_arr[cols], points, plan, cols, rows, scratch)


def _green_series(fam: AtomFamily, t_arr: np.ndarray, z):
    """G(t, z) in log space over a 1-d array of t (_green_blocks).

    z is one point or an array of them; row i of the result is the call
    with z[i] alone, bit for bit.  Returns (log_mag, phase) arrays of shape
    z.shape + t.shape.
    """
    zs = np.asarray(z, dtype=complex)
    t_arr = np.asarray(t_arr, dtype=float)
    lm, ph = np.empty((2, zs.size, t_arr.size))
    for cols, *block in _green_blocks(fam, t_arr, zs):
        lm[:, cols], ph[:, cols] = block
    return lm.reshape(zs.shape + t_arr.shape), ph.reshape(zs.shape + t_arr.shape)


def _check_backend(backend: str) -> str:
    if backend not in (SERIES, DIRECT_ORACLE):
        raise ValueError(f"unknown backend {backend!r}; expected 'series' or 'oracle'")
    return backend


def _finite_t(t) -> np.ndarray:
    """t as a float array; a nan, infinite or negative entry is a ValueError."""
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError(f"t must be finite, got {t_arr[~np.isfinite(t_arr)][0]}")
    if (t_arr < 0).any():
        raise ValueError(f"t must be >= 0, got {t_arr[t_arr < 0][0]}")
    return t_arr


def laplace_L(fam: AtomFamily, t, backend: str = SERIES):
    """Time profile L(t).  Scalar or array t; backend 'series' or 'oracle'."""
    t = _finite_t(t)
    if _check_backend(backend) == DIRECT_ORACLE:
        return _oracle_map(fam, t, [lambda at: at.weights_fixed], lambda at, e_tw: e_tw)[0]
    return to_complex(*laplace_L_log(fam, t))


def primitive_N(fam: AtomFamily, t, backend: str = SERIES):
    """Decaying primitive N(t) (the running integral of L minus its total)."""
    t = _finite_t(t)
    if _check_backend(backend) == DIRECT_ORACLE:
        # tau/w stays out of the coefficients: folded in, it moves the bits
        # of the exact zero N(0)
        return _oracle_map(fam, t, [lambda at: at.qs_fixed],
                           lambda at, e_tw: at.tau * e_tw / at.w)[0]
    return to_complex(*primitive_N_log(fam, t))


def green_G(fam: AtomFamily, t, z, backend: str = SERIES):
    """Moving resolvent-type transform G(t, z).  Scalar or array t and z.

    Returns shape z.shape + t.shape: a scalar z gives values over t, an
    array of z one row per z.  Each value is the one a call with that z and
    t alone would give, bit for bit.  The series route walks t in column
    tiles of TILE_POINTS elements, each over every z (_green_blocks), so
    beyond the output its working arrays do not grow with the size of t.
    The oracle route builds each t's exponentials once for all z.
    z must avoid the atom locations; for z in the spectral region of the
    matching rate function this is automatic.
    """
    t = _finite_t(t)
    zs = np.asarray(z, dtype=complex)
    if _check_backend(backend) == DIRECT_ORACLE:
        vals = _oracle_map(fam, t, [_green_coeffs(zi) for zi in zs.ravel().tolist()],
                           lambda at, e_tw: e_tw)
        return vals[0] if zs.ndim == 0 else np.array(vals).reshape(zs.shape + t.shape)
    t_flat = t.ravel()
    out = np.empty((zs.size, t_flat.size), dtype=complex)
    for cols, lm, ph in _green_blocks(fam, t_flat, zs):
        out[:, cols] = _to_complex_array(lm, ph)
    return out.reshape(zs.shape + t.shape)[()]


# ----------------------------------------------------------------------
# direct-sum oracle (mpmath)
# ----------------------------------------------------------------------

def __getattr__(name: str):
    # the oracle functions import mpmath themselves; atoms.mp names the
    # same module, loaded on first use
    if name == "mp":
        import mpmath

        globals()[name] = mpmath
        return mpmath
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _oracle_dps(fam: AtomFamily, t: float) -> int:
    """Working precision of the direct sums at t.

    Digits for tau, for e^(t Re w) and for k, and for t > 0 also digits for
    the cancellation near 0: the k terms have size about tau |e^(tw)| while
    the root sum cancels every Taylor order below k-1, leaving about
    tau k (t/A)^(k-1)/(k-1)!.  t = 0 is an exact cancellation and keeps the
    first rule.
    """
    k = fam.k
    cancel_digits = fam.log_tau / _LN10 + 0.4343 * t + k
    if t > 0:
        small_t_digits = ((k - 1) * math.log10(fam.circle_scale / t)
                          + math.lgamma(k) / _LN10 - math.log10(k))
        cancel_digits = max(cancel_digits, small_t_digits)
    return max(ORACLE_MIN_DPS, 50 + int(math.ceil(max(0.0, cancel_digits))))


def _oracle_map(fam: AtomFamily, t, coeffs: list, prefactor) -> list:
    """_oracle_sums at each point of a scalar or array t >= 0: one complex
    (scalar t) or array shaped like t per entry of coeffs."""
    if not coeffs:
        return []
    if fam.k > ORACLE_MAX_K:
        raise ValueError(
            f"direct oracle is the arbiter only for k <= {ORACLE_MAX_K}; got k={fam.k}"
        )
    if np.ndim(t) == 0:
        return _oracle_sums(fam, float(t), coeffs, prefactor)
    t = np.asarray(t, dtype=float)
    vals = np.array([_oracle_sums(fam, ti, coeffs, prefactor) for ti in t.ravel().tolist()],
                    dtype=complex).reshape(t.shape + (len(coeffs),))
    return list(np.ascontiguousarray(np.moveaxis(vals, -1, 0)))


# the tables below are built once per working precision and shared: mpmath
# numbers are immutable, and a grid has few distinct precisions
_TABLE_CACHE = 512


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _unit_roots(k: int, dps: int) -> tuple:
    """The k-th roots of unity q^s = e^(2 pi i s/k), s = 1..k, at dps digits."""
    import mpmath as mp

    with mp.workdps(dps):
        return tuple(mp.expjpi(mp.mpf(2 * s) / k) for s in range(1, k + 1))


@dataclass(frozen=True)
class _FixedTable:
    """Complex numbers as integer pairs (re, im), each part times 2^shift
    and truncated; the largest part has ORACLE_GUARD_BITS more bits than
    the working precision."""

    shift: int
    pairs: tuple


def _fixed_table(values, prec: int) -> _FixedTable:
    """The mpc values as a _FixedTable for working precision prec."""
    from mpmath import libmp

    parts = [v._mpc_ for v in values]
    # a nonzero raw mpf (sign, man, exp, bc) is below 2^(exp + bc)
    top = max((p[2] + p[3] for pair in parts for p in pair if p[1]), default=0)
    shift = prec + ORACLE_GUARD_BITS - top
    return _FixedTable(shift, tuple((libmp.to_fixed(re, shift), libmp.to_fixed(im, shift))
                                    for re, im in parts))


def _round_fixed(re: int, im: int, shift: int, prec: int):
    """(re + i im) 2^-shift rounded once to an mpc of prec bits."""
    import mpmath as mp
    from mpmath import libmp

    return mp.make_mpc((libmp.from_man_exp(re, -shift, prec, libmp.round_nearest),
                        libmp.from_man_exp(im, -shift, prec, libmp.round_nearest)))


@dataclass(frozen=True)
class _OracleAtoms:
    """The t-independent inputs of the direct sums, at one precision."""

    dps: int        # the working precision of every entry
    a: mp.mpf       # A
    w: mp.mpc       # the base point
    tau: mp.mpf     # A^(k-1)/sqrt(k)
    qs: tuple       # q^s, s = 1..k
    zetas: tuple    # atom locations w + q^s/A
    weights: tuple  # atom weights tau q^s (1 + q^s/(A w))
    qs_fixed: _FixedTable       # qs, the coefficients of N
    weights_fixed: _FixedTable  # weights, the coefficients of L


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _oracle_atoms(fam: AtomFamily, dps: int) -> _OracleAtoms:
    import mpmath as mp

    with mp.workdps(dps):
        k = fam.k
        a = mp.mpf(fam.circle_scale)
        w = mp.mpc(fam.base.real, fam.base.imag)
        tau = a ** (k - 1) / mp.sqrt(k)
        qs = _unit_roots(k, dps)
        weights = tuple(tau * q * (1 + q / (a * w)) for q in qs)
        prec = mp.mp.prec
        return _OracleAtoms(dps, a, w, tau, qs, tuple(w + q / a for q in qs), weights,
                            _fixed_table(qs, prec), _fixed_table(weights, prec))


def _oracle_sums(fam: AtomFamily, t: float, coeffs: list, prefactor) -> list:
    """prefactor(at, e^(tw)) * sum_s c_s e^(t q^s/A) at one t >= 0, for each
    entry of coeffs, where coeffs[i](at) is the _FixedTable of its c_s.

    at is the _OracleAtoms table at the working precision of t.  Since
    e^(t zeta_s) = e^(tw) e^(t q^s/A) and q^(k-s) = conj(q^s), the roots
    s <= k/2 are exponentiated and the rest conjugated from them (q^(k/2) = -1
    pairs with itself); e^(t/A) for q^k = 1 and e^(tw) come once each.
    Odd k takes one complex exponential per conjugate pair: floor(k/2) + 2
    exponentials a point.  Even k also reflects, q^(k/2-s) = -conj(q^s):
    with x = t/A, e^(x q^s) = e^(x Re q^s) cis(x Im q^s) and
    e^(x q^(k/2-s)) = cis(x Im q^s)/e^(x Re q^s), so each s <= k/4 (s = k/4
    pairs with itself) costs one real exponential and one cos/sin, and
    e^(-x) = 1/e^x: floor(k/4) + 2 exponentials and floor(k/4) cos/sin.
    These, e^(tw) and the prefactor serve every entry of coeffs.

    The sum itself runs in integers: each exponential becomes fixed point
    at 2^-shift, where e^x, the largest factor, has the working precision
    plus ORACLE_GUARD_BITS bits.  The reflected products and quotients are
    truncated back to 2^-shift, the conjugates and the dot product with the
    c_s are exact, and the total is rounded once to the working precision
    before the prefactor.
    """
    import mpmath as mp
    from mpmath import libmp

    k = fam.k
    dps = _oracle_dps(fam, t)
    at = _oracle_atoms(fam, dps)
    with mp.workdps(dps):
        t = mp.mpf(t)
        t_a = t / at.a
        e_k = mp.exp(t_a)
        prec = mp.mp.prec
        _, _, e_exp, e_bc = e_k._mpf_
        shift = prec + ORACLE_GUARD_BITS - (e_exp + e_bc)
        top = libmp.to_fixed(e_k._mpf_, shift)
        one_sq = 1 << (2 * shift)   # one_sq // x is 1/x in fixed point
        if k % 2:
            half = [tuple(libmp.to_fixed(p, shift) for p in mp.exp(t_a * q)._mpc_)
                    for q in at.qs[:k // 2]]
        else:
            half = [None] * (k // 2)
            half[-1] = (one_sq // top, 0)
            for s in range(1, k // 4 + 1):
                q = at.qs[s - 1]
                mag = libmp.to_fixed(mp.exp(t_a * q.real)._mpf_, shift)
                inv = one_sq // mag
                cos, sin = (libmp.to_fixed(v._mpf_, shift) for v in mp.cos_sin(t_a * q.imag))
                half[k // 2 - s - 1] = ((cos * inv) >> shift, (sin * inv) >> shift)
                half[s - 1] = ((cos * mag) >> shift, (sin * mag) >> shift)
        es = half + [(re, -im) for re, im in reversed(half[:(k - 1) // 2])] + [(top, 0)]
        pre = prefactor(at, mp.exp(t * at.w))
        out = []
        for table in (c(at) for c in coeffs):
            re = im = 0
            for (c_re, c_im), (e_re, e_im) in zip(table.pairs, es):
                re += c_re * e_re - c_im * e_im
                im += c_re * e_im + c_im * e_re
            out.append(complex(pre * _round_fixed(re, im, shift + table.shift, prec)))
        return out


def _green_coeffs(z: complex):
    """G's coefficients weight_s/(z - zeta_s) as a _FixedTable, built once
    per working precision for one green_G call; nothing outlives the call."""
    import mpmath as mp

    built = {}

    def coeffs(at: _OracleAtoms) -> _FixedTable:
        if at.dps not in built:
            zz = mp.mpc(z)
            built[at.dps] = _fixed_table(
                [c / (zz - zeta) for c, zeta in zip(at.weights, at.zetas)], mp.mp.prec)
        return built[at.dps]

    return coeffs


# ----------------------------------------------------------------------
# lemma-level checks
# ----------------------------------------------------------------------

def roots_identity(k: int, j: int, z: complex) -> tuple[complex, complex]:
    """Both sides of sum_{s=1..k} q^(js)/(z - q^s) = k z^(j-1)/(z^k - 1).

    Computed in extended precision (the right side can be ~|z|^k small
    while the left side sums O(1) terms); returned as ordinary complex for
    the caller to compare.
    """
    k, j = int(k), int(j)
    if k < 1 or not (1 <= j <= k):
        raise ValueError(f"need k >= 1 and 1 <= j <= k, got k={k}, j={j}")
    import mpmath as mp
    from mpmath import libmp

    dps = 80 + int(math.ceil(k * abs(math.log10(abs(z)))) if z != 0 else 0)
    with mp.workdps(dps):
        zz = mp.mpc(z)
        zk = zz ** k
        if zk == 1:
            raise ZeroDivisionError("z^k = 1: identity poles")
        # the left side in fixed point at 2^-shift, each term divided as
        # conj(d)/|d|^2 in integers, then rounded once
        prec = mp.mp.prec
        shift = prec + ORACLE_GUARD_BITS
        z_re, z_im = (libmp.to_fixed(p, shift) for p in zz._mpc_)
        qs = [tuple(libmp.to_fixed(p, shift) for p in q._mpc_) for q in _unit_roots(k, dps)]
        re = im = 0
        for s, (q_re, q_im) in enumerate(qs, start=1):
            # q^(js) = q^(js mod k), read from the table
            n_re, n_im = qs[(j * s) % k - 1]
            d_re, d_im = z_re - q_re, z_im - q_im
            d2 = d_re * d_re + d_im * d_im
            re += ((n_re * d_re + n_im * d_im) << shift) // d2
            im += ((n_im * d_re - n_re * d_im) << shift) // d2
        lhs = _round_fixed(re, im, shift, prec)
        rhs = k * zz ** (j - 1) / (zk - 1)
        return complex(lhs), complex(rhs)


def taylor_remainder_check(n: int, z: complex) -> tuple[float, float]:
    """Test support: (remainder, bound) for
    |e^z - sum_{j<=n} z^j/j!| <= 2|z|^(n+1)/(n+1)!.

    Valid for |z| <= 1 and n >= 1 (enforced).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if abs(z) > 1.0 + 1e-15:
        raise ValueError(f"need |z| <= 1, got |z| = {abs(z)}")
    import mpmath as mp

    with mp.workdps(50):
        zz = mp.mpc(z)
        partial = mp.mpc(0)
        term = mp.mpc(1)
        for jj in range(0, n + 1):
            if jj > 0:
                term = term * zz / jj
            partial += term
        remainder = abs(mp.exp(zz) - partial)
        bound = 2 * abs(zz) ** (n + 1) / mp.factorial(n + 1)
        return float(remainder), float(bound)


def stirling_bounds_check(k: int) -> FitReport:
    """Test support: fit the peak envelopes around t = k.

    Upper shapes (C fitted jointly, rho = STIRLING_RHO = 0.19 fixed, which
    is valid for all t and k):
        e^(k-t) (t/k)^k max(sqrt(t/k), 1)        <= C e^(-rho (t-k)^2/max(t,k))
        e^(-t) t^k max(sqrt t, sqrt k)/k!        <= C e^(-rho (t-k)^2/max(t,k))
    Floor (c fitted) on |t-k| <= sqrt(2k):
        e^(k-t) (t/k)^k >= c,  with exact value 1 at t = k.
    """
    k = int(k)
    if k < 3:
        raise ValueError(f"need k >= 3, got {k}")
    r = math.sqrt(2.0 * k)
    t = np.unique(
        np.concatenate(
            [
                [0.0, float(k)],
                np.geomspace(1e-3, 10.0 * k, 160),
                np.linspace(max(k - r, 0.0), k + r, 25),
            ]
        )
    )
    with np.errstate(divide="ignore"):
        log_tk = np.where(t > 0, np.log(t / k), -np.inf)
        log_t = np.where(t > 0, np.log(t), -np.inf)
    lhs_peak = (k - t) + k * log_tk + np.maximum(0.5 * log_tk, 0.0)
    lhs_floor = (k - t) + k * log_tk
    lhs_fact = -t + k * log_t + np.maximum(0.5 * log_t, 0.5 * math.log(k)) - math.lgamma(k + 1.0)
    rhs = -STIRLING_RHO * (t - k) ** 2 / np.maximum(t, float(k))

    log_c_upper = float(max(np.max(lhs_peak - rhs), np.max(lhs_fact - rhs)))
    window = np.abs(t - k) <= r
    log_c_floor = float(np.min(lhs_floor[window]))

    at_k = float(lhs_floor[np.argmin(np.abs(t - k))])
    exact_at_peak = at_k == 0.0  # k*log(k/k) is exactly 0 in floats

    big_c = math.exp(log_c_upper)
    small_c = math.exp(log_c_floor)
    resid = float(
        min(
            np.min(log_c_upper + rhs - lhs_peak),
            np.min(log_c_upper + rhs - lhs_fact),
            np.min(lhs_floor[window] - log_c_floor),
        )
    )
    return FitReport(
        name="stirling-peak-envelopes",
        constants={"C": big_c, "rho": STIRLING_RHO, "c": small_c},
        worst_residual=resid,
        passed=math.isfinite(big_c) and small_c > 0 and exact_at_peak,
    )


# ----------------------------------------------------------------------
# envelope fits for the family inequalities
# ----------------------------------------------------------------------

def default_t_grid(fam: AtomFamily, n: int = 400) -> np.ndarray:
    """Log/linear grid on [0, 1.2 A] with the sqrt(k)-window refined."""
    k, a = fam.k, fam.circle_scale
    n_log = max(2, n * 3 // 10)
    n_lin = max(2, n - n_log - 41)
    lo, hi = fam.window()
    return np.unique(
        np.concatenate(
            [
                [0.0],
                np.geomspace(1e-3, k / 2.0, n_log),
                np.linspace(k / 2.0, 1.2 * a, n_lin),
                np.linspace(max(lo, 0.0), hi, 41),
            ]
        )
    )


def default_z_samples(fam: AtomFamily, n: int = 60, seed: int = 7) -> np.ndarray:
    """Deterministic spectral-region samples stratified by distance to w."""
    if n < 1:
        raise ValueError(f"need at least one z sample, got n={n}")
    M = fam.matching_rate()
    w, h = fam.base, fam.height
    m0 = (-1.0 / float(M(h))) - w.real  # distance from w to the region boundary
    b1 = (m0 * 1.02, max(1.5, m0 * 1.25))
    b2 = (b1[1] + 1e-9, max(1.999, b1[1] * 1.3))
    b3 = (max(2.001, b2[1] + 1e-9), max(5.0, b2[1] * 2.0))
    bands = [b1, b2, b3, (b3[1], max(10.0, 2.0 * h, b3[1] * 2.0))]
    rng = np.random.default_rng(seed)
    per = max(1, n // len(bands))
    out: list[complex] = []
    for lo, hi in bands:
        got = 0
        cap = math.pi
        for _ in range(20_000):
            if got >= per or len(out) >= n:
                break
            r = rng.uniform(lo, hi)
            phi = rng.uniform(-cap, cap)
            z = w + r * cmath.exp(1j * phi)
            if omega_m_contains(M, z):
                out.append(z)
                got += 1
            else:
                cap = max(0.05, cap * 0.995)  # tighten toward the open side
        if got < per and len(out) < n:
            raise ArithmeticError(f"could not populate z-band [{lo:g}, {hi:g}]")
    while len(out) < n:  # top up from the widest band
        r = rng.uniform(bands[-1][0], bands[-1][1])
        z = w + r * cmath.exp(1j * rng.uniform(-0.5, 0.5))
        if omega_m_contains(M, z):
            out.append(z)
    return np.array(out[:n])


def verify_prop52(fam: AtomFamily, t_grid, z_samples, ln_log) -> list[FitReport]:
    """Fit and verify the four envelope inequalities of the family.

    power variant: X3 (time-profile bump), XQ4 (transform box bound),
    X5 (primitive floor on the sqrt(k)-window), X6 (primitive bump).
    log variant: Y1-Y4, the stretched-exponential analogues.

    The decay rate rho is pinned by the grid points where the envelope has
    no C-term (there the bound must hold with e^(-rho t) alone); C or c is
    then the extremal pointwise ratio on the remaining points.
    ln_log is the pair (laplace_L_log(fam, t_grid), primitive_N_log(fam,
    t_grid)): the caller computes it once, for its own report as well.
    """
    t = np.asarray(t_grid, dtype=float)
    zs = np.asarray(z_samples, dtype=complex)
    abs_l, abs_n = (np.abs(to_complex(*pair)) for pair in ln_log)
    abs_g = np.abs(green_G(fam, t, zs)).reshape(zs.size, t.size)

    verify = _verify_power if fam.variant == "power" else _verify_log
    return verify(fam, t, zs, abs_l, abs_n, abs_g) \
        + [_primitive_envelope(fam, t, abs_n)]


def _verify_power(fam, t, zs, abs_l, abs_n, abs_g):
    k = fam.k
    in_window = np.abs(t - k) < k / 2.0
    scale = (math.log(k) / k) ** (1.0 / fam.alpha)
    # X3: |L| <= C 1_{|t-k|<k/2} e^{-rho (t-k)^2/k} + e^{-rho t}
    c3, rho3, env3 = box_tail_fit(abs_l, t, in_window, ~in_window & (t > 0),
                                  lambda rho: np.exp(-rho * (t - k) ** 2 / k))
    # XQ4: |G| <= C 1_{t<=2k} (|Im z|^beta 1_{|z-w|<2} + 1) + e^{-rho t}
    tail_t = t > 2.0 * k
    near = np.abs(zs - fam.base) < 2.0
    shape_z = np.where(near, np.abs(zs.imag) ** fam.beta, 0.0) + 1.0
    c4, rho4, env4 = box_tail_fit(abs_g, t, ~tail_t, tail_t,
                                  lambda rho: shape_z[:, None])
    return [
        upper_report("X3", {"C": c3, "rho": rho3}, env3, abs_l),
        upper_report("XQ4", {"C": c4, "rho": rho4}, env4, abs_g),
        # X5: |N| >= c (log k / k)^(1/alpha) on (t-k)^2 < k
        floor_report("X5", abs_n[(t - k) ** 2 < k], scale),
    ]


def _verify_log(fam, t, zs, abs_l, abs_n, abs_g):
    k = fam.k
    stretch = 1.0 / (fam.alpha + 1.0)
    u = t ** stretch
    reports = []
    pos = t > 0

    # Y1: |L| <= C e^{-rho t^(1/(alpha+1))}; rho pinned by the points where
    # the bound must hold with C = 1, so the fitted C stays order one
    ok = pos & (abs_l > 0) & np.isfinite(abs_l)
    c1, rho1 = tail_fit(abs_l[ok], u[ok])
    reports.append(upper_report(
        "Y1", {"C": c1, "rho": rho1}, c1 * np.exp(-rho1 * u), abs_l))

    # Y2: |G| <= C 1_{t<=2k} + e^{-rho t}
    tail_t = t > 2.0 * k
    rho2 = fit_rate(abs_g[:, tail_t], t[tail_t])
    c2 = FIT_PAD * float(np.max(abs_g[:, ~tail_t]))
    env2 = c2 * (~tail_t)[None, :] + np.exp(-rho2 * t)[None, :]
    reports.append(upper_report("Y2", {"C": c2, "rho": rho2}, env2, abs_g))

    # Y3: |N| >= c e^{-E k^(1/(alpha+1))} on the window; E fitted, not asserted
    win = (t - k) ** 2 < k
    n_min = float(np.min(abs_n[win]))
    k_str = k ** stretch
    e_fit = -math.log(n_min) / k_str if n_min > 0 else math.inf
    c_at_4 = n_min * math.exp(4.0 * k_str) if n_min > 0 else 0.0
    reports.append(FitReport(
        name="Y3", constants={"c": c_at_4, "exponent_factor": e_fit},
        worst_residual=n_min,
        passed=n_min > 0 and math.isfinite(e_fit),
    ))

    return reports


def _primitive_envelope(fam, t, abs_n):
    """The |N| upper envelope, X6 (power) or Y4 (log): all a ladder fit reads."""
    k = fam.k
    if fam.variant == "log":
        # Y4: |N| <= C e^{-rho t} off the half-width window
        off = (np.abs(t - k) > k / 2.0) & (t > 0)
        c, rho = tail_fit(abs_n[off], t[off])
        return upper_report("Y4", {"C": c, "rho": rho}, c * np.exp(-rho * t[off]),
                            abs_n[off])
    # X6: |N| <= C (log k/k)^(1/alpha) e^{-rho (t-k)^2/k} 1_{|t-k|<k/2} + e^{-rho t}
    win = np.abs(t - k) < k / 2.0
    c, rho, env = box_tail_fit(abs_n, t, win, ~win & (t > 0),
                               lambda rho: np.exp(-rho * (t - k) ** 2 / k),
                               (math.log(k) / k) ** (1.0 / fam.alpha))
    return upper_report("X6", {"C": c, "rho": rho}, env, abs_n)
