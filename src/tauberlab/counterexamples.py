"""Lacunary atom trains that defeat unweighted L^p decay estimates.

A train stacks scaled bump families at a rapidly growing ladder of orders
k_1 < k_2 < ... with coefficients 2^{-n} k_n^{-e}.  Each block contributes
a bump of height ~ coeff_n (log k_n / k_n)^{1/alpha} near t = k_n, and the
ladder is chosen so that a matched weight makes the window contributions
of the weighted L^p integral *increase* along the train -- the integral
diverges while every unweighted quantity stays finite.

The ladder grows so fast that k_3, k_4 overflow float64 for the canonical
schedules.  Blocks therefore carry log k as the primitive quantity, and
window evaluation uses a fused form of the leading series term,

    log |N(t)| = P(t) - log t + 1.5 log k - log |w|,
    P(t) = -t + k log t - log k!  =  -k f(s) - log sqrt(2 pi k) - delta(k),

with t = k (1 + s), f(s) = s - log(1+s) evaluated as u^2 (1/2 - s/3 + ...)
for u = (t - k)/sqrt(k), so the catastrophic cancellation of the direct
form never happens.  Higher series terms are smaller by e^{-O(k)} and are
dropped only where that bound is overwhelming (k > KFUSE).

Fitted constants (c1, c2, rho) come from the bump-family envelope reports
and are threaded into every window assertion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import AtomFamily, _primitive_envelope, build_family, default_t_grid, \
    default_z_samples, green_G, laplace_L_log, primitive_N_log
from .contour import adaptive_quad
from .logspace import to_complex
from .reports import FIT_PAD, FitReport, fit_rate, floor_report, upper_report

__all__ = [
    "Block",
    "CounterexampleSpec",
    "WindowReport",
    "KSize",
    "inverse_log_weight",
    "select_k_sequence",
    "fit_block_constants",
    "build_counterexample",
    "f_sum_eval",
    "g_sum_eval",
    "divergence_scan",
    "fit_log_weight_exponent",
    "shift_semigroup_suite",
]

KFUSE = 10_000        # exact block series below, fused leading term above
KMAX_EXACT = 1e15     # orders kept as exact integers below this
SKIP_LOG = -69.0      # blocks under e^{SKIP_LOG} ~ 1e-30 relative are dropped


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KSize:
    """A ladder order; k overflows to inf while log_k stays exact."""

    k: float
    log_k: float


@dataclass(frozen=True)
class Block:
    n: int                 # 1-based position in the train
    log_k: float
    coeff_log: float       # log(2^{-n} k^{-e})
    alpha: float
    variant: str           # "power" or "log" profile family
    log_h: float           # log of the bump height parameter
    re_w: float            # real part of the base point (always < 0)
    log_absw: float
    fam: AtomFamily | None # exact series object, present for k <= KFUSE

    @property
    def k(self) -> float:
        return math.exp(self.log_k) if self.log_k < 690.0 else math.inf

    def window_log_t(self, u: float) -> float:
        """log t at window coordinate u in [-1, 1], t = k + u sqrt(k)."""
        return _window_edge_log(self.log_k, u)


@dataclass(frozen=True)
class WindowReport:
    n: int
    t_lo: float                 # inf when the order overflows floats
    t_hi: float
    log_k: float
    min_log_abs_g: float        # computed min of log |g| over the window
    floor_log: float            # threaded lower-bound value at its weakest node
    contribution_log: float     # log of the weighted window integral
    analytic_bound_log: float   # displayed closed-form window bound
    passed: bool
    notes: str = ""


@dataclass
class CounterexampleSpec:
    """A wired train: blocks, threaded constants, and the weight data.

    c1 is the window floor constant, (c2, rho) the off-window envelope;
    gamma_log carries the power-variant threshold schedule in log form
    (log t in, log gamma(t) out), gamma_exp the log-variant weight rate
    (None until fitted or set), e_factor the fitted log-variant floor
    exponent.
    """

    variant: str
    alpha: float
    p: float
    blocks: list
    c1: float
    c2: float
    rho: float
    gamma_log: object | None    # callable log t -> log gamma(t), or None
    e_factor: float | None
    gamma_exp: float | None = None


# ----------------------------------------------------------------------
# canonical threshold schedule
# ----------------------------------------------------------------------

def inverse_log_weight(log_t: float) -> float:
    """log gamma(t) at log t for the schedule gamma(t) = 1/log(2+t).

    Exact for representable t; beyond log t = 30 it uses log(2+t) = log t +
    log1p(2 e^{-log t}), which stays finite however large log t grows.
    """
    if log_t < 30.0:
        return math.log(1.0 / math.log(2.0 + math.exp(log_t)))
    return -math.log(log_t + math.log1p(2.0 * math.exp(-min(log_t, 700.0))))


def _validate_gamma(gamma_log) -> None:
    vals = np.array([gamma_log(lt) for lt in np.linspace(0.0, math.log(1e6), 40)])
    if np.any(np.diff(vals) >= 0):
        raise ValueError("threshold schedule gamma_log must decrease in log t")


def _window_edge_log(log_k: float, u: float) -> float:
    """log(k + u sqrt(k)) from log k; u = -1 and 1 give the window edges."""
    return log_k + math.log1p(u * math.exp(-0.5 * log_k))


def _schedule_log(n: int, log_k: float, alpha: float, gamma_log) -> float:
    """log of the power ladder's schedule value 2^n gamma(k - sqrt(k))^{1/alpha}."""
    return n * math.log(2.0) + gamma_log(_window_edge_log(log_k, -1.0)) / alpha


# ----------------------------------------------------------------------
# ladder selection
# ----------------------------------------------------------------------

def _log_floor_gap(n: int, lk: float, alpha: float, c1: float, c2: float,
                   rho: float, e_factor: float, e_coeff: float) -> float:
    """Log window floor over log envelope at the left window edge, past 2x."""
    k = math.exp(lk)
    floor = math.log(c1) - n * math.log(2.0) - e_coeff * lk \
        - e_factor * math.exp(lk / (alpha + 1.0))
    env = math.log(c2) - rho * (k - math.sqrt(k))
    return floor - env - math.log(2.0)


def select_k_sequence(variant: str, N: int, alpha: float, gamma_log=None,
                      c1: float | None = None, c2: float | None = None,
                      rho: float | None = None, e_factor: float | None = None,
                      e_coeff: float | None = None) -> list[KSize]:
    """Greedy ladder: the smallest admissible order at every step.

    Growth demands k_n >= 3 k_{n-1} (k_1 >= 3).  The power variant also
    halves the schedule value 2^n gamma(k_n - sqrt(k_n))^{1/alpha} at each
    step, reading log gamma from gamma_log at log t.  The log variant,
    given the fitted constants, demands the window floor beat twice the
    contamination envelope throughout its own window -- the floor shrinks
    like a stretched exponential while the envelope decays at the full
    rate rho, so every rung has a first admissible order.  Any other
    variant is a ValueError.
    """
    if N < 1:
        raise ValueError("need at least one block")
    dominance = None
    if variant == "power":
        if gamma_log is None:
            raise ValueError("power ladder needs a threshold schedule")
        _validate_gamma(gamma_log)
    elif variant == "log":
        if all(v is not None for v in (c1, c2, rho, e_factor, e_coeff)):
            def dominance(n: int, lk: float) -> float:
                return _log_floor_gap(n, lk, alpha, c1, c2, rho,
                                      e_factor, e_coeff)
    else:
        raise ValueError(f"unknown variant {variant!r}")

    out: list[KSize] = []
    prev_log_k = None
    prev_sched = None
    for n in range(1, N + 1):
        if prev_log_k is None:
            lo = math.log(3.0)
        else:
            lo = prev_log_k + math.log(3.0)
            # window separation: the next order's half-width indicator must
            # stay off throughout this order's window, so the pure tail
            # envelope bounds all cross-block contamination there
            sep = math.log(2.0) + _window_edge_log(prev_log_k, 1.0) + 1e-9
            lo = max(lo, sep)
        if variant == "log":
            log_k = lo
            if dominance is not None and dominance(n, log_k) < 0.0:
                hi = log_k + 1.0
                for _ in range(60):
                    if dominance(n, hi) >= 0.0:
                        break
                    hi += 1.0
                else:
                    raise ValueError("no admissible order: envelope never "
                                     "falls below the window floor")
                for _ in range(200):
                    mid = 0.5 * (log_k + hi)
                    if dominance(n, mid) < 0.0:
                        log_k = mid
                    else:
                        hi = mid
                log_k = hi
        else:
            def sched(lk: float) -> float:
                return _schedule_log(n, lk, alpha, gamma_log)

            if prev_sched is None:
                log_k = lo
            else:
                target = prev_sched - math.log(2.0)
                if sched(lo) <= target:
                    log_k = lo
                else:
                    hi = lo + 1.0
                    while sched(hi) > target:
                        hi = hi * 2.0 + 1.0
                        if hi > 1e7:
                            raise ValueError(
                                "threshold schedule cannot halve; not decreasing fast enough")
                    for _ in range(200):
                        mid = 0.5 * (lo + hi)
                        if sched(mid) > target:
                            lo = mid
                        else:
                            hi = mid
                    log_k = hi
        if log_k < math.log(KMAX_EXACT):
            k_int = max(3.0, math.ceil(math.exp(log_k) - 1e-9))
            log_k = math.log(k_int)
        if variant == "power":
            prev_sched = sched(log_k)
        prev_log_k = log_k
        out.append(KSize(math.exp(log_k) if log_k < 690 else math.inf, log_k))
    return out


# ----------------------------------------------------------------------
# block construction and the fused evaluator
# ----------------------------------------------------------------------

def _power_log_height(alpha: float, gamma_atom: float, log_k: float) -> float:
    """Newton solve of alpha x + log x = log k - log gamma for x = log H."""
    rhs = log_k - math.log(gamma_atom)
    if rhs <= 0:
        raise ValueError("order too small for this profile family")
    x = max(rhs / alpha, 1e-6)
    for _ in range(100):
        step = (alpha * x + math.log(x) - rhs) / (alpha + 1.0 / x)
        x -= step
        if abs(step) < 1e-15 * max(1.0, x):
            break
    return x


def _make_block(n: int, size: KSize, variant: str, alpha: float,
                e_coeff: float, beta: float | None) -> Block:
    coeff_log = -n * math.log(2.0) - e_coeff * size.log_k
    if variant == "log":
        if size.k > KFUSE:
            raise ValueError("log-profile trains stay at desk scale")
        fam = build_family("log", int(size.k), alpha)
        log_h = math.log(fam.height)
        re_w = fam.base.real
    else:
        gamma_atom = (beta - alpha / 2.0) / 2.0
        log_h = _power_log_height(alpha, gamma_atom, size.log_k)
        re_w = -1.0
        fam = build_family("power", int(size.k), alpha, beta=beta) \
            if size.k <= KFUSE else None
    log_absw = log_h + 0.5 * math.log1p(re_w * re_w * math.exp(-2.0 * log_h))
    return Block(n, size.log_k, coeff_log, alpha, variant, log_h, re_w,
                 log_absw, fam)


def _fpoly(s: float) -> float:
    """f(s)/s^2 for f(s) = s - log(1+s): 1/2 - s/3 + s^2/4 - ..."""
    out, sj = 0.0, 1.0
    for j in range(2, 80):
        out += sj / j if j % 2 == 0 else -sj / j
        sj *= s
        if abs(sj) / (j + 1) < 1e-18 * max(abs(out), 0.1):
            break
    return out


def _stirling_body(block: Block, s: float, u_sq: float | None) -> float:
    """P(t) = -t + k log t - log k! at t = k(1+s), cancellation-free."""
    if not math.isfinite(s) or s <= -1.0:
        return -math.inf
    if abs(s) < 1e-2:
        if u_sq is None:
            u_sq = s * s * math.exp(block.log_k)   # may overflow -> inf
        kf = u_sq * _fpoly(s)
    else:
        kf = math.exp(block.log_k) * (s - math.log1p(s))
    if not math.isfinite(kf):
        return -math.inf
    delta = math.exp(-block.log_k) / 12.0 - math.exp(-3.0 * block.log_k) / 360.0
    return -kf - 0.5 * (math.log(2.0 * math.pi) + block.log_k) - delta


def _fused_log_abs(block: Block, s: float, u_sq: float | None, which: str) -> float:
    """log |L| or |N| from the leading series term (valid for k > KFUSE)."""
    body = _stirling_body(block, s, u_sq)
    if body == -math.inf:
        return -math.inf
    log_t = block.log_k + math.log1p(s)
    depth = -block.re_w - 1.0          # extra decay beyond e^{-t}
    if depth > 0.0:
        if log_t > 690.0:
            return -math.inf
        body -= depth * math.exp(log_t)
    if which == "N":
        return body - log_t + 1.5 * block.log_k - block.log_absw
    # L carries the (1 + (k-1)/(t w)) bracket of the leading term
    lm = body - log_t + 1.5 * block.log_k
    r_log = block.log_k - log_t - block.log_absw
    if r_log > -40.0 and block.log_h < 700.0 and log_t < 700.0:
        w = complex(block.re_w, math.exp(block.log_h))
        r = (math.exp(block.log_k) - 1.0) / (math.exp(log_t) * w)
        lm += math.log(abs(1.0 + r))
    return lm


def _block_log_abs_window(block: Block, u: float) -> float:
    """log |N| at t = k + u sqrt(k), exact in (log k, u)."""
    if block.fam is not None:
        t = block.k + u * math.sqrt(block.k)
        lm, _ = primitive_N_log(block.fam, t)
        return float(lm)
    s = u * math.exp(-0.5 * block.log_k)
    return _fused_log_abs(block, s, u * u, "N")


def _block_log_abs_at(block: Block, t: float, which: str = "N") -> float:
    """log |.| at a time t > 0; fused estimate for out-of-range orders."""
    if block.fam is not None:
        try:
            lm, _ = primitive_N_log(block.fam, t) if which == "N" \
                else laplace_L_log(block.fam, t)
            return float(lm)
        except ArithmeticError:
            pass                           # t far past this order: series caps out
    delta = math.log(t) - block.log_k
    s = math.expm1(delta) if delta < 690.0 else math.inf
    return _fused_log_abs(block, s, None, which)


# ----------------------------------------------------------------------
# threaded constants
# ----------------------------------------------------------------------

FLOOR_MARGIN = 1e-3   # threading margin between the swept floor and c1


def _window_floor_log(variant: str, alpha: float, beta: float | None,
                      log_k: float) -> float:
    """Endpoint-inclusive sweep of log |N| over the window [k +- sqrt(k)].

    The envelope reports mask the window strictly, so their constants miss
    the edge dip; scan assertions need a floor fitted over the full closed
    window, which dominates every interior quadrature node.
    """
    k = math.exp(log_k) if log_k < 690.0 else math.inf
    blk = _make_block(1, KSize(k, log_k), variant, alpha, 0.0, beta)
    return min(_block_log_abs_window(blk, u)
               for u in np.linspace(-1.0, 1.0, 81))


def fit_block_constants(variant: str, alpha: float, beta: float | None = None,
                        k_fit=(16, 24, 40)) -> dict:
    """Aggregate the envelope constants of the matched bump families from N alone.

    reports[k] is [the |N| envelope report of verify_prop52 at order k] (X6
    for power, Y4 for log) on the default t grid: rho is its weakest tail
    rate and c2 its off-window coefficient (exactly 1 for the power shape).
    The floor c1 comes from a closed-window |N| sweep over the fit ladder --
    extended, for power, by fused-scale probes that capture the large-order
    drift -- times the threading margin.  No L, G or z sample is evaluated.
    """
    reports: dict[int, list[FitReport]] = {}
    for k in k_fit:
        fam = build_family(variant, int(k), alpha, beta=beta)
        t = default_t_grid(fam)
        abs_n = np.abs(to_complex(*primitive_N_log(fam, t)))
        reports[int(k)] = [_primitive_envelope(
            fam, t, abs_n, f"k={fam.k}: {t.size} t-pts on [0,{t.max():g}]")]
    rho = min(reps[0].constants["rho"] for reps in reports.values())
    if variant == "power":
        probe_logs = [math.log(float(k)) for k in k_fit] + [
            math.log(1e5), math.log(1e8), 300.0]
        floor = min(
            _window_floor_log(variant, alpha, beta, lk)
            - (math.log(lk) - lk) / alpha
            for lk in probe_logs
        )
        out = {"c1": math.exp(floor) * (1.0 - FLOOR_MARGIN), "c2": 1.0,
               "rho": rho, "e_factor": None}
    else:
        # joint floor c1 e^{-E k^str}: E from the extreme orders, c1 minimal
        str_exp = 1.0 / (alpha + 1.0)
        ks = sorted(reports)
        x = np.array([k ** str_exp for k in ks])
        y = np.array([_window_floor_log(variant, alpha, None, math.log(k))
                      for k in ks])
        e_fit = float((y[0] - y[-1]) / (x[-1] - x[0]))
        c1 = min(math.exp(y[i] + e_fit * x[i]) for i in range(len(ks)))
        c1 *= (1.0 - FLOOR_MARGIN)
        c2 = max(reports[k][0].constants["C"] for k in ks) * FIT_PAD
        out = {"c1": c1, "c2": c2, "rho": rho, "e_factor": e_fit}
    out["reports"] = reports
    return out


# ----------------------------------------------------------------------
# spec assembly
# ----------------------------------------------------------------------

def build_counterexample(variant: str, alpha: float, p: float, N: int,
                         gamma_log=None, k_seq=None) -> CounterexampleSpec:
    """Select the ladder, fit the envelope constants, and wire the blocks.

    variant is "power" (ladder from the threshold schedule in log form,
    gamma_log: log t -> log gamma(t)) or "log" (ladder from the fitted
    envelope constants); any other variant is a ValueError.  k_seq
    replaces the selected ladder.  The constants are fitted at the orders
    (3, 16, 24, 40) for power and (3, 9, 27) for a log train given its
    k_seq; a selected log ladder is refitted at its own orders.  The log-variant
    weight rate gamma_exp is left unset.
    """
    if variant == "power":
        beta = alpha / 2.0 + alpha / (4.0 * p)
    elif variant == "log":
        beta = None
    else:
        raise ValueError(f"unknown variant {variant!r}")
    e_coeff = 1.0 / (2.0 * p)

    fit = None
    if variant == "log" and k_seq is None:
        # select with provisionally fitted constants, refit at the selected
        # orders, and keep going until the refit still clears the dominance
        # margin everywhere (the factor-2 cushion absorbs the drift)
        const = fit_block_constants("log", alpha, k_fit=(3, 9, 27))
        for _ in range(4):
            sizes = select_k_sequence(
                "log", N, alpha, c1=const["c1"], c2=const["c2"],
                rho=const["rho"], e_factor=const["e_factor"], e_coeff=e_coeff)
            desk = tuple(int(round(s.k)) for s in sizes)
            fit = fit_block_constants("log", alpha, k_fit=desk)
            if all(_log_floor_gap(sz_n, sz.log_k, alpha, fit["c1"], fit["c2"],
                                  fit["rho"], fit["e_factor"], e_coeff) >= 0.0
                   for sz_n, sz in enumerate(sizes, start=1)):
                break
            const = fit
        else:
            raise ArithmeticError(
                "log ladder failed to stabilise against the refitted envelope")
    elif k_seq is None:
        sizes = select_k_sequence(variant, N, alpha, gamma_log=gamma_log)
    else:
        sizes = [KSize(float(k), math.log(float(k))) for k in k_seq]
    _check_ladder_invariants(variant, sizes, alpha, gamma_log)
    if fit is None:
        fit = fit_block_constants(variant, alpha, beta=beta, k_fit=(
            (3, 16, 24, 40) if variant == "power" else (3, 9, 27)))

    blocks = [_make_block(n + 1, sz, variant, alpha, e_coeff, beta)
              for n, sz in enumerate(sizes)]
    return CounterexampleSpec(
        variant, float(alpha), float(p), blocks, float(fit["c1"]),
        float(fit["c2"]), float(fit["rho"]), gamma_log, fit["e_factor"])


def _check_ladder_invariants(variant, sizes, alpha, gamma_log):
    logs = [s.log_k for s in sizes]
    if math.exp(logs[0]) < 3.0 - 1e-9:
        raise ValueError("first order must be at least 3")
    for a, b in zip(logs[:-1], logs[1:]):
        if b - a < math.log(3.0) - 1e-12:
            raise ValueError("orders must grow at least threefold")
        # window separation: k_n + sqrt(k_n) < k_m - k_m/2 for every m > n
        hi_n = _window_edge_log(a, 1.0)
        lo_margin = b - math.log(2.0)
        if hi_n >= lo_margin:
            raise ValueError("windows are not separated by the half-order margin")
    if variant == "power":
        vals = [_schedule_log(n, lk, alpha, gamma_log)
                for n, lk in enumerate(logs, start=1)]
        if np.any(np.diff(vals) >= 0):
            raise ValueError("threshold schedule values must strictly decrease")


# ----------------------------------------------------------------------
# train sums at ordinary times
# ----------------------------------------------------------------------

def _train_sum(spec: CounterexampleSpec, t: float, which: str) -> complex:
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0.0:
        return 0.0 + 0.0j
    est = np.array([spec.blocks[i].coeff_log + _block_log_abs_at(spec.blocks[i], t, which)
                    for i in range(len(spec.blocks))])
    ref = float(np.max(est))
    total = 0.0 + 0.0j
    for b, lm in zip(spec.blocks, est):
        if not (lm - ref > SKIP_LOG):
            continue                       # relative 1e-30 block skip
        if b.fam is None:
            raise ValueError(
                f"block {b.n} contributes at t={t:g} but its order exceeds the "
                "exact-series range; use the window tools for that scale")
        try:
            b_lm, b_ph = primitive_N_log(b.fam, t) if which == "N" else laplace_L_log(b.fam, t)
        except ArithmeticError:
            raise ValueError(
                f"block {b.n} contributes at t={t:g} but the time sits too far "
                "past its order for the exact series; use the window tools") from None
        total += math.exp(b.coeff_log) * to_complex(b_lm, b_ph)
    return total


def f_sum_eval(spec: CounterexampleSpec, t: float) -> complex:
    """The train profile f(t) = sum_n coeff_n L_n(t)."""
    return _train_sum(spec, float(t), "L")


def g_sum_eval(spec: CounterexampleSpec, t: float) -> complex:
    """The integrated train g(t) = -sum_n coeff_n N_n(t)."""
    return -_train_sum(spec, float(t), "N")


# ----------------------------------------------------------------------
# weighted window scan
# ----------------------------------------------------------------------

def _log_sub(a: float, b: float) -> float:
    """log(e^a - e^b), -inf when the difference is nonpositive."""
    if b >= a:
        return -math.inf
    return a + math.log1p(-math.exp(b - a))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(e^a)) of a nonempty, finite 1-d array, in scipy's steps.

    The maximum entries are counted apart and the rest are summed shifted,
    in the order of scipy.special.logsumexp (1.17.1), so the results are
    bit-identical to it.
    """
    a_max = np.max(a)
    at_max = a == a_max
    m = float(np.count_nonzero(at_max))
    s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max))
    if s != 0:
        s /= m
    return float(np.log1p(s) + np.log(m) + a_max)


def _tail_envelope_log(spec: CounterexampleSpec, log_t: float) -> float:
    """log of c2 e^{-rho t}: the threaded off-window contamination bound."""
    if log_t > 690.0:
        return -math.inf
    return math.log(spec.c2) - spec.rho * math.exp(log_t)


def _scale_log(spec: CounterexampleSpec, block: Block) -> float:
    if spec.variant == "log":
        str_exp = 1.0 / (spec.alpha + 1.0)
        return -spec.e_factor * math.exp(str_exp * block.log_k)
    return (math.log(block.log_k) - block.log_k) / spec.alpha


def _weight_log(spec: CounterexampleSpec, log_t: float) -> float:
    # returns log of the full weight factor in the L^p integrand, w(t)^p
    if spec.variant == "log":
        if spec.gamma_exp is None:
            raise ValueError("log-variant weight exponent not set; fit it first")
        return spec.p * spec.gamma_exp * math.exp(log_t / (spec.alpha + 1.0))
    if spec.gamma_log is None:
        raise ValueError("power-variant weight needs the threshold schedule")
    loglog = math.log(log_t + math.log1p(2.0 * math.exp(-min(log_t, 700.0)))) \
        if log_t > 1e-12 else math.log(math.log(2.0 + math.exp(log_t)))
    return (spec.p / spec.alpha) * (log_t - spec.gamma_log(log_t) - loglog)


def divergence_scan(spec: CounterexampleSpec, nodes: int = 24,
                    require_increasing: bool = True) -> list[WindowReport]:
    """Weighted window contributions along the train.

    Per window: int (max(|g| - c2 e^{-rho t}, 0))^p weight(t) dt on
    [k_n - sqrt(k_n), k_n + sqrt(k_n)], all in log space, plus the
    pointwise floor assertion against c1 coeff_n scale_n - c2 e^{-rho t}.
    Contributions must be strictly increasing in n.  nodes is the
    Gauss-Legendre order per window; nodes < 1 is a ValueError.

    The increasing rule is checked here, not by reports.ladder_report:
    a ladder certifies convergence by geometric decay of its increments,
    while this scan certifies divergence by their growth, so the two
    rules share no test.
    """
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    reports: list[WindowReport] = []
    for b in spec.blocks:
        log_ts = np.array([b.window_log_t(u) for u in xs])
        own = np.array([b.coeff_log + _block_log_abs_window(b, u) for u in xs])
        # other blocks contribute below the threaded envelope; at desk scale
        # add them exactly, beyond it they are < e^{-k/3} and are dropped
        if b.fam is not None and len(spec.blocks) > 1:
            g_abs = np.empty(nodes)
            for i, lt in enumerate(log_ts):
                g_abs[i] = _abs_g_desk(spec, math.exp(lt))
            with np.errstate(divide="ignore"):
                g_log = np.where(g_abs > 0, np.log(g_abs), -np.inf)
        else:
            g_log = own
        env = np.array([_tail_envelope_log(spec, lt) for lt in log_ts])
        floor = np.array([
            _log_sub(math.log(spec.c1) + b.coeff_log + _scale_log(spec, b), e)
            for e in env
        ])
        ok = bool(np.all(g_log >= floor))
        w_vals = np.array([_weight_log(spec, lt) for lt in log_ts])
        inte = np.array([
            spec.p * _log_sub(g, e) + w + math.log(gw) + 0.5 * b.log_k
            for g, e, w, gw in zip(g_log, env, w_vals, ws)
        ])
        finite = inte[np.isfinite(inte)]
        contrib = _logsumexp(finite) if finite.size else -math.inf
        # window length times the worst pointwise lower integrand value
        bound = math.log(2.0) + 0.5 * b.log_k \
            + float(np.min(spec.p * floor + w_vals))
        k = b.k
        reports.append(WindowReport(
            n=b.n,
            t_lo=k - math.sqrt(k) if math.isfinite(k) else math.inf,
            t_hi=k + math.sqrt(k) if math.isfinite(k) else math.inf,
            log_k=b.log_k,
            min_log_abs_g=float(np.min(g_log)),
            floor_log=float(np.max(floor)),
            contribution_log=contrib,
            analytic_bound_log=bound,
            passed=ok,
            notes="exact series" if b.fam is not None else "fused leading term",
        ))
    if require_increasing:
        seq = [r.contribution_log for r in reports]
        if any(a >= b for a, b in zip(seq[:-1], seq[1:])):
            raise ArithmeticError(
                f"window contributions fail to increase: {seq}")
    return reports


def _abs_g_desk(spec: CounterexampleSpec, t: float) -> float:
    """|g(t)| summing every desk block exactly (huge blocks vanish here)."""
    total = 0.0 + 0.0j
    for b in spec.blocks:
        if b.fam is None:
            continue
        lm, ph = primitive_N_log(b.fam, t)
        if lm == -math.inf:
            continue
        if b.coeff_log + lm < SKIP_LOG * 10:
            continue
        total += math.exp(b.coeff_log) * to_complex(lm, ph)
    return abs(total)


def fit_log_weight_exponent(spec: CounterexampleSpec) -> float:
    """Double the stretched-exponential weight rate, from 1, until the
    window contributions increase strictly; cap at 4p + 1."""
    if spec.variant != "log":
        raise ValueError("only the log variant fits its weight exponent")
    cap = 4.0 * spec.p + 1.0
    g = 1.0
    while True:
        spec.gamma_exp = min(g, cap)
        try:
            divergence_scan(spec, require_increasing=True)
            return spec.gamma_exp
        except ArithmeticError:
            if g >= cap:
                raise
            g = min(2.0 * g, cap)


# ----------------------------------------------------------------------
# shift semigroup probes
# ----------------------------------------------------------------------

def _suffix_tail_sums(vals_sq: np.ndarray, edges: np.ndarray, wq: np.ndarray,
                      order: int) -> np.ndarray:
    """Tail integrals at panel edges from per-panel GL sums."""
    panels = edges.size - 1
    per_panel = np.array([
        float(np.dot(wq[i * order:(i + 1) * order],
                     vals_sq[i * order:(i + 1) * order]))
        for i in range(panels)
    ])
    tails = np.concatenate([np.cumsum(per_panel[::-1])[::-1], [0.0]])
    return tails


def _orbit_envelope(vals: np.ndarray, te: np.ndarray, k: int, scale: float):
    """(c, C, rho, envelope) of vals <= c scale 1_{t<=2k} + C e^{-rho t}.

    c is the padded box maximum over scale; rho is fitted on the positive
    points beyond 2k and C is the padded largest vals e^{rho t} there.
    """
    head = te <= 2.0 * k
    late = (te > 2.0 * k) & (vals > 0)
    c_box = FIT_PAD * float(np.max(vals[head])) / scale
    rho = fit_rate(vals[late], te[late])
    c_tail = FIT_PAD * float(np.max(vals[late] * np.exp(rho * te[late])))
    return c_box, c_tail, rho, c_box * scale * head + c_tail * np.exp(-rho * te)


def shift_semigroup_suite(alpha: float, p: float, k_list=(20, 40),
                          n_lambda: int = 40, seed: int = 11) -> list[FitReport]:
    """Left-shift L^2 probes of single blocks at desk orders.

    For h = L (the block profile) the shift orbit norm is the tail
    integral ||S(t) h||^2 = int_t^inf |h|^2, and the generator inverse
    turns L into N.  Fits: the k^{1/4} box bound for L (T1), the window
    floor (T5) and matching upper bound (T6) for N at the
    k^{1/4} (log k/k)^{1/alpha} scale, the transform growth ratio along
    sampled frequencies (73b), and the tail identity
    ||S(t)h||^2 + int_0^t |h|^2 = ||h||^2 by two independent quadratures.
    """
    beta = alpha / 2.0 + alpha / (2.0 * p)
    out: list[FitReport] = []
    order = 8
    xs, glw = np.polynomial.legendre.leggauss(order)
    for k in k_list:
        fam = build_family("power", int(k), alpha, beta=beta)
        t_max = 3.0 * k + 80.0
        # segment boundaries include the identity probe times, so tail sums
        # can be read off at exact edges
        seams = [0.0, 0.5 * k, float(k), 2.0 * k, t_max]
        edges = [np.array([0.0])]
        for lo, hi in zip(seams[:-1], seams[1:]):
            cnt = max(40, int(math.ceil((hi - lo) / (math.sqrt(k) / 6.0))))
            edges.append(np.linspace(lo, hi, cnt + 1)[1:])
        edges = np.concatenate(edges)
        nodes, wq = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (hi - lo) * (xs + 1.0) + lo)
            wq.append(0.5 * (hi - lo) * glw)
        nodes = np.concatenate(nodes)
        wq = np.concatenate(wq)
        abs_l = np.array([math.exp(m) for m in laplace_L_log(fam, nodes)[0].tolist()])
        abs_n = np.array([math.exp(m) for m in primitive_N_log(fam, nodes)[0].tolist()])

        tail_l = np.sqrt(_suffix_tail_sums(abs_l ** 2, edges, wq, order))
        tail_n = np.sqrt(_suffix_tail_sums(abs_n ** 2, edges, wq, order))
        te = edges

        # T1: ||S(t) L|| <= c k^{1/4} 1_{t<=2k} + C e^{-rho t}
        c_box, c_tail, rho1, env = _orbit_envelope(tail_l, te, k, k ** 0.25)
        out.append(upper_report(
            "T1", {"c": c_box, "C": c_tail, "rho": rho1}, env, tail_l,
            f"k={k}, {te.size} edges to {t_max:g}", "shift orbit of the profile"))

        # T5: ||S(t) N|| >= c k^{1/4} (log k/k)^{1/alpha} for t <= k
        scale = k ** 0.25 * (math.log(k) / k) ** (1.0 / alpha)
        out.append(floor_report("T5", tail_n[te <= k], scale, f"k={k}, t<=k",
                                "integrated-orbit floor"))

        # T6: matching upper bound with tail
        c_up, c6t, rho6, env6 = _orbit_envelope(tail_n, te, k, scale)
        out.append(upper_report(
            "T6", {"C": c_up, "C_tail": c6t, "rho": rho6}, env6, tail_n,
            f"k={k}", "integrated-orbit envelope"))

        # 73b: transform L^2 growth along sampled frequencies
        zs = default_z_samples(fam, n=n_lambda, seed=seed)
        ratios = []
        for z, gv in zip(zs, green_G(fam, nodes, zs)):
            norm = math.sqrt(float(np.dot(wq, np.abs(gv) ** 2)))
            ratios.append(norm / (1.0 + abs(z.imag)) ** (alpha / 2.0))
        sup = float(np.max(ratios))
        out.append(FitReport(
            name="73b",
            constants={"sup": sup, "normalized": sup / k ** (0.25 + 1.0 / p)},
            worst_residual=float(np.min(ratios)),
            passed=math.isfinite(sup),
            grid=f"k={k}, {len(zs)} frequency samples",
            notes="growth ratio bounded over the sampled region",
        ))

        # tail identity by two independent quadrature routes
        worst = 0.0
        hnorm_sq = None
        for t_probe in (0.5 * k, k, 2.0 * k):
            head_ad, _, _ = adaptive_quad(
                lambda ts: np.array([math.exp(2.0 * m) for m in
                                     laplace_L_log(fam, np.atleast_1d(ts))[0].tolist()]),
                0.0, t_probe, 1e-12, initial_panels=24, piece="tail-identity-head")
            if hnorm_sq is None:
                total_ad, _, _ = adaptive_quad(
                    lambda ts: np.array([math.exp(2.0 * m) for m in
                                         laplace_L_log(fam, np.atleast_1d(ts))[0].tolist()]),
                    0.0, t_max, 1e-12, initial_panels=48, piece="tail-identity-total")
                hnorm_sq = float(total_ad.real)
            idx = int(np.argmin(np.abs(te - t_probe)))
            if abs(te[idx] - t_probe) > 1e-9:
                raise AssertionError("probe time must sit on a panel edge")
            tail_sq = float(tail_l[idx] ** 2)
            worst = max(worst, abs(float(head_ad.real) + tail_sq - hnorm_sq) / hnorm_sq)
        out.append(FitReport(
            name="shift-tail-identity",
            constants={"worst_relative": worst, "h_norm_sq": hnorm_sq},
            worst_residual=1e-8 - worst,
            passed=worst <= 1e-8,
            grid=f"k={k}, probes at k/2, k, 2k",
            notes="suffix panel sums vs adaptive quadrature",
        ))
    return out
