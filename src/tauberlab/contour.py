"""Contour reconstruction of decay remainders from transform data.

Given a time-side function f with transform fhat analytic up to (and a bit
beyond) the imaginary axis, the remainder

    g(t) = fhat(0) - int_0^t f(s) ds

is recovered by integrating fhat against the mollified Cauchy kernel

    E(z) = (1 + z^2/R^2)^n e^{zt} / z

over a closed contour winding once around 0.  Two contours are provided: a
fixed two-radius circle split (right arc / vertical segment / left arc for
the entire truncated transform), and an adaptive four-piece contour whose
radius R(t) follows the log-corrected inverse weight of a rate function M
and whose left side hugs the spectral-region boundary Re z = -1/M(|Im z|).

Quadrature is composite Gauss-Legendre with adaptive bisection so each
piece norm is an inspectable number; the module also carries the kernel
integral bound used to control arc pieces, and the exact Poisson
convolution against step functions together with its L^p contraction.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .atoms import AtomFamily, green_G, laplace_L
from .reports import FIT_PAD, FitReport, upper_report
from .weights import RateFunction, w_m_log

__all__ = [
    "QuadratureError",
    "TransformPair",
    "ContourSpec",
    "adaptive_quad",
    "lemma31_check",
    "reconstruct_g_fixed",
    "reconstruct_g_adaptive",
    "check_piece_schedule",
    "fit_adaptive_piece_bounds",
    "transform_pair_from_family",
    "exp_decay_pair",
    "rational_pair",
    "default_k_scale",
]

ARC_TOL = 1e-10        # quadrature target on circular arcs and segments
BOUNDARY_TOL = 1e-8    # quadrature target on the spectral-boundary curve
BOUNDARY_OFFSET = 1e-6  # inward offset of the boundary curve, as a fraction of 1/M


class QuadratureError(ArithmeticError):
    """Raised when a quadrature cannot meet its tolerance; carries diagnostics."""


# ----------------------------------------------------------------------
# Gauss-Legendre engine
# ----------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_MAX_DEPTH = 26  # panel halvings before a panel over budget is an error


def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def adaptive_quad(fn, a: float, b: float, tol: float, *,
                  initial_panels: int = 1, piece: str = "integral"):
    """Adaptive composite Gauss-Legendre over a real parameter interval.

    fn maps a node array to (complex) integrand values.  Returns
    (integral, abs_integral, evals) where abs_integral accumulates
    int |fn| |du| over the accepted panels.  Panel error is the gap
    between the 16- and 32-point rules; the tolerance budget is split
    linearly in length.  A panel still more than 8 times over budget
    after _MAX_DEPTH halvings raises QuadratureError.
    """
    if a == b:
        return 0j, 0.0, 0
    xs_lo, ws_lo = _gl(16)
    xs_hi, ws_hi = _gl(32)
    total = abs(b - a)
    edges = np.linspace(a, b, max(1, initial_panels) + 1)
    stack = [(edges[i], edges[i + 1], 0) for i in range(len(edges) - 1)]
    val = 0j
    aval = 0.0
    evals = 0
    while stack:
        lo, hi, depth = stack.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        f_hi = np.asarray(fn(mid + half * xs_hi))
        f_lo = np.asarray(fn(mid + half * xs_lo))
        evals += f_hi.size + f_lo.size
        i_hi = half * np.sum(ws_hi * f_hi)
        i_lo = half * np.sum(ws_lo * f_lo)
        err = abs(i_hi - i_lo)
        budget = max(tol * abs(hi - lo) / total, 1e-18)
        if err <= budget or depth >= _MAX_DEPTH:
            if depth >= _MAX_DEPTH and err > 8.0 * budget:
                raise QuadratureError(
                    f"{piece}: panel [{lo:g}, {hi:g}] error {err:.3e} vs budget "
                    f"{budget:.3e} at depth {depth}"
                )
            val += complex(i_hi)
            aval += abs(half) * float(np.sum(ws_hi * np.abs(f_hi)))
        else:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return val, aval, evals


# ----------------------------------------------------------------------
# kernel integral bound and Poisson smoothing
# ----------------------------------------------------------------------

def lemma31_check(t: float) -> tuple[float, float]:
    """Integral of e^{-t cos th} cos th over [-pi/2, pi/2] vs its bound.

    Returns (integral, proof_bound) with proof_bound = min(2, pi^2/(2 t^2))
    (exact value 2 at t = 0) and raises if the quadrature exceeds the bound
    by more than 1e-9.
    """
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")

    def fn(th):
        return np.exp(-t * np.cos(th)) * np.cos(th)

    val, _, _ = adaptive_quad(fn, -math.pi / 2, math.pi / 2, 1e-10,
                              initial_panels=8, piece="kernel bound")
    integral = val.real
    proof_bound = 2.0 if t == 0.0 else min(2.0, math.pi ** 2 / (2.0 * t * t))
    if integral > proof_bound + 1e-9:
        raise ArithmeticError(
            f"kernel integral {integral:.12e} exceeds bound {proof_bound:.12e} at t={t:g}"
        )
    return integral, proof_bound


@dataclass(frozen=True)
class StepFunction:
    """Test support: a compactly supported piecewise-constant function on
    the line."""

    edges: np.ndarray   # ascending breakpoints, length m+1
    values: np.ndarray  # value on [edges[i], edges[i+1]), length m

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or v.ndim != 1 or e.size != v.size + 1:
            raise ValueError("edges must be one longer than values")
        if np.any(np.diff(e) <= 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)


def step_lp_norm(h: StepFunction, p) -> float:
    """Test support: the L^p norm of h, p >= 1 or inf."""
    if p == math.inf or p == "inf":
        return float(np.max(np.abs(h.values))) if h.values.size else 0.0
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.sum(np.abs(h.values) ** p * np.diff(h.edges)) ** (1.0 / p))


def poisson_convolve(h: StepFunction, y: float, x):
    """Test support: the harmonic extension (P_y * h)(x), exactly
    integrated per step.

    (1/pi) sum_i v_i [arctan((e_{i+1}-x)/y) - arctan((e_i-x)/y)].
    """
    if y <= 0:
        raise ValueError(f"y must be positive, got {y}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    angles = np.arctan((h.edges[None, :] - x_arr[:, None]) / y)
    out = np.sum(h.values[None, :] * np.diff(angles, axis=1), axis=1) / math.pi
    return out if np.ndim(x) else float(out[0])


# ----------------------------------------------------------------------
# transform pairs
# ----------------------------------------------------------------------

@dataclass
class TransformPair:
    """Time function f (vectorized), its transform fhat, fhat(0) and the tail.

    fhat and tail take a 1-d array of z and return one value per z, so a
    contour asks for a whole node batch in one call.  tail(t, z) must equal
    e^{zt} (fhat(z) - fhat_t(z)) in closed form -- the one combination the
    right arc needs that cannot be assembled stably from its two
    exponentially large halves once R*t is large.
    """

    f: object       # callable: ndarray t -> ndarray complex
    fhat: object    # callable: ndarray z -> ndarray complex
    fhat0: complex
    tail: object    # callable (t, ndarray z) -> ndarray


def exp_decay_pair() -> TransformPair:
    """f(t) = e^{-t}; fhat(z) = 1/(1+z); g(t) = e^{-t}."""
    return TransformPair(
        f=lambda t: np.exp(-np.asarray(t, dtype=float)),
        fhat=lambda z: 1.0 / (1.0 + z),
        fhat0=1.0 + 0j,
        tail=lambda t, z: math.exp(-t) / (1.0 + z),
    )


def rational_pair(poles, coeffs) -> TransformPair:
    """f(t) = sum_j c_j e^{p_j t} with Re p_j < 0; fhat(z) = sum c_j/(z-p_j)."""
    ps = [complex(p) for p in poles]
    cs = [complex(c) for c in coeffs]
    if len(ps) != len(cs) or not ps:
        raise ValueError("poles and coeffs must be nonempty and matched")
    if any(p.real >= 0 for p in ps):
        raise ValueError("poles must have negative real part")

    def f(t):
        t = np.asarray(t, dtype=float)
        return sum(c * np.exp(p * t) for c, p in zip(cs, ps))

    return TransformPair(
        f=f,
        fhat=lambda z: sum(c / (z - p) for c, p in zip(cs, ps)),
        fhat0=sum(-c / p for c, p in zip(cs, ps)),
        tail=lambda t, z: sum(c * cmath.exp(p * t) / (z - p) for c, p in zip(cs, ps)),
    )


def transform_pair_from_family(fam: AtomFamily) -> TransformPair:
    """Pair for an atom family: f = L, fhat = G(0, .), remainder -N.

    fhat and tail evaluate a node batch in one green_G call.  A tail at one
    t > 0 still sums each z's tail on its own inside green_G: numpy sums a
    lone column pairwise but a batch of columns in row order.
    """
    return TransformPair(
        f=lambda t: laplace_L(fam, t),
        fhat=lambda z: green_G(fam, 0.0, z),
        fhat0=0j,  # cancels exactly within each atom pair
        tail=lambda t, z: green_G(fam, t, z),
    )


def laplace_quadrature(f, z: complex, T: float, tol: float = 1e-10) -> complex:
    """Test support: int_0^T e^{-zs} f(s) ds by oscillation-matched
    adaptive panels."""
    z = complex(z)
    T = float(T)
    if T <= 0:
        return 0j
    panels = max(4, min(20_000, int(abs(z.imag) * T / 4.0) + 1, ), )
    val, _, _ = adaptive_quad(
        lambda s: np.exp(-z * s) * np.asarray(f(s)),
        0.0, T, tol, initial_panels=panels, piece="transform quadrature",
    )
    return val


# ----------------------------------------------------------------------
# contour pieces
# ----------------------------------------------------------------------

@dataclass
class ContourSpec:
    """Fixed two-radius contour: radius R and regularization power n."""

    R: float
    n: int = 2

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError(f"radius must be positive, got {self.R}")
        if self.n < 1:
            raise ValueError(f"regularization power must be >= 1, got {self.n}")


def _time_nodes(f, t: float, max_im: float):
    """Composite GL nodes on [0, t] resolving e^{-iys} up to |y| = max_im.

    Returns (nodes, f(nodes) * weights) so truncated transforms become a
    single matrix product per batch of z.
    """
    panels = max(4, int(math.ceil(max_im * t / 4.0)), int(math.ceil(t / 0.75)))
    if panels > 40_000:
        raise QuadratureError(f"truncated transform needs {panels} panels; t too large")
    xs, ws = _gl(16)
    edges = np.linspace(0.0, t, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * xs[None, :]).ravel()
    weights = (halves[:, None] * ws[None, :]).ravel()
    return nodes, np.asarray(f(nodes)) * weights


def _etz_fhat_t_factory(tp: TransformPair, t: float, max_im: float):
    """Returns z_array -> e^{zt} fhat_t(z), stable for Re z <= 0.

    The combination int_0^t e^{z(t-s)} f(s) ds has nonpositive exponents
    throughout when Re z <= 0, so it is evaluated directly (never as the
    product of two exponentially large factors).
    """
    if t == 0.0:
        return lambda z_arr: np.zeros(np.shape(z_arr), dtype=complex)
    nodes, wf = _time_nodes(tp.f, t, max_im)

    def etz_fhat_t(z_arr):
        z_arr = np.asarray(z_arr)
        return np.exp(np.multiply.outer(z_arr, t - nodes)) @ wf

    return etz_fhat_t


def _phi(z: complex) -> complex:
    """(1 - e^{-z})/z, the transform of the unit step on [0, 1]; entire."""
    if abs(z) < 1e-8:
        return 1.0 - z / 2.0 + z * z / 6.0
    return (1.0 - cmath.exp(-z)) / z


def _arc_pair(tp: TransformPair, t: float, R: float, n: int, osc: int,
              etz_fhat_t, c0: complex | None = None):
    """The two circular arcs |z| = R against (1 + z^2/R^2)^n e^{zt}/z.

    The right arc integrates the tail e^{zt}(fhat - fhat_t) in the pair's
    closed form; the left arc integrates e^{zt} fhat_t.  With c0, both
    integrands are those of the pair minus c0 times the unit-step pair
    (reconstruct_g_fixed's reduction).  Returns (right integral, right
    norm, left integral, left norm).  osc is the initial panel count on
    each arc.
    """

    def right(z):
        vals = tp.tail(t, np.atleast_1d(z))
        if c0 is None or t >= 1.0:
            return vals  # the step pair's tail vanishes once t covers [0, 1]
        corr = np.array([_phi(zz * (1.0 - t)) for zz in np.atleast_1d(z)])
        return vals - c0 * (1.0 - t) * corr

    def left(z):
        if c0 is None:
            return etz_fhat_t(z)
        # e^{zt} * (1 - e^{-zu})/z = (e^{zt} - e^{z(t-u)})/z, exponents <= 0 here
        u = min(t, 1.0)
        return etz_fhat_t(z) - c0 * ((np.exp(z * t) - np.exp(z * (t - u))) / z)

    def on_arc(fn):
        def integrand(theta):
            return fn(R * np.exp(1j * theta)) * (1.0 + np.exp(2j * theta)) ** n * 1j
        return integrand

    i1, j1, _ = adaptive_quad(on_arc(right), -math.pi / 2, math.pi / 2, ARC_TOL,
                              initial_panels=osc, piece="right arc")
    i2, j2, _ = adaptive_quad(on_arc(left), math.pi / 2, 3 * math.pi / 2, ARC_TOL,
                              initial_panels=osc, piece="left arc")
    return i1, j1, i2, j2


def reconstruct_g_fixed(tp: TransformPair, spec: ContourSpec, t: float):
    """Remainder g(t) from the fixed two-radius contour.

    Internally reduces to a transform vanishing at 0 (subtracting fhat0
    times the unit-step pair) so the vertical segment through the origin
    has a removable singularity; the step's remainder fhat0*(1 - min(t,1))
    is restored at the end.  Returns (g, (J1, J2, J3)): right arc, left
    arc, vertical segment.
    """
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    R, n = float(spec.R), int(spec.n)
    c0 = complex(tp.fhat0)
    etz_fhat_t = _etz_fhat_t_factory(tp, t, R)
    u = min(t, 1.0)

    osc = max(1, int(math.ceil(R * t / 3.0)) + 4)
    i1, j1, i2, j2 = _arc_pair(tp, t, R, n, osc, etz_fhat_t, c0)

    def segment(y):
        z = np.atleast_1d(1j * np.asarray(y))
        # the transform minus c0 times the unit-step pair's
        fh = np.array([f - c0 * _phi(zz) for f, zz in zip(tp.fhat(z), z)])
        return fh * np.exp(z * t) * (1.0 - np.asarray(y) ** 2 / R ** 2) ** n / np.asarray(y)

    i_seg, j3, _ = adaptive_quad(segment, R, -R, ARC_TOL,
                                 initial_panels=max(osc, 4), piece="vertical segment")

    g = (i1 + i_seg - i2) / (2j * math.pi) + c0 * (1.0 - u)
    return g, (j1, j2, j3)


def default_k_scale(alpha: float, beta: float) -> float:
    """Half the admissible radius-schedule slope min(1/(alpha+2), 1/(beta+1))."""
    return 0.5 * min(1.0 / (alpha + 2.0), 1.0 / (beta + 1.0))


def reconstruct_g_adaptive(tp: TransformPair, M: RateFunction, k_scale: float,
                           n: int, t: float):
    """Remainder g(t) from the adaptive four-piece contour.

    Radius R(t) = log-corrected inverse weight of M at k_scale * t; left
    side follows Re z = -(1 - offset)/M(|Im z|).  The closed fhat circuit
    picks up the full residue at 0, so no vanishing-at-zero reduction is
    needed.  Returns (g, (J1, J2, I3, I4)): right arc, left arc (truncated
    transform), horizontal stubs, boundary curve.
    """
    t = float(t)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if k_scale <= 0:
        raise ValueError(f"k_scale must be positive, got {k_scale}")
    n = int(n)
    R = w_m_log(M, k_scale * t)
    shift = 1.0 - BOUNDARY_OFFSET
    etz_fhat_t = _etz_fhat_t_factory(tp, t, R)
    osc = max(1, int(math.ceil(R * t / 3.0)) + 4)

    i1, j1, i2, j2 = _arc_pair(tp, t, R, n, osc, etz_fhat_t)

    def kernel_times_fhat(z_arr):
        z_arr = np.atleast_1d(z_arr)
        return tp.fhat(z_arr) * np.exp(z_arr * t) * (1.0 + z_arr ** 2 / R ** 2) ** n / z_arr

    depth_b = shift / float(M(R))

    def top_stub(x):
        return kernel_times_fhat(np.asarray(x) + 1j * R)

    def bottom_stub(x):
        return kernel_times_fhat(np.asarray(x) - 1j * R)

    i3a, n3a, _ = adaptive_quad(top_stub, 0.0, -depth_b, ARC_TOL,
                                initial_panels=4, piece="top stub")
    i3b, n3b, _ = adaptive_quad(bottom_stub, -depth_b, 0.0, ARC_TOL,
                                initial_panels=4, piece="bottom stub")

    def boundary(s):
        s = np.asarray(s)
        m_abs = np.asarray(M(np.abs(s)), dtype=float)
        z = -shift / m_abs + 1j * s
        dz = shift * np.asarray(M.deriv(np.abs(s)), dtype=float) * np.sign(s) / m_abs ** 2 + 1j
        return kernel_times_fhat(z) * dz / 1.0

    # panel breaks at the clamp kink of M and at s = 0
    cp = M.clamp_point()
    breaks = sorted({-R, R, 0.0} | ({-cp, cp} if 0.0 < cp < R else set()), reverse=True)
    i4 = 0j
    n4 = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        part, nn, _ = adaptive_quad(boundary, lo, hi, BOUNDARY_TOL / (len(breaks) - 1),
                                    initial_panels=max(4, osc // 2), piece="boundary curve")
        i4 += part
        n4 += nn

    g = (i1 + (i3a + i3b) + i4 - i2) / (2j * math.pi)
    return g, (j1, j2, n3a + n3b, n4)


def check_piece_schedule(k_scale: float, n: int, alpha: float, beta: float,
                         p: float) -> None:
    """Raise ValueError unless the schedule admits fit_adaptive_piece_bounds."""
    if not (n > alpha and n > beta - 1.0 + 1.0 / p):
        raise ValueError(
            f"need n > alpha and n > beta - 1 + 1/p; got n={n}, alpha={alpha}, "
            f"beta={beta}, p={p}"
        )
    if not k_scale < min(1.0 / (alpha + 2.0), 1.0 / (beta + 1.0)):
        raise ValueError(
            f"radius-schedule slope too large: k_scale={k_scale} must be below "
            f"{min(1.0 / (alpha + 2.0), 1.0 / (beta + 1.0)):g}"
        )


def fit_adaptive_piece_bounds(M: RateFunction, k_scale: float, n: int, t_grid,
                              norms, alpha: float, beta: float,
                              p: float = 2.0) -> tuple[FitReport, FitReport]:
    """Fit the stub and boundary piece norms against their predicted shapes.

        stubs:    I3(t) <= C / (R^{n+1-alpha} M(R)^{n+1-beta})
        boundary: I4(t) <= C R^{alpha+1} M(R)^beta e^{-t/M(R)}

    norms[i] is the (J1, J2, I3, I4) tuple reconstruct_g_adaptive returned
    at t_grid[i] with the same M, k_scale and n; no contour runs here.
    alpha, beta declare the growth class K (1+|Im z|)^alpha M(|Im z|)^beta
    of fhat on the spectral region.  The regularization power must satisfy
    n > alpha and n > beta - 1 + 1/p, and the radius-schedule slope must
    satisfy k_scale < min(1/(alpha+2), 1/(beta+1)).
    """
    check_piece_schedule(k_scale, n, alpha, beta, p)
    t_grid = np.asarray(t_grid, dtype=float)
    radii = w_m_log(M, k_scale * t_grid)
    i3s, i4s, shape3, shape4 = [], [], [], []
    # the shapes in Python floats: numpy's power differs from ** in the last bit
    for t, r, m_r, (_, _, i3, i4) in zip(t_grid.tolist(), radii.tolist(),
                                         np.asarray(M(radii), dtype=float).tolist(),
                                         norms, strict=True):
        i3s.append(i3)
        i4s.append(i4)
        shape3.append(r ** -(n + 1.0 - alpha) * m_r ** -(n + 1.0 - beta))
        shape4.append(r ** (alpha + 1.0) * m_r ** beta * math.exp(-t / m_r))
    i3s, i4s = np.array(i3s), np.array(i4s)
    shape3, shape4 = np.array(shape3), np.array(shape4)
    c3 = FIT_PAD * float(np.max(i3s / shape3))
    c4 = FIT_PAD * float(np.max(i4s / shape4))
    return (upper_report("i3est", {"C": c3, "n": float(n)}, c3 * shape3, i3s),
            upper_report("i4est1", {"C": c4, "n": float(n)}, c4 * shape4, i4s))
