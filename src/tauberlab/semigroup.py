"""Finite-dimensional semigroup laboratory: damped waves on an interval.

The second-order damped wave u_tt = u_xx - a(x) u_t discretizes to the
first-order block system

    x' = G x,   G = [[0, I], [-K, -diag(a)]],   K = -Delta_h,

with energy (1/2) h (u^T K u + v^T v).  All operator norms here are energy
norms, realized by the Cholesky congruence of the energy Gram matrix so
they become ordinary spectral norms; all propagation is scaling-and-
squaring matrix exponentials.  On top of the basic evolve/scan/energy
plumbing the module carries the decay-rate sandwich between the inverse
weight functions of the resolvent-growth scan, the weighted L^2 ladders
for the damping operator B, the cutoff-transform identity and its
Minkowski bound, and the diagonal sup-norm example with its exact 1/(et)
envelope.

The sandwich reads M(s) = sup_{|r|<=s} ||(ir - G)^{-1}||, the running sup
of resolvent_norm_scan's one-SVD-a-point scan.  resolvent_sup_scan returns
that running sup bit for bit, but runs the SVD only where a floor under
sigma_min(is - G) leaves room to raise the sup so far.  The floor comes
from one eig of the generator and weights each nearby eigenvalue by its
own condition number; resolvent_norm_scan stays as the second route.

numpy and scipy each load their own OpenBLAS, with separate thread pools,
and a pool spins for about 0.1 s after each call, taking a core from the
other's products (see _CHUNK).  So each routine here builds its scipy
products, the matrix exponentials above all, before the numpy loop that
reads them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .reports import FIT_PAD, FitReport, ladder_report
from .weights import RateFunction, w_m_log

__all__ = [
    "DampedWaveSystem",
    "DecaySeries",
    "Trajectory",
    "assemble_damped_wave",
    "dirichlet_mode_frequencies",
    "resolvent_norm_scan",
    "resolvent_sup_scan",
    "running_sup",
    "per_mode_resolvent_oracle",
    "per_mode_propagator_oracle",
    "evolve",
    "evolve_chunks",
    "energy_derivative_check",
    "weighted_decay_suite",
    "rate_sandwich_check",
    "cutoff_transform_check",
    "localized_bump_damping",
]


# ----------------------------------------------------------------------
# types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecaySeries:
    """A nonnegative scalar time (or frequency) series on an _increasing_grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = _increasing_grid(self.grid, "grid")
        v = np.asarray(self.values, dtype=float)
        if v.shape != g.shape:
            raise ValueError("grid and values must be matched 1-D arrays")
        if np.any(v < 0):
            raise ValueError("values must be nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


def running_sup(series: DecaySeries) -> DecaySeries:
    return DecaySeries(series.grid, np.maximum.accumulate(series.values))


@dataclass(frozen=True)
class Trajectory:
    """Energies and dissipations (-dE/dt, DampedWaveSystem.dissipation)
    along a time grid.  evolve reads them off each chunk of states before
    the chunk's buffer is reused, so the states are not kept; evolve_chunks
    yields them to a caller that needs them."""

    t: np.ndarray
    energies: np.ndarray
    dissipations: np.ndarray


@dataclass
class DampedWaveSystem:
    """The finite-difference damped wave and its energy frame: the Cholesky
    congruence of the energy Gram matrix, for periodic ends on a basis of
    range(I - P0).  The verdicts read the frame only through the methods."""

    n: int
    L: float
    a: np.ndarray
    bc: str                      # "dirichlet" or "periodic"
    h: float
    G: np.ndarray                # 2n x 2n block generator
    chol: np.ndarray             # lower Cholesky factor of the energy Gram (working space)
    basis: np.ndarray | None = None   # periodic: orthonormal basis of range(I-P0)
    P0: np.ndarray | None = None      # periodic: spectral projection onto constants
    _hat: np.ndarray | None = field(default=None, repr=False)

    # -- energy geometry -------------------------------------------------
    def to_hat(self, x: np.ndarray) -> np.ndarray:
        """Energy-frame coordinates of x - P0 x (P0 is oblique); of x for Dirichlet."""
        x = np.asarray(x)
        return self.chol.T @ (x if self.basis is None else self.basis.T @ (x - self.P0 @ x))

    def from_hat(self, xh: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """Physical states of the energy-frame columns xh, solved in place if
        xh is column-major; with x0, the part of x0 that the flow freezes (the
        periodic constant mode: G kills it) is added back verbatim.  The basis
        maps one column at a time: in one product, one BLAS thread rounds the
        last columns through another kernel than two threads do."""
        inv_lt = sla.solve_triangular(self.chol.T, xh, lower=False, overwrite_b=True)
        if self.basis is None:
            return inv_lt
        states = np.empty((self.basis.shape[0], inv_lt.shape[1]), order="F")
        for i in range(inv_lt.shape[1]):
            np.matmul(self.basis, inv_lt[:, i], out=states[:, i])
        if x0 is not None:
            states += (self.P0 @ x0)[:, None]
        return states

    def conjugate_to_hat(self, m: np.ndarray) -> np.ndarray:
        """The physical-frame operator m in the energy-orthonormal frame."""
        m_work = m if self.basis is None else self.basis.T @ m @ self.basis
        return sla.solve_triangular(self.chol, (self.chol.T @ m_work).T, lower=True).T

    def energy(self, x: np.ndarray) -> float:
        xh = self.to_hat(x)
        return float(np.real(np.vdot(xh, xh)))

    def hat_generator(self) -> np.ndarray:
        """Generator conjugated to the energy-orthonormal frame."""
        if self._hat is None:
            self._hat = self.conjugate_to_hat(self.G)
        return self._hat

    def spectral_abscissa(self) -> float:
        return float(np.max(np.linalg.eigvals(self.hat_generator()).real))

    def dissipation(self, x: np.ndarray):
        """-dE/dt = h sum_j a_j v_j^2 at the state x, or at each column of a
        (2n, m) block of states."""
        v = np.asarray(x)[self.n:]
        a = self.a if v.ndim == 1 else self.a[:, None]
        return self.h * np.sum(a * np.abs(v) ** 2, axis=0)


def localized_bump_damping(n: int, height: float = 1.0) -> np.ndarray:
    """Smooth raised-cosine damping on the n interior grid points, supported
    on (0.35, 0.65) as fractions of the string length."""
    lo, hi = 0.35, 0.65
    x = np.arange(1, n + 1) / (n + 1)
    a = np.zeros(n)
    inside = (x > lo) & (x < hi)
    a[inside] = height * 0.5 * (1.0 - np.cos(2.0 * math.pi * (x[inside] - lo) / (hi - lo)))
    return a


def assemble_damped_wave(n: int, L: float, a, bc: str = "dirichlet") -> DampedWaveSystem:
    """Standard 3-point discretization with the energy Gram matrix attached."""
    n = int(n)
    if n < 3:
        raise ValueError(f"need n >= 3 grid points, got {n}")
    a = np.asarray(a, dtype=float) * np.ones(n)
    if np.any(a < 0):
        raise ValueError("damping must be nonnegative")
    bc = bc.lower()
    if bc not in ("dirichlet", "periodic"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    h = L / (n + 1) if bc == "dirichlet" else L / n
    stiff = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
             - np.diag(np.ones(n - 1), -1)) / h ** 2
    if bc == "periodic":
        stiff[0, -1] -= 1.0 / h ** 2
        stiff[-1, 0] -= 1.0 / h ** 2
    big_g = np.zeros((2 * n, 2 * n))
    big_g[:n, n:] = np.eye(n)
    big_g[n:, :n] = -stiff
    big_g[n:, n:] = -np.diag(a)
    gram = 0.5 * h * np.block(
        [[stiff, np.zeros((n, n))], [np.zeros((n, n)), np.eye(n)]]
    )
    if bc == "dirichlet":
        return DampedWaveSystem(n, L, a, bc, h, big_g, np.linalg.cholesky(gram))

    # periodic: energy is only a seminorm (constants are flat); work on the
    # complement of the constant mode via its spectral projection
    if not np.any(a > 0):
        raise ValueError("periodic assembly needs some damping to split the constant mode")
    phi = np.concatenate([np.ones(n), np.zeros(n)])          # right kernel of G
    psi = np.concatenate([a, np.ones(n)])                    # left kernel of G
    P0 = np.outer(phi, psi) / float(psi @ phi)
    # orthonormal basis of range(I - P0)
    u, s, _ = np.linalg.svd(np.eye(2 * n) - P0)
    basis = u[:, s > 1e-10]
    gram_r = basis.T @ gram @ basis
    chol = np.linalg.cholesky(0.5 * (gram_r + gram_r.T))
    return DampedWaveSystem(n, L, a, bc, h, big_g, chol, basis=basis, P0=P0)


def dirichlet_mode_frequencies(n: int, L: float) -> np.ndarray:
    """Exact frequencies: omega_j^2 are the eigenvalues of K (3-point, Dirichlet)."""
    h = L / (n + 1)
    j = np.arange(1, n + 1)
    return (2.0 / h) * np.sin(j * math.pi / (2.0 * (n + 1)))


# ----------------------------------------------------------------------
# resolvent scan and the per-mode oracle
# ----------------------------------------------------------------------

def _increasing_grid(grid, name: str) -> np.ndarray:
    """grid as a float array when it is 1-D, nonempty, finite and strictly
    increasing; any other grid is a ValueError naming it, raised before
    anything is computed on it.  Every grid of this module passes here."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {g.shape}")
    if g.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"{name} must be finite")
    if np.any(np.diff(g) <= 0):
        raise ValueError(f"{name} must increase strictly")
    return g


def _clears_spectrum(sigma_min: float, sigma_max: float) -> bool:
    """The spectrum check: sigma_min >= 1e-13 max(1, sigma_max)."""
    return sigma_min >= 1e-13 * max(1.0, sigma_max)


def _resolvent_norm_at(ghat: np.ndarray, s) -> float:
    """||(is - ghat)^{-1}|| = 1/sigma_min(is - ghat), by one dense SVD; a
    sigma_min that fails _clears_spectrum is an ArithmeticError."""
    shift = 1j * s * np.eye(ghat.shape[0]) - ghat
    sigma = np.linalg.svd(shift, compute_uv=False)
    small = sigma[-1]
    if not _clears_spectrum(small, sigma[0]):
        raise ArithmeticError(f"grid point s={s:g} hits the spectrum")
    return 1.0 / small


def resolvent_norm_scan(sys: DampedWaveSystem, s_grid) -> DecaySeries:
    """Pointwise energy norms of (is - G)^{-1} along the imaginary axis, one
    SVD a point.  The grid must be 1-D, nonempty, finite and strictly
    increasing (a ValueError before any SVD)."""
    s_grid = _increasing_grid(s_grid, "s_grid")
    ghat = sys.hat_generator()
    return DecaySeries(s_grid, np.array([_resolvent_norm_at(ghat, s) for s in s_grid]))


def _svd_floor(ghat: np.ndarray):
    """The function s -> f(s), a certified floor under the smallest singular
    value that np.linalg.svd returns for is - ghat.  f(s) is 0.0 where no
    floor clears _resolvent_norm_at's spectrum check, and everywhere when
    the eigenvector matrix is numerically singular or np.linalg.inv
    refuses it.

    With ghat V = V diag(w) + R for the computed eigenpairs (any V and w
    will do), Y = V^-1 and A = is - ghat, A = V D Y - R Y with
    D = diag(is - w).  Weyl's inequality gives

        sigma_min(A) >= 1/||V D^-1 Y|| - ||R||_F/sigma_min(V),

    and V D^-1 Y = sum_j v_j y_j^* / (is - w_j), v_j the columns of V and
    y_j^* the rows of Y.  Sort d_j = |is - w_j| ascending, weight each of
    the K nearest terms by its own condition number kappa_j =
    ||v_j|| ||y_j|| and the rest together by kappa(V) = ||V|| ||Y||
    (Trefethen and Embree 2005, sec. 52):

        ||V D^-1 Y|| <= U(s) = min over K = 0..dim of
                        sum_{j<=K} kappa_j/d_j + kappa(V)/d_{K+1},

    the last term 0 at K = dim.  Any K eigenvalues would do; the nearest
    give the least.  K = 0 is Bauer-Fike's dist(is, w) sigma_min(V)/
    sigma_max(V), computed as it always was, and the max below is exact,
    so the floor is never below Bauer-Fike's.

    The allowances count in eps = 2u, u the unit roundoff.  Each first-order
    term in u, doubled, covers its own second-order terms and the few
    roundings that evaluate it, while dim^2 eps < 1/2.
    - The SVD.  LAPACK's singular values are exact for A + E with
      ||E||_2 <= p(dim) u ||A||_2.  The a priori bound for its Householder
      bidiagonalization, dim reflections with inner products of length dim,
      gives p(dim) = dim^2 (Higham 2002, sec. 19.3; the LAPACK Users' Guide,
      sec. 4.9, calls p "modestly growing").  So each computed singular value
      of V lies within e_V = dim^2 eps ||V||_F of the exact one.
    - R.  The computed ghat @ V errs entrywise by at most dim eps |ghat||V|,
      and V * w by sqrt(2) gamma_2 |V||w| <= 2 eps |V||w|.  Their difference
      adds u |R|, and the norm's dot product of length dim^2 adds
      dim^2 u ||R||_F.  With |||ghat||V|||_F <= ||ghat||_F ||V||_F and
      g = max(||ghat||_F, max|w|), this gives
      ||R||_F <= (1 + (dim^2 + 1) eps) ||R_hat||_F + (dim + 2) eps g ||V||_F.
    - Y.  Yhat = np.linalg.inv(V) errs by V^-1 - Yhat = V^-1 (I - V Yhat),
      so ||V^-1 - Yhat||_2 <= ||I - V Yhat||_F/sigma_min(V).  The computed
      V @ Yhat, complex dot products of length dim, errs entrywise by at
      most (dim + 2) eps |V||Yhat|, and as for R
      eta = ((1 + (dim^2 + 1) eps) ||E_hat||_F + (dim + 2) eps ||V||_F
      ||Yhat||_F)/v_lo bounds it, E_hat the computed I - V @ Yhat and v_lo
      the lower bound on sigma_min(V).  So ||y_j|| <= ||yhat_j|| + eta.
    - The K >= 1 terms round outward.  kappa_j's two norms of dim terms,
      its sum with eta and its product err by at most (dim + 2) u,
      relative: times 1 + (dim + 4) eps.  kappa(V) <= v_hi/v_lo, whose
      bounds and quotient err by 3 u: times 1 + 2 eps.  Each computed d_j
      (a difference and a hypot) lies within 2 u of the exact one: times
      1 - 2 eps.  The quotients, the running sums of at most dim positive
      terms and the tail's addition err by at most (dim + 2) u: U times
      1 + (dim + 2) eps.  The reciprocal is (1 - eps)/U.  Since each
      kappa_j >= |y_j^* v_j| = 1, 1/U <= d_1 = dist(is, w).
    - delta = (dim^2 + 5) eps (|s| + g).  The SVD the raw scan would run
      errs by at most dim^2 eps ||A||_2, and ||A||_2 <= |s| + g.  The floor's
      own nine roundings (the distance 2, the bounds on sigma(V) 2, the
      product and quotients 3, the two differences 2) each err by at most u (|s| + g),
      since the bound is at most dist(is, w) <= |s| + g where it is positive.
    The returned sigma_max stays below |s| + g + delta, and the spectrum
    check reads it there.
    """
    dim = ghat.shape[0]
    eps = np.finfo(float).eps
    w, v = np.linalg.eig(ghat)
    sv = np.linalg.svd(v, compute_uv=False)
    v_fro = float(np.linalg.norm(v))
    e_v = dim * dim * eps * v_fro
    v_lo, v_hi = sv[-1] - e_v, sv[0] + e_v
    if not v_lo > 0.0:
        return lambda s: 0.0
    try:
        y = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return lambda s: 0.0
    eta = ((1.0 + (dim * dim + 1) * eps) * float(np.linalg.norm(np.eye(dim) - v @ y))
           + (dim + 2) * eps * v_fro * float(np.linalg.norm(y))) / v_lo
    kappa_j = (np.linalg.norm(v, axis=0) * (np.linalg.norm(y, axis=1) + eta)
               * (1.0 + (dim + 4) * eps))
    kappa = v_hi / v_lo * (1.0 + 2 * eps)
    g = max(float(np.linalg.norm(ghat)), float(np.max(np.abs(w))))
    r = ((1.0 + (dim * dim + 1) * eps) * float(np.linalg.norm(ghat @ v - v * w))
         + (dim + 2) * eps * g * v_fro)

    def floor(s) -> float:
        d = np.abs(1j * s - w)
        order = np.argsort(d)
        d_lo = d[order] * (1.0 - 2 * eps)
        if not d_lo[0] > 0.0:
            return 0.0
        # U over K = 1..dim: the K nearest one by one, the rest by kappa(V)
        u = float(np.min(np.cumsum(kappa_j[order] / d_lo)
                         + np.append(kappa / d_lo[1:], 0.0))) * (1.0 + (dim + 2) * eps)
        delta = (dim * dim + 5) * eps * (abs(s) + g)
        bound = max(float(d[order[0]]) * v_lo / v_hi, (1.0 - eps) / u) - r / v_lo - delta
        return bound if _clears_spectrum(bound, abs(s) + g + delta) else 0.0
    return floor


def resolvent_sup_scan(sys: DampedWaveSystem, s_grid) -> DecaySeries:
    """running_sup(resolvent_norm_scan(sys, s_grid)) bit for bit, with an
    SVD only where a certified floor under its smallest singular value
    (_svd_floor) leaves room to raise the sup so far or to hit the
    spectrum.  A skipped point's value would be at most the sup before it,
    so it enters the running sup as 0.0; the first point always runs.
    The setup is one eig of the generator, one SVD and one inverse of its
    eigenvectors, numpy calls on the scan's BLAS pool.  The default
    `wave sandwich` scan (n = 400, 161 points) runs 10 SVDs, and n = 120
    runs 12.  Same grid rule as resolvent_norm_scan."""
    s_grid = _increasing_grid(s_grid, "s_grid")
    ghat = sys.hat_generator()
    floor = _svd_floor(ghat)
    vals = np.zeros(s_grid.size)
    sup = 0.0
    for i, s in enumerate(s_grid):
        # the SVD would return sigma_min >= f, and division rounds
        # monotonically, so its 1/sigma_min would be at most 1/f; at the
        # first point sup is 0.0
        f = floor(s)
        if f > 0.0 and 1.0 / f <= sup:
            continue
        vals[i] = _resolvent_norm_at(ghat, s)
        sup = max(sup, vals[i])
    return running_sup(DecaySeries(s_grid, vals))


def _mode_blocks(sys: DampedWaveSystem) -> np.ndarray:
    """2x2 blocks [[0, w], [-w, -c]] for constant damping c (energy frame)."""
    if sys.bc != "dirichlet" or np.ptp(sys.a) > 0:
        raise ValueError("per-mode oracle requires Dirichlet constant damping")
    c = float(sys.a[0])
    omegas = dirichlet_mode_frequencies(sys.n, sys.L)
    blocks = np.zeros((sys.n, 2, 2))
    blocks[:, 0, 1] = omegas
    blocks[:, 1, 0] = -omegas
    blocks[:, 1, 1] = -c
    return blocks


def per_mode_resolvent_oracle(sys: DampedWaveSystem, s_grid) -> np.ndarray:
    """Exact resolvent norms from the 2x2 mode decomposition (a constant):
    one stacked SVD a shift, the same LAPACK call on each block."""
    blocks = _mode_blocks(sys)
    s_grid = np.asarray(s_grid, dtype=float)
    out = np.empty(s_grid.size)
    eye2 = np.eye(2)
    for i, s in enumerate(s_grid):
        sig = np.linalg.svd(1j * s * eye2 - blocks, compute_uv=False)
        out[i] = 1.0 / np.min(sig[:, -1])
    return out


def per_mode_propagator_oracle(sys: DampedWaveSystem, t_grid) -> np.ndarray:
    """Exact ||T(t) G^{-1}||_E from the 2x2 mode decomposition (a constant)."""
    blocks = _mode_blocks(sys)
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        vals = [np.linalg.norm(sla.expm(b * t) @ np.linalg.inv(b), 2) for b in blocks]
        out[i] = max(vals)
    return out


# ----------------------------------------------------------------------
# evolution and the energy identity
# ----------------------------------------------------------------------

# columns of the energy-frame buffer that evolve_chunks propagates into.
# Each chunk's back-solve is a threaded LAPACK call, and its thread pool
# (scipy's OpenBLAS, apart from numpy's) spins for about 0.1 s after it,
# slowing the numpy products that follow: at n = 400 over 4,001 steps
# (2-core Xeon), chunks of 256 columns made evolve 47% slower than one
# whole solve, and 1024 11%.  The other wave routines build every scipy
# product before their numpy loops and switch pools only once; the
# back-solve cannot, as each chunk reads the steps before it.
_CHUNK = 1024

# the energy guard: energy may rise by at most this fraction of E(0) over
# one step, in evolve_chunks and in the CLI's nonincreasing verdict
ENERGY_TOL = 1e-10


def evolve_chunks(sys: DampedWaveSystem, x0, t_grid):
    """Propagate by one scaling-and-squaring matrix exponential of the
    step of a uniform grid (_uniform_grid), yielding (slice of t_grid,
    physical states at those times), chunk by chunk.  Any other grid is a
    ValueError, raised before the exponential is built.

    Exact for the discrete system up to expm roundoff; the per-step energy
    increase guard at ENERGY_TOL E(0) catches assembly errors rather than
    integrator drift.  The steps run in the energy frame into one
    column-major buffer of _CHUNK columns, solved back in place chunk by
    chunk, so memory does not grow with the grid; a yielded block may be
    that buffer, so copy what you keep before asking for the next chunk.
    A one-column tail joins the chunk before it: the triangular solve of a
    single column goes through another kernel than a block's and would
    move the last bits of that state.  Every block of two or more columns
    solves bit for bit as it would within the whole trajectory.
    """
    t_grid = _uniform_grid(t_grid, "the step propagator")
    # the step propagator comes first, so expm's work arrays are freed
    # before the buffer is allocated
    step = sla.expm(sys.hat_generator() * float(t_grid[1] - t_grid[0]))
    x0 = np.asarray(x0, dtype=float)
    xh = sys.to_hat(x0)
    bounds = list(range(0, t_grid.size, _CHUNK)) + [t_grid.size]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    # column-major, so each state is a contiguous column written in place
    # and the triangular solve works in this same buffer
    buf = np.empty((xh.size, max(np.diff(bounds))), order="F")
    cur = xh
    e_prev = float(cur @ cur)
    e0 = max(e_prev, 1e-300)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = buf[:, :hi - lo]
        if lo == 0:
            block[:, 0] = xh
        for i in range(max(lo, 1), hi):
            cur = np.matmul(step, cur, out=block[:, i - lo])
            e_now = float(cur @ cur)
            if e_now > e_prev + ENERGY_TOL * e0:
                raise ArithmeticError(f"energy increased by {e_now - e_prev:.3e} "
                                      f"over one step (tol {ENERGY_TOL:g})")
            e_prev = e_now
        cur = block[:, -1].copy()  # the solve below overwrites the block
        yield slice(lo, hi), sys.from_hat(block, x0)


def evolve(sys: DampedWaveSystem, x0, t_grid) -> Trajectory:
    """Energy and dissipation at every time of a uniform grid, from
    evolve_chunks (any other grid is a ValueError; an energy rise past
    ENERGY_TOL E(0) over one step is an ArithmeticError).

    Each chunk's states are read column by column before its buffer is
    reused, so memory does not grow with the grid.  The chunks change no
    bit of the result: a one-column tail, whose solve alone would take
    another kernel, joins the chunk before it (see evolve_chunks).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    energies = np.empty(t_grid.size)
    dissipations = np.empty(t_grid.size)
    for sl, states in evolve_chunks(sys, x0, t_grid):
        cols = range(states.shape[1])
        energies[sl] = [sys.energy(states[:, j]) for j in cols]
        dissipations[sl] = [sys.dissipation(states[:, j]) for j in cols]
    return Trajectory(t_grid, energies, dissipations)


# a grid is uniform when each point lies this many ulps of its largest
# |t| or fewer from its line; linspace and arange grids stay within 2
_UNIFORM_ULPS = 8


def _is_uniform(t: np.ndarray) -> bool:
    """Whether each t_i lies within _UNIFORM_ULPS ulps of max|t| of
    t_0 + i h, where h = (t_last - t_0)/(len(t) - 1).

    A float grid cannot be more uniform than the rounding of its points,
    about one ulp of max|t| each, so the spread of its steps grows with
    max|t|/dt and no bound relative to dt fits every horizon.  The step h
    spans the whole grid: the first step of a grid that does not start at
    0 carries half an ulp of t_1, which i would multiply.
    """
    h = (t[-1] - t[0]) / (t.size - 1)
    dev = np.max(np.abs(t - (t[0] + np.arange(t.size) * h)))
    return bool(dev <= _UNIFORM_ULPS * np.spacing(np.max(np.abs(t))))


def _uniform_grid(t_grid, use: str) -> np.ndarray:
    """t_grid as a float array when _increasing_grid accepts it and it has
    two or more points and is uniform (_is_uniform); any other grid is a
    ValueError, the last saying that use needs a uniform time grid."""
    t = _increasing_grid(t_grid, "t_grid")
    if t.size < 2:
        raise ValueError("t_grid must have at least two points")
    if not _is_uniform(t):
        raise ValueError(f"{use} needs a uniform time grid")
    return t


def energy_derivative_check(traj: Trajectory) -> float:
    """Max |dE/dt + h sum a_j v_j^2| over interior times (4th-order stencil)
    of a trajectory on a grid that _uniform_grid accepts."""
    e = traj.energies
    if e.size < 5:
        raise ValueError("need at least 5 samples")
    t = _uniform_grid(traj.t, "energy differentiation")
    dt = float(t[1] - t[0])
    de = (-e[4:] + 8.0 * e[3:-1] - 8.0 * e[1:-3] + e[:-4]) / (12.0 * dt)
    return float(np.max(np.abs(de + traj.dissipations[2:-2])))


# ----------------------------------------------------------------------
# weighted-decay ladders
# ----------------------------------------------------------------------

def _damping_sqrt_operator(sys: DampedWaveSystem) -> tuple[np.ndarray, float]:
    """Symmetric square root B of -(G + G*) in the energy frame.

    Returns (B_hat, residual) with residual = ||B_hat^2 + (Ghat + Ghat^T)||.
    For the damped wave this is the block diag(0, sqrt(2a)) operator.
    """
    ghat = sys.hat_generator()
    sym = -(ghat + ghat.T)
    evals, evecs = np.linalg.eigh(0.5 * (sym + sym.T))
    # the position block contributes exact zeros; O(eps) eigh noise there
    # would turn into O(sqrt(eps)) after the root, so clip it out
    evals[evals < 1e-11 * max(1.0, float(evals[-1]))] = 0.0
    b_hat = (evecs * np.sqrt(evals)) @ evecs.T
    residual = float(np.linalg.norm(b_hat @ b_hat - 0.5 * (sym + sym.T), 2))
    return b_hat, residual


# radians of the generator's fastest rotation, ||G||, per 8-node ladder
# panel: with localized damping at n = 10 to 60, the unit-weight energy
# ladder then matches the energy drop E(0) - E(256) to 1.1e-11 or better
LADDER_PANEL_PHASE = 8.0


def weighted_decay_suite(sys: DampedWaveSystem, x, M: RateFunction) -> list[FitReport]:
    """Doubling-ladder evidence that the two weighted integrals converge.

        int ||B T(t) G^{-1} x||_E^2 w(t)^2 dt   and   int |dE/dt| w(t)^2 dt

    with w(t) = w_m_log(M, t/4), the log-corrected inverse weight of M at
    slope 1/4.  The ladder integrates each of the 7 rungs [0, 4], [4, 8],
    ..., [128, 256] by one orbit sweep of Gauss-Legendre panels, as many as
    keep the generator's fastest rotation ||G|| within LADDER_PANEL_PHASE
    radians a panel, with the weight solved at all of a rung's nodes in one
    call, and reports.ladder_report judges the rung increments.
    """
    x = np.asarray(x, dtype=float)
    ghat = sys.hat_generator()
    b_hat, b_resid = _damping_sqrt_operator(sys)
    xh = sys.to_hat(x)
    ginv_x = np.linalg.solve(ghat, xh)

    reports = [FitReport(
        name="B-square-root",
        constants={"residual": b_resid},
        worst_residual=1e-10 - b_resid,
        passed=b_resid <= 1e-10,
    )]

    edges = np.concatenate([[0.0], 4.0 * 2.0 ** np.arange(7)])
    omega_max = max(float(np.linalg.norm(ghat, 2)), 1.0)
    block = np.column_stack([ginv_x, xh]).astype(float)
    inc_b, inc_e = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panels = int(math.ceil((hi - lo) * omega_max / LADDER_PANEL_PHASE))
        nodes, weights, states = [], [], []
        for t, wq, at_nodes, block in _orbit_sweep(ghat, block, (hi - lo) / panels,
                                                   panels, t0=lo):
            nodes.append(t.ravel())
            weights.append(np.tile(wq, len(t)))
            states.extend(at_nodes.reshape(-1, *block.shape))
        weights = np.concatenate(weights)
        states = np.stack(states, axis=-1)
        w2 = w_m_log(M, 0.25 * np.concatenate(nodes)) ** 2
        f_b = np.sum((b_hat @ states[:, 0, :]) ** 2, axis=0) * w2
        f_e = sys.dissipation(sys.from_hat(states[:, 1, :])) * w2
        inc_b.append(float(np.sum(weights * f_b)))
        inc_e.append(float(np.sum(weights * f_e)))

    reports += [ladder_report("B-decay-ladder", inc_b),
                ladder_report("energy-decay-ladder", inc_e)]
    return reports


# ----------------------------------------------------------------------
# rate sandwich
# ----------------------------------------------------------------------

def propagator_inverse_norms(sys: DampedWaveSystem, t_grid) -> DecaySeries:
    """Energy operator norm of T(t) G^{-1} along an increasing grid.

    Sequential propagation: one matrix exponential per distinct gap, then
    a matmul per grid point, with the norm taken in the hat frame.  Every
    exponential (scipy's BLAS) is built before the first product (numpy's),
    so the loop never waits on the other pool (see _CHUNK).  The grid must
    pass _increasing_grid, start at t >= 0 and, past two points, be uniform
    (_is_uniform), as evolve's, so that its gaps take few distinct values;
    any other grid is a ValueError before any expm.
    """
    t_grid = _increasing_grid(t_grid, "t_grid")
    if t_grid[0] < 0:
        raise ValueError("t_grid must be nonnegative")
    if t_grid.size > 2 and not _is_uniform(t_grid):
        raise ValueError("propagator norms need a uniform time grid")
    ghat = sys.hat_generator()
    first = sla.expm(ghat * t_grid[0]) if t_grid[0] > 0 else None
    gaps = np.diff(t_grid).tolist()
    steps = {dt: sla.expm(ghat * dt) for dt in dict.fromkeys(gaps)}
    cur = np.linalg.inv(ghat)
    if first is not None:
        cur = first @ cur
    norms = [float(np.linalg.norm(cur, 2))]
    for dt in gaps:
        cur = steps[dt] @ cur
        norms.append(float(np.linalg.norm(cur, 2)))
    return DecaySeries(t_grid, np.array(norms))


def rate_sandwich_check(norms: DecaySeries, m_scan: DecaySeries,
                        t0: float = 5.0) -> FitReport:
    """Sandwich the orbit norms ||T(t) G^{-1}||_E between the inverse weight
    functions of the resolvent bound M.

        c' / M^{-1}(C' t)  <=  ||T(t) G^{-1}||_E  <=  C / Mlog^{-1}(c t)

    A verdict on two series, and it reads no model: norms is the series
    propagator_inverse_norms returns, m_scan the running sup of the
    resolvent norms (resolvent_sup_scan), both computed once by the
    caller.  Only the norms at t >= t0 are judged.  M is extended constant
    beyond its grid (which makes the log-corrected inverse total while
    leaving the plain inverse infinite beyond the scan -- there the lower
    bound is vacuous).  Past the scan every judged t takes the
    log-corrected inverse in logs, log s = a + log1p(-e^(-a)) with
    a = t/M_max - log1p M_max, and the upper bound's products with it, so
    no horizon overflows.
    Conventions: c = 1, C' = max(1, M(0)/t0); C and c' are fitted extrema.
    """
    svals, mvals = m_scan.grid, m_scan.values
    if np.any(np.diff(mvals) < 0):
        raise ValueError("m_scan must be a running supremum")
    m0, m_max = float(mvals[0]), float(mvals[-1])
    mlog = mvals * (np.log1p(mvals) + np.log1p(svals))

    mask = norms.grid >= t0
    if not np.any(mask):
        raise ValueError(f"grid has no points at or beyond t0={t0}")
    tt, vv = norms.grid[mask], norms.values[mask]

    def step_inverse(values, y):
        # at each y: svals at the first values >= y, 0 below the samples,
        # inf past them
        out = svals[np.minimum(np.searchsorted(values, y, side="left"), svals.size - 1)]
        out[y < values[0]] = 0.0
        out[y > values[-1]] = math.inf
        return out

    # upper bound: c = 1, fit C.  Past the scan M_log inverts its constant-M
    # extension, m_max (log1p m_max + log1p s) = t, in logs:
    # log s = a + log1p(-e^(-a)) with a = t/m_max - log1p m_max (s > 0 only
    # where a > 0), and there norm * s and C / s are taken in logs too (a
    # norm of 0.0 contributes 0)
    denom_up = step_inverse(mlog, tt)
    usable_up = denom_up > 0
    over = np.isinf(denom_up)
    a = tt[over] / m_max - math.log1p(m_max)
    usable_up[over] = a > 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        log_s_over = a + np.log1p(-np.exp(-a))
        prod_up = vv * denom_up
        prod_up[over] = np.exp(np.log(vv[over]) + log_s_over)
        big_c = float(np.max(prod_up[usable_up])) * FIT_PAD
        bound_up = big_c / denom_up
        bound_up[over] = np.exp(np.log(big_c) - log_s_over)

    # lower bound: C' fixed by convention, fit c'
    c_prime_cap = max(1.0, m0 / t0)
    denom_lo = step_inverse(mvals, c_prime_cap * tt)
    usable_lo = np.isfinite(denom_lo) & (denom_lo > 0)
    if np.any(usable_lo):
        small_c = float(np.min(vv[usable_lo] * denom_lo[usable_lo])) * (1.0 - 1e-12)
    else:
        small_c = 0.0

    ok_up = bool(np.all(prod_up[usable_up] <= big_c))
    ok_lo = bool(np.all(vv[usable_lo] >= small_c / denom_lo[usable_lo])) if np.any(usable_lo) else True

    # empirical tail exponent: slope of -log norm vs t over the last half,
    # fitted on its normal norms (an underflowed 0.0 or subnormal has lost
    # its digits), if two or more remain
    fit = (tt >= 0.5 * (tt[0] + tt[-1])) & (vv >= np.finfo(float).tiny)
    slope = 0.0
    if np.sum(fit) >= 2:
        slope = float(np.polyfit(tt[fit], -np.log(vv[fit]), 1)[0])

    return FitReport(
        name="rate-sandwich",
        constants={"c": 1.0, "C": big_c, "c_prime": small_c, "C_prime": c_prime_cap,
                   "t0": t0, "tail_exponent": slope},
        worst_residual=float(np.min(bound_up[usable_up] - vv[usable_up])),
        passed=ok_up and ok_lo and math.isfinite(big_c) and small_c >= 0,
    )


# ----------------------------------------------------------------------
# cutoff-transform identity and Minkowski bound
# ----------------------------------------------------------------------

# panels per block of _orbit_sweep.  Its buffers grow with the block: on a
# 2-core Xeon host the wave-linalg workload's peak RSS stayed at 85 MB with
# blocks of 64, as with one panel at a time, and rose to 101.4 MB (+19%)
# with blocks of 512, which made `wave cutoff` no faster
_ORBIT_BLOCK = 64


def _orbit_sweep(ghat: np.ndarray, v0: np.ndarray, width: float, panels: int,
                 t0: float = 0.0):
    """Walk t -> e^{tG} v0 over uniform 8-point Gauss-Legendre panels from t0.

    Builds the node-offset steps and the panel step once, so the sweep
    costs 9 matrix exponentials however many panels it walks.  The offset
    steps are stacked into one (8 d, d) array and both are cast once to the
    orbit's dtype.  The panel step walks the panels' start states one by
    one into a buffer of _ORBIT_BLOCK panels, and one stacked product takes
    the node states of the whole block.  Each element of that stack is the
    product one panel alone would take, (8 d, d) by a (d, columns) start
    state (a gemv for a vector v0), with the same strides, so the blocks
    move no bit.  Yields, block by block of m panels, (nodes (m, 8),
    weights (8,), states at the nodes (m, 8, *v0.shape), state at the end
    of the block); memory is O(_ORBIT_BLOCK times the size of v0).
    """
    xs, ws = np.polynomial.legendre.leggauss(8)
    offs = 0.5 * width * (xs + 1.0)
    wq = 0.5 * width * ws
    dtype = np.result_type(ghat, v0)
    phi_off = np.concatenate([sla.expm(ghat * o) for o in offs]).astype(dtype)
    phi_panel = sla.expm(ghat * width).astype(dtype, copy=False)
    starts = np.empty((min(panels, _ORBIT_BLOCK), v0.shape[0], v0.size // v0.shape[0]),
                      dtype=dtype)
    cur = v0
    for lo in range(0, panels, _ORBIT_BLOCK):
        m = min(_ORBIT_BLOCK, panels - lo)
        nodes = np.empty((m, xs.size))
        for k in range(m):
            starts[k] = cur.reshape(starts.shape[1:])
            nodes[k] = t0 + offs
            cur = phi_panel @ cur
            t0 += width
        yield nodes, wq, np.matmul(phi_off, starts[:m]).reshape(m, xs.size, *v0.shape), cur


def _laplace_of_orbit(ghat: np.ndarray, obs: np.ndarray, v0: np.ndarray,
                      lams: np.ndarray, T: float) -> np.ndarray:
    """int_0^T e^{-lam t} obs e^{tG} v0 dt for each lam, by composite GL.

    Panels resolve the fastest oscillation of the generator itself (the
    orbit rings at the mode frequencies, not at lam).  Per block of
    _orbit_sweep, one stacked product takes obs times every node state, a
    gemv each, into (r, 8) column-major panel slices; one gemm over the
    nodes would round differently.  A second stacked product weights each
    slice by its panel's (8, L) exponentials, and the panel sums join acc
    in panel order, each the same gemm and the same addition as a panel
    taken alone.
    """
    omega_max = float(np.linalg.norm(ghat, 2))
    width = min(0.25, math.pi / (4.0 * max(omega_max, 1.0)))
    panels = max(1, int(math.ceil(T / width)))
    lams = np.asarray(lams, dtype=complex)
    obs = obs.astype(complex)
    acc = np.zeros((obs.shape[0], lams.size), dtype=complex)
    for t, wq, at_nodes, _ in _orbit_sweep(ghat, v0.astype(complex), T / panels, panels):
        f_panels = np.matmul(obs, at_nodes[..., None])[..., 0].transpose(0, 2, 1)
        for panel_sum in f_panels @ (np.exp(-(t[..., None] * lams)) * wq[:, None]):
            acc += panel_sum
    return acc


def cutoff_transform_check(sys: DampedWaveSystem, t1, t2, x, omega: float,
                           lambda_samples, t_grid, T: float) -> dict:
    """Cutoff family transform identity plus the Minkowski norm bound.

    With F(t) = T1 T(t) A R(omega, A) T2 x and G(lam) = T1 R(lam, A) T2 x:

        Fhat(lam) = lam/(omega-lam) G(lam) - omega/(omega-lam) T1 R(omega,A) T2 x

    is checked by quadrature at each sample; and on the discrete grid, for
    p = 1, 2 and inf,

        || T1 T(.) R(omega,A) T2 x ||_p <= omega^{-1} || T1 T(.) T2 x ||_p.

    t_grid is the uniform grid of the norm series and T the horizon of the
    identity quadrature; both come from the caller, which owns their
    defaults.  T <= 0, or a grid that _uniform_grid refuses, is a
    ValueError, raised before any solve or exponential.
    """
    if not T > 0:
        raise ValueError(f"the identity quadrature horizon T must be positive, got {T:g}")
    t_grid = _uniform_grid(t_grid, "the step propagator")
    ghat = sys.hat_generator()
    dim = ghat.shape[0]
    om0 = sys.spectral_abscissa()
    if not omega > max(om0, 0.0):
        raise ValueError(f"omega={omega:g} must exceed the spectral abscissa {om0:g}")
    t1_hat = sys.conjugate_to_hat(np.asarray(t1, dtype=float))
    t2_hat = sys.conjugate_to_hat(np.asarray(t2, dtype=float))
    xh = sys.to_hat(np.asarray(x, dtype=float))

    r_omega = np.linalg.solve(omega * np.eye(dim) - ghat, np.eye(dim))
    t2x = t2_hat @ xh
    base = r_omega @ t2x                     # R(omega) T2 x
    v0 = omega * base - t2x                  # A R(omega) T2 x (stable form)

    lams = np.array([complex(l) for l in np.atleast_1d(lambda_samples)])
    if np.any(lams.real <= max(om0, 0.0)):
        raise ValueError("every sample must lie strictly right of the spectrum")
    # the norm series' step, built beside the orbit's nine exponentials
    # before any numpy loop (see _CHUNK)
    phi = sla.expm(ghat * float(t_grid[1] - t_grid[0]))
    fhat_all = _laplace_of_orbit(ghat, t1_hat, v0, lams, T)

    resids = []
    for j, lam in enumerate(lams):
        g_lam = t1_hat @ np.linalg.solve(lam * np.eye(dim) - ghat, t2x)
        closed = lam / (omega - lam) * g_lam - omega / (omega - lam) * (t1_hat @ base)
        scale = max(np.linalg.norm(closed), 1e-30)
        resids.append(float(np.linalg.norm(fhat_all[:, j] - closed) / scale))

    phi = phi.astype(complex)
    t1_c = t1_hat.astype(complex)
    series_r = _norm_series(phi, t1_c, base, t_grid.size)
    series_d = _norm_series(phi, t1_c, t2x, t_grid.size)
    mink = {}
    for pp in (1.0, 2.0, math.inf):
        lhs = _grid_lp(t_grid, series_r, pp)
        rhs = _grid_lp(t_grid, series_d, pp) / omega
        mink[pp] = (lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-6)))

    return {
        "identity_residuals": np.array(resids),
        "identity_ok": bool(np.max(resids) <= 1e-6),
        "minkowski": mink,
        "minkowski_ok": all(v[2] for v in mink.values()),
        "decay_series": DecaySeries(t_grid[1:], series_r[1:]),
    }


def _norm_series(phi, t1, v0, size: int):
    """|T1 e^(i dt G) v0| for i = 0..size-1, given the step phi = e^(dt G)."""
    out = np.empty(size)
    cur = v0.astype(complex)
    for i in range(size):
        out[i] = float(np.linalg.norm(t1 @ cur))
        cur = phi @ cur
    return out


def _grid_lp(t_grid, vals, p) -> float:
    if p == math.inf:
        return float(np.max(vals))
    p = float(p)
    return float(np.trapezoid(vals ** p, t_grid) ** (1.0 / p))


# ----------------------------------------------------------------------
# diagonal sup-norm example
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalSemigroup:
    """Test support: the sup-norm diagonal semigroup with entries
    (beta/(beta-i)) e^{it-beta t}."""

    beta: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=complex)
        if np.any(b.real <= 0):
            raise ValueError("all beta must have positive real part")
        object.__setattr__(self, "beta", b)

    def norm_g(self, t):
        """||g(t)||_infty = max_n |beta/(beta - i)| e^{-Re beta t}."""
        t = np.asarray(t, dtype=float)
        amps = np.abs(self.beta / (self.beta - 1j))
        with np.errstate(under="ignore"):
            vals = amps[None, :] * np.exp(-np.outer(t, self.beta.real))
        out = np.max(vals, axis=1)
        return out if t.ndim else float(out[0])


def c0_example_suite(beta_list, t_grid=None) -> tuple[DecaySeries, FitReport]:
    """Test support: the two-sided envelope for the diagonal example with
    real rates.

    Upper: ||g(t)|| <= 1/(e t) for t >= 1 (each term maximizes at t=1/beta).
    Lower: at t = 1/beta_n the n-th term alone gives
    beta_n / (sqrt(1+beta_n^2) e).  Both are exact inequalities; the only
    slack granted is 1e-12 relative for float evaluation.
    """
    beta = np.asarray(beta_list, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("this suite takes real positive rates")
    sg = DiagonalSemigroup(beta)
    if t_grid is None:
        t_grid = np.geomspace(1.0, 1e4, 200)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 1.0):
        raise ValueError("the upper envelope is asserted for t >= 1")
    vals = sg.norm_g(t_grid)
    upper = 1.0 / (math.e * t_grid)
    up_ok = bool(np.all(vals <= upper * (1.0 + 1e-12)))

    lower_pts = 1.0 / beta
    at_peaks = sg.norm_g(lower_pts)
    floors = beta / (np.sqrt(1.0 + beta ** 2) * math.e)
    lo_ok = bool(np.all(at_peaks >= floors * (1.0 - 1e-12)))

    series = DecaySeries(t_grid, vals)
    report = FitReport(
        name="diagonal-two-sided",
        constants={"sup_et_norm": float(np.max(vals * math.e * t_grid)),
                   "n_rates": float(beta.size)},
        worst_residual=float(np.min(upper * (1.0 + 1e-12) - vals)),
        passed=up_ok and lo_ok,
    )
    return series, report
