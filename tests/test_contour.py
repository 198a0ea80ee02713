"""Contour reconstruction of the running primitive, kernel bounds, Poisson smoothing."""

import math

import mpmath
import numpy as np
import pytest

from tauberlab import weights
from tauberlab.atoms import build_family, primitive_N
from tauberlab.contour import (
    ContourSpec,
    StepFunction,
    _phi,
    adaptive_quad,
    default_k_scale,
    exp_decay_pair,
    fit_adaptive_piece_bounds,
    laplace_quadrature,
    lemma31_check,
    poisson_convolve,
    rational_pair,
    reconstruct_g_adaptive,
    reconstruct_g_fixed,
    step_lp_norm,
    transform_pair_from_family,
)

KERNEL_SLACK = 1e-9
RECON_TOL = 1e-8
ATOM_RECON_TOL = 1e-6
ADAPTIVE_TOL = 1e-5
CONTRACT_SLACK = 1.0 + 1e-6


# ----------------------------------------------------------------------
# lemma31_check
# ----------------------------------------------------------------------

@pytest.mark.parametrize("z", [0.0, 1e-12, 1e-12j, 6e-13 - 8e-13j])
def test_step_transform_near_zero_matches_mpmath(z):
    # |z| < 1e-8 takes the Taylor branch of (1 - e^{-z})/z
    with mpmath.workdps(50):
        zz = mpmath.mpc(z)
        exact = complex(1 if zz == 0 else -mpmath.expm1(-zz) / zz)
    assert abs(_phi(z) - exact) <= 1e-16


def test_kernel_value_at_origin_is_two():
    integral, bound = lemma31_check(0.0)
    assert abs(integral - 2.0) <= 1e-12
    assert bound == 2.0


def test_kernel_bound_at_ten():
    integral, bound = lemma31_check(10.0)
    assert bound == pytest.approx(math.pi ** 2 / 200.0, rel=1e-15)
    assert integral <= bound + KERNEL_SLACK


def test_kernel_bound_on_log_grid():
    for t in np.geomspace(0.1, 1e3, 40):
        integral, bound = lemma31_check(float(t))
        assert integral <= bound + KERNEL_SLACK


def test_kernel_monotone_decreasing():
    vals = [lemma31_check(float(t))[0] for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# poisson_convolve
# ----------------------------------------------------------------------

def test_unit_plateau_passes_through():
    h = StepFunction(np.array([-1e6, 1e6]), np.array([1.0]))
    assert poisson_convolve(h, 2.0, 0.0) == pytest.approx(1.0, abs=1e-5)


def test_small_bandwidth_approximate_identity():
    h = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    val = poisson_convolve(h, 1e-3, 0.5)
    # closed form: (2/pi) arctan(0.5/y); sits just below 0.999 at y = 1e-3
    assert val == pytest.approx(2.0 / math.pi * math.atan(500.0), abs=1e-12)
    assert 0.998 <= val <= 1.0


def test_smoothing_contracts_lp_norms():
    rng = np.random.default_rng(8)
    for _ in range(6):
        m = int(rng.integers(2, 9))
        edges = np.sort(rng.uniform(-5.0, 5.0, size=m + 1))
        vals = rng.uniform(-3.0, 3.0, size=m)
        y = float(rng.uniform(1e-3, 10.0))
        h = StepFunction(edges, vals)
        lo, hi = edges[0] - 1.0 - 5.0 * y, edges[-1] + 1.0 + 5.0 * y
        xs = np.linspace(lo, hi, 801)
        smooth = np.array([poisson_convolve(h, y, float(x)) for x in xs])
        assert float(np.max(np.abs(smooth))) <= step_lp_norm(h, math.inf) * CONTRACT_SLACK
        for p in (1.0, 2.0):
            # truncating the tail only undercounts, so accurate quadrature
            # over the window is a sound one-sided check
            lhs_p, _, _ = adaptive_quad(
                lambda x: np.abs([poisson_convolve(h, y, float(u)) for u in np.atleast_1d(x)]) ** p,
                lo, hi, 1e-10)
            assert float(abs(lhs_p)) ** (1.0 / p) <= step_lp_norm(h, p) * CONTRACT_SLACK


def test_laplace_quadrature_matches_closed_form():
    for z in (1.0 + 0.0j, 2.0 + 3.0j):
        val = laplace_quadrature(lambda t: np.exp(-t), z, T=60.0)
        assert val == pytest.approx(1.0 / (1.0 + z), abs=1e-9)


# ----------------------------------------------------------------------
# reconstruct_g_fixed
# ----------------------------------------------------------------------

def test_exponential_tail_reconstructed():
    tp = exp_decay_pair()
    spec = ContourSpec(R=0.5, n=2)
    for t in (0.5, 1.0, 5.0):
        g, _ = reconstruct_g_fixed(tp, spec, t)
        assert abs(g - math.exp(-t)) <= RECON_TOL


def test_reconstruction_independent_of_radius():
    tp = exp_decay_pair()
    for t in (0.5, 1.0, 5.0):
        g_small, _ = reconstruct_g_fixed(tp, ContourSpec(R=0.3, n=2), t)
        g_large, _ = reconstruct_g_fixed(tp, ContourSpec(R=0.6, n=2), t)
        assert abs(g_small - g_large) <= RECON_TOL


def test_piece_sum_dominates_reconstruction():
    tp = exp_decay_pair()
    spec = ContourSpec(R=0.5, n=2)
    g, (j1, j2, j3) = reconstruct_g_fixed(tp, spec, 1.0)
    assert 2.0 * math.pi * abs(g) <= j1 + j2 + j3 + 1e-12


def test_atom_family_reconstruction_matches_primitive():
    fam = build_family("power", 10, 2.0, 2.0)
    tp = transform_pair_from_family(fam)
    spec = ContourSpec(R=0.05, n=2)
    for t in (5.0, 10.0, 15.0):
        g, _ = reconstruct_g_fixed(tp, spec, t)
        truth = -primitive_N(fam, t)
        assert abs(g - truth) <= ATOM_RECON_TOL * max(1.0, abs(truth))


# ----------------------------------------------------------------------
# reconstruct_g_adaptive
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def adaptive_setup():
    fam = build_family("power", 15, 2.0, 2.0)
    tp = transform_pair_from_family(fam)
    M = weights.PowerRate(1.0, 2.0)
    k_scale = 0.9 * default_k_scale(2.0, 2.0)
    return fam, tp, M, k_scale


def test_adaptive_contour_matches_primitive(adaptive_setup):
    fam, tp, M, k_scale = adaptive_setup
    k = fam.k
    for t in (k / 2.0, float(k), 2.0 * k):
        g, norms = reconstruct_g_adaptive(tp, M, k_scale, 3, t)
        truth = -primitive_N(fam, t)
        assert abs(g - truth) <= ADAPTIVE_TOL * max(1.0, abs(truth))
        assert len(norms) == 4 and all(v >= 0 for v in norms)


def test_adaptive_piece_shapes(adaptive_setup):
    _, tp, M, k_scale = adaptive_setup
    t_grid = np.linspace(5.0, 35.0, 10)
    norms = [reconstruct_g_adaptive(tp, M, k_scale, 3, t)[1] for t in t_grid]
    i3_rep, i4_rep = fit_adaptive_piece_bounds(M, k_scale, 3, t_grid, norms,
                                               2.0, 2.0)
    assert i3_rep.passed
    assert i4_rep.passed
    assert i3_rep.constants["C"] > 0
    assert i4_rep.constants["C"] > 0


def test_rational_pole_near_boundary_still_reconstructs():
    M = weights.PowerRate(1.0, 2.0)
    im = 2.0
    # park one pole a hair left of the region edge at height im
    pole = complex(-1.0 / M(im) - 1e-3, im)
    tp = rational_pair((pole, pole.conjugate(), -2.0), (0.5, 0.5, 1.0))
    k_scale = 0.9 * default_k_scale(2.0, 2.0)
    poles_coeffs = ((pole, 0.5), (pole.conjugate(), 0.5), (-2.0 + 0j, 1.0))
    for t in (2.0, 6.0):
        g, _ = reconstruct_g_adaptive(tp, M, k_scale, 3, t)
        direct = -sum(c / p * np.exp(p * t) for p, c in poles_coeffs)
        assert abs(g - direct) <= 1e-6 * max(1.0, abs(direct))


# ----------------------------------------------------------------------
# transform pairs over node batches
# ----------------------------------------------------------------------

def _pair(name):
    if name == "exp":
        return exp_decay_pair()
    if name == "rational":
        return rational_pair((-1.0 + 2.0j, -1.0 - 2.0j, -3.0), (1.0, 1.0, 2.0))
    return transform_pair_from_family(build_family("power", 10, 2.0, 2.0))


def _hex(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


@pytest.mark.parametrize("name", ["exp", "rational", "atom"])
def test_array_fhat_and_tail_equal_single_z_calls(name):
    # the contour used to call fhat and tail with one numpy complex scalar
    # at a time; a node batch must give the same bits
    tp = _pair(name)
    xs, _ = np.polynomial.legendre.leggauss(32)
    rng = np.random.default_rng(4)
    # right-arc nodes, a vertical segment through 0, and scattered points
    zs = np.concatenate([8.0 * np.exp(0.5j * math.pi * xs), 1j * 8.0 * xs,
                         rng.uniform(-4.0, 4.0, 64) + 1j * rng.uniform(-30.0, 30.0, 64)])
    assert _hex(tp.fhat(zs)) == _hex([tp.fhat(z) for z in zs])
    for t in (0.5, 5.0):
        assert _hex(tp.tail(t, zs)) == _hex([tp.tail(t, z) for z in zs])


def test_contour_asks_for_fhat_once_per_node_batch(adaptive_setup, monkeypatch):
    from tauberlab import contour
    _, tp, M, k_scale = adaptive_setup
    sizes = []
    real = contour.green_G

    def counting(fam, t, z, *args, **kwargs):
        sizes.append(np.size(z))
        return real(fam, t, z, *args, **kwargs)

    monkeypatch.setattr(contour, "green_G", counting)
    reconstruct_g_adaptive(tp, M, k_scale, 3, 10.0)
    # one call per Gauss-Legendre rule on a panel: 16 or 32 nodes
    assert sizes and set(sizes) <= {16, 32}
