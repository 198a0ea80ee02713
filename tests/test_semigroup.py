"""Damped-wave laboratory: generators, trajectories, decay fits, cutoff identities."""

import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from tauberlab import semigroup, weights
from tauberlab.semigroup import (
    DiagonalSemigroup,
    Trajectory,
    _CHUNK,
    _is_uniform,
    _orbit_sweep,
    assemble_damped_wave,
    c0_example_suite,
    cutoff_transform_check,
    dirichlet_mode_frequencies,
    energy_derivative_check,
    evolve,
    evolve_chunks,
    localized_bump_damping,
    per_mode_propagator_oracle,
    per_mode_resolvent_oracle,
    propagator_inverse_norms,
    rate_sandwich_check,
    resolvent_norm_scan,
    running_sup,
    weighted_decay_suite,
)

GENERATOR_TOL = 1e-12
SCAN_TOL = 1e-8
MODE_DECAY_TOL = 1e-6
IDENTITY_TOL = 1e-6
MINKOWSKI_SLACK = 1.0 + 1e-6
# the norm grid and identity horizon of `wave cutoff` at its defaults
CUTOFF_T_GRID = np.linspace(0.0, 60.0, 3001)
CUTOFF_HORIZON = 80.0


def _smooth_state(n, modes=(1, 2, 3), coeffs=(1.0, 0.4, 0.2)):
    xs = np.arange(1, n + 1) / (n + 1)
    u = sum(c * np.sin(m * math.pi * xs) for m, c in zip(modes, coeffs))
    v = np.sin(2 * math.pi * xs)
    return np.r_[u, v]


def _states(sys, x0, t_grid):
    """Every state evolve_chunks yields, copied out of its reused buffer."""
    out = np.empty((2 * sys.n, len(t_grid)))
    for sl, block in evolve_chunks(sys, x0, t_grid):
        out[:, sl] = block
    return out


def _whole_block_reference(sys, x0, t_grid):
    """evolve as one block: every energy-frame state first, one back-solve,
    then energy and dissipation column by column."""
    ghat = sys.hat_generator()
    props = {}
    for dt in np.diff(t_grid):
        key = round(float(dt), 15)
        if key not in props:
            props[key] = sla.expm(ghat * float(dt))
    xh = sys.to_hat(x0)
    states_hat = np.empty((xh.size, t_grid.size), order="F")
    states_hat[:, 0] = xh
    for i, dt in enumerate(np.diff(t_grid)):
        np.matmul(props[round(float(dt), 15)], states_hat[:, i], out=states_hat[:, i + 1])
    states = sys.from_hat(states_hat, x0)
    cols = range(t_grid.size)
    return ([sys.energy(states[:, i]) for i in cols],
            [float(sys.dissipation(states[:, i])) for i in cols])


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

class TestAssembly:
    def test_undamped_generator_is_skew_in_energy(self):
        sys = assemble_damped_wave(40, 1.0, np.zeros(40))
        gh = sys.hat_generator()
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(80)
            assert abs(x @ (gh @ x)) <= GENERATOR_TOL * (x @ x)

    def test_dissipative_part_is_damping_block(self):
        # -(G + G*) in the energy inner product collapses to diag(0, 2a)
        n = 30
        a = localized_bump_damping(n)
        sys = assemble_damped_wave(n, 1.0, a)
        gram = sys.chol @ sys.chol.T
        adjoint = np.linalg.solve(gram, sys.G.T @ gram)
        q = -(sys.G + adjoint)
        target = np.zeros((2 * n, 2 * n))
        target[n:, n:] = np.diag(2.0 * a)
        assert np.max(np.abs(q - target)) <= 1e-12 * (1.0 + np.max(a))

    def test_quadratic_form_equals_dissipation(self):
        n = 30
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        gh = sys.hat_generator()
        q = -(gh + gh.T)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(2 * n)
            xh = sys.to_hat(x)
            assert float(xh @ (q @ xh)) == pytest.approx(sys.dissipation(x), rel=1e-10, abs=1e-12)

    def test_interval_stencil_eigenvalues_closed_form(self):
        # G's lower-left block is -K, the Laplacian (K is the positive stiffness)
        n, L = 25, 1.0
        sys = assemble_damped_wave(n, L, np.zeros(n))
        h = L / (n + 1)
        got = np.sort(np.linalg.eigvalsh(sys.G[n:, :n]))
        j = np.arange(1, n + 1)
        expected = np.sort(-(4.0 / h ** 2) * np.sin(j * math.pi / (2.0 * (n + 1))) ** 2)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_mode_frequencies_are_sqrt_of_stencil(self):
        n = 18
        sys = assemble_damped_wave(n, 1.0, np.zeros(n))
        om = dirichlet_mode_frequencies(n, 1.0)
        eig = np.sort(np.linalg.eigvalsh(-sys.G[n:, :n]))
        np.testing.assert_allclose(np.sort(om) ** 2, eig, rtol=1e-10)

    def test_negative_damping_rejected(self):
        a = np.zeros(10)
        a[3] = -0.1
        with pytest.raises(ValueError):
            assemble_damped_wave(10, 1.0, a)


# ----------------------------------------------------------------------
# resolvent scans
# ----------------------------------------------------------------------

class TestResolventScan:
    def test_scan_symmetric_in_frequency(self):
        sys = assemble_damped_wave(30, 1.0, np.full(30, 0.7))
        gh = sys.hat_generator()
        eye = np.eye(60)
        for s in (3.0, 12.0, 55.0):
            plus = np.linalg.norm(np.linalg.inv(1j * s * eye - gh), 2)
            minus = np.linalg.norm(np.linalg.inv(-1j * s * eye - gh), 2)
            assert plus == pytest.approx(minus, rel=1e-12)
            scanned = resolvent_norm_scan(sys, np.array([s])).values[0]
            assert scanned == pytest.approx(plus, rel=1e-10)

    def test_constant_damping_matches_per_mode_oracle(self):
        sys = assemble_damped_wave(40, 1.0, np.ones(40))
        s = np.linspace(0.0, 300.0, 61)
        scan = resolvent_norm_scan(sys, s)
        oracle = per_mode_resolvent_oracle(sys, s)
        np.testing.assert_allclose(scan.values, oracle, rtol=SCAN_TOL)

    def test_partial_damping_scan_stays_finite(self):
        n = 40
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        scan = resolvent_norm_scan(sys, np.linspace(0.0, 200.0, 41))
        assert np.all(np.isfinite(scan.values))
        sup = running_sup(scan)
        assert np.all(np.diff(sup.values) >= 0)


# ----------------------------------------------------------------------
# evolve + energy identity
# ----------------------------------------------------------------------

class TestEvolution:
    def test_undamped_energy_constant(self):
        n = 40
        sys = assemble_damped_wave(n, 1.0, np.zeros(n))
        x0 = _smooth_state(n)
        tol = 1e-10
        traj = evolve(sys, x0, np.linspace(0.0, 100.0, 201), tol=tol)
        E = traj.energies
        assert np.max(np.abs(E - E[0])) <= 10.0 * tol * max(1.0, E[0])

    def test_evolution_is_linear(self):
        n = 24
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2 * n)
        y = rng.standard_normal(2 * n)
        tg = np.linspace(0.0, 4.0, 9)
        a = _states(sys, x, tg)
        b = _states(sys, y, tg)
        ab = _states(sys, x + y, tg)
        np.testing.assert_allclose(ab, a + b, atol=1e-9 * float(np.max(np.abs(a + b)) + 1.0))

    def test_uniform_damping_matches_per_mode_oracle(self):
        n = 40
        sys = assemble_damped_wave(n, 1.0, np.ones(n))
        tg = np.linspace(0.5, 12.0, 24)
        got = propagator_inverse_norms(sys, tg)
        oracle = per_mode_propagator_oracle(sys, tg)
        np.testing.assert_allclose(got.values, oracle, rtol=MODE_DECAY_TOL)

    def test_energy_nonincreasing_and_residual_small(self):
        n = 80
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        x0 = _smooth_state(n)
        tg = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        traj = evolve(sys, x0, tg, tol=1e-10)
        E = traj.energies
        E0 = E[0]
        assert np.all(np.diff(E) <= 1e-12 * E0)
        assert energy_derivative_check(traj) <= 1e-6 * E0

    def test_periodic_round_trip_returns_the_initial_state(self):
        # P0 is an oblique projector, so the working-space coordinates must be
        # taken of x0 - P0 x0 for evolve's back-transform to give x0 at t = 0
        n = 20
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n), bc="periodic")
        x0 = np.random.default_rng(5).standard_normal(2 * n)
        _, block = next(evolve_chunks(sys, x0, np.linspace(0.0, 1.0, 11)))
        np.testing.assert_allclose(block[:, 0], x0, rtol=0, atol=1e-12)

    def test_undamped_residual_is_differentiation_noise(self):
        n = 40
        sys = assemble_damped_wave(n, 1.0, np.zeros(n))
        traj = evolve(sys, _smooth_state(n), np.arange(0.0, 0.5, 1e-3), tol=1e-10)
        assert energy_derivative_check(traj) <= 1e-8 * traj.energies[0]

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    def test_peak_memory_does_not_grow_with_the_horizon(self, bc):
        # the states stream through one buffer of _CHUNK columns and a
        # uniform grid takes one step propagator, so ten times the steps
        # keep the peak within 20%
        n = 150
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n), bc=bc)
        x0 = _smooth_state(n)

        def peak(steps):
            tg = np.linspace(0.0, (steps - 1) * 1e-3, steps)
            tracemalloc.start()
            try:
                evolve(sys, x0, tg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_001) <= 1.2 * peak(2_001)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
    @pytest.mark.parametrize("tail", [1, 2, _CHUNK])
    def test_chunked_energies_match_the_whole_block_bit_for_bit(self, bc, tail):
        # a tail of 1 joins the chunk before it; 2 and _CHUNK are their own
        n = 16
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n), bc=bc)
        x0 = _smooth_state(n)
        size = 2 * _CHUNK + tail
        tg = np.linspace(0.0, (size - 1) * 1e-3, size)
        traj = evolve(sys, x0, tg)
        ref_e, ref_d = _whole_block_reference(sys, x0, tg)
        assert [float(e).hex() for e in traj.energies] == [e.hex() for e in ref_e]
        assert [float(d).hex() for d in traj.dissipations] == [d.hex() for d in ref_d]

    def test_grid_steps_take_one_expm_each(self, monkeypatch):
        # a uniform grid takes one step propagator; a grid of two step sizes
        # one per size, and its states match the whole-block reference
        n = 16
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        x0 = _smooth_state(n)
        calls = TestWeightedDecay._count_expm(monkeypatch)
        evolve(sys, x0, np.linspace(0.0, 40.0, 40_001))
        assert len(calls) == 1
        tg = np.concatenate([np.linspace(0.0, 1.0, 11), np.linspace(1.25, 3.0, 8)])
        calls.clear()
        traj = evolve(sys, x0, tg)
        assert len(calls) == 2
        ref_e, ref_d = _whole_block_reference(sys, x0, tg)
        assert [float(e).hex() for e in traj.energies] == [e.hex() for e in ref_e]
        assert [float(d).hex() for d in traj.dissipations] == [d.hex() for d in ref_d]

    def test_chunks_tile_the_grid(self):
        n = 8
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        size = 2 * _CHUNK + 1
        spans = [(sl.start, sl.stop, block.shape[1]) for sl, block in
                 evolve_chunks(sys, _smooth_state(n), np.linspace(0.0, 1.0, size))]
        assert spans == [(0, _CHUNK, _CHUNK), (_CHUNK, size, _CHUNK + 1)]


class TestUniformGrid:
    def test_linspace_grid_of_40001_points_is_uniform(self):
        # linspace rounds its points by about an ulp of t_max, well past
        # 1e-12 dt once t_max/dt passes a few thousand
        t = np.linspace(0.0, 40.0, 40_001)
        assert np.ptp(np.diff(t)) > 1e-12 * (t[1] - t[0])
        assert _is_uniform(t)
        traj = Trajectory(t, np.exp(-t), np.exp(-t))
        assert energy_derivative_check(traj) <= 1e-12

    def test_one_step_off_by_1e_9_is_refused(self, system):
        t = np.linspace(0.0, 40.0, 40_001)
        t[20_000:] += 1e-9 * (t[1] - t[0])
        assert not _is_uniform(t)
        with pytest.raises(ValueError, match="uniform time grid"):
            energy_derivative_check(Trajectory(t, np.exp(-t), np.exp(-t)))
        eye = np.eye(2 * system.n)
        with pytest.raises(ValueError, match="norm series needs a uniform grid"):
            cutoff_transform_check(system, eye, eye, _smooth_state(system.n), 1.2,
                                   [1.5], t_grid=t, T=1.0)

    def test_grids_off_zero_are_uniform(self):
        # the whole-grid step: t_1 - t_0 off zero carries half an ulp of t_1
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(-5.0, 5.0)
            t = np.linspace(a, a + rng.uniform(0.1, 50.0), int(rng.integers(3, 50_000)))
            assert _is_uniform(t)


# ----------------------------------------------------------------------
# weighted decay ladders
# ----------------------------------------------------------------------

class TestWeightedDecay:
    def test_square_root_and_ladders(self):
        n = 30
        sys = assemble_damped_wave(n, 1.0, np.ones(n))
        x = _smooth_state(n)
        reps = {r.name: r for r in weighted_decay_suite(sys, x, weights.ConstantRate(2.0))}
        assert reps["B-square-root"].passed
        assert reps["B-square-root"].constants["residual"] <= 1e-10
        assert reps["B-decay-ladder"].passed
        assert reps["energy-decay-ladder"].passed
        assert reps["B-decay-ladder"].constants["worst_late_ratio"] < 0.9

    @pytest.mark.parametrize("bc,damping", [
        pytest.param("dirichlet", "constant", id="dirichlet"),
        pytest.param("periodic", "constant", id="periodic"),
        pytest.param("dirichlet", "localized", id="dirichlet-localized"),
    ])
    def test_unit_weight_energy_ladder_is_the_energy_drop(self, bc, damping):
        # M = 18 puts M_log(1) = 65.48 past t/4 on the whole ladder [0, 256],
        # so w = 1 and the energy ladder's total is int_0^256 -dE/dt dt:
        # a second route through evolve's one step of 256.  Localized
        # damping leaves energy ringing on the late, wide rungs, which a
        # fixed panel count per rung under-resolves
        n = 30
        a = np.ones(n) if damping == "constant" else localized_bump_damping(n)
        sys = assemble_damped_wave(n, 1.0, a, bc=bc)
        if damping == "localized":
            x = _smooth_state(n)
        elif bc == "dirichlet":
            xs = np.arange(1, n + 1) / (n + 1)
            x = np.r_[np.sin(math.pi * xs) + 0.4 * np.sin(2 * math.pi * xs),
                      np.sin(2 * math.pi * xs)]
        else:
            j = np.arange(n)
            x = np.r_[np.sin(2 * math.pi * j / n), 0.5 * np.cos(4 * math.pi * j / n)]
        reps = {r.name: r for r in weighted_decay_suite(sys, x, weights.ConstantRate(18.0))}
        e0, e_end = evolve(sys, x, [0.0, 256.0]).energies
        total = reps["energy-decay-ladder"].constants["total"]
        assert abs(total - (e0 - e_end)) <= 1e-11 * (e0 - e_end)

    @staticmethod
    def _count_expm(monkeypatch):
        calls = []
        expm = sla.expm

        def counted(a):
            calls.append(a.shape)
            return expm(a)
        monkeypatch.setattr(sla, "expm", counted)
        return calls

    def test_default_ladder_sweeps_each_rung_once(self, monkeypatch):
        # 7 rungs, each one orbit sweep: 8 node-offset steps and 1 panel step
        n = 20
        sys = assemble_damped_wave(n, 1.0, np.ones(n))
        calls = self._count_expm(monkeypatch)
        reps = weighted_decay_suite(sys, _smooth_state(n), weights.ConstantRate(2.0))
        assert all(r.passed for r in reps)
        assert 0 < len(calls) <= 63


class TestOrbitSweep:
    @pytest.mark.parametrize("kind", ["real-block", "complex-vector"])
    def test_node_states_match_expm_steps_bit_for_bit(self, kind):
        n = 10
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        ghat = sys.hat_generator()
        rng = np.random.default_rng(5)
        if kind == "real-block":
            v0 = rng.standard_normal((2 * n, 2))
        else:
            v0 = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        width, panels, t0 = 0.3, 4, 1.5
        xs, ws = np.polynomial.legendre.leggauss(8)
        offs = 0.5 * width * (xs + 1.0)
        steps = [sla.expm(ghat * o) for o in offs]
        panel_step = sla.expm(ghat * width)
        cur = v0
        sweep = list(_orbit_sweep(ghat, v0, width, panels, t0=t0))
        assert len(sweep) == panels
        for j, (t, wq, at_nodes, end) in enumerate(sweep):
            assert np.array_equal(t, t0 + j * width + offs)
            assert np.array_equal(wq, 0.5 * width * ws)
            assert at_nodes.shape == (8, *v0.shape)
            for step, state in zip(steps, at_nodes):
                assert np.array_equal(state, step @ cur)
            cur = panel_step @ cur
            assert end.dtype == v0.dtype
            assert np.array_equal(end, cur)


# ----------------------------------------------------------------------
# decay-rate sandwich
# ----------------------------------------------------------------------

class TestRateSandwich:
    def test_inverse_propagator_norms_nonincreasing(self):
        n = 40
        sys = assemble_damped_wave(n, 1.0, np.ones(n))
        series = propagator_inverse_norms(sys, np.linspace(0.5, 20.0, 40))
        assert np.all(np.diff(series.values) <= 1e-12 * series.values[0])

    def test_uniform_damping_sandwich(self):
        n = 60
        sys = assemble_damped_wave(n, 1.0, np.ones(n))
        scan = running_sup(resolvent_norm_scan(sys, np.linspace(0.0, 240.0, 121)))
        norms = propagator_inverse_norms(sys, np.linspace(0.5, 25.0, 50))
        rep = rate_sandwich_check(norms, scan)
        assert rep.passed
        assert rep.constants["t0"] <= 5.0
        assert rep.constants["C"] > 0

    def test_raw_scan_is_refused_by_name(self):
        # the raw resolvent scan dips between frequencies; only its running
        # sup has the inverse the sandwich reads
        n = 20
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        scan = resolvent_norm_scan(sys, np.linspace(0.0, 40.0, 9))
        assert np.any(np.diff(scan.values) < 0)
        with pytest.raises(ValueError, match="m_scan must be a running supremum"):
            rate_sandwich_check(propagator_inverse_norms(sys, np.linspace(5.0, 10.0, 3)),
                                scan)

    def test_localized_damping_sandwich(self):
        n = 60
        sys = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
        scan = running_sup(resolvent_norm_scan(sys, np.linspace(0.0, 240.0, 121)))
        norms = propagator_inverse_norms(sys, np.linspace(0.5, 25.0, 50))
        rep = rate_sandwich_check(norms, scan)
        assert rep.passed
        assert "tail_exponent" in rep.constants

    def test_grid_before_onset_is_refused(self):
        n = 10
        sys = assemble_damped_wave(n, 1.0, np.ones(n))
        scan = running_sup(resolvent_norm_scan(sys, np.linspace(0.0, 20.0, 3)))
        with pytest.raises(ValueError, match="no points at or beyond t0=5.0"):
            rate_sandwich_check(propagator_inverse_norms(sys, np.linspace(0.5, 4.0, 4)),
                                scan, t0=5.0)


# ----------------------------------------------------------------------
# cutoff families
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def system():
    n = 50
    return assemble_damped_wave(n, 1.0, localized_bump_damping(n))


class TestCutoffFamilies:
    def test_identity_cutoffs_reduce_to_plain_transform(self, system):
        n = system.n
        eye = np.eye(2 * n)
        x = _smooth_state(n)
        lam = 1.5 + 1j * np.linspace(-6.0, 6.0, 10)
        out = cutoff_transform_check(system, eye, eye, x, 1.2, lam,
                                     CUTOFF_T_GRID, CUTOFF_HORIZON)
        assert out["identity_ok"]
        assert max(out["identity_residuals"]) <= IDENTITY_TOL

    def test_coordinate_cutoffs_identity_and_norm_bound(self, system):
        n = system.n
        rng = np.random.default_rng(7)
        d1 = np.r_[rng.integers(0, 2, n), rng.integers(0, 2, n)].astype(float)
        d2 = np.r_[rng.integers(0, 2, n), rng.integers(0, 2, n)].astype(float)
        x = rng.standard_normal(2 * n)
        lam = 2.0 + 1j * np.linspace(-8.0, 8.0, 10)
        out = cutoff_transform_check(system, np.diag(d1), np.diag(d2), x, 1.4, lam,
                                     CUTOFF_T_GRID, CUTOFF_HORIZON)
        assert out["identity_ok"]
        assert out["minkowski_ok"]
        for p in (1.0, 2.0, math.inf):
            lhs, rhs, ok = out["minkowski"][p]
            assert ok
            assert lhs <= rhs * MINKOWSKI_SLACK


# ----------------------------------------------------------------------
# diagonal examples
# ----------------------------------------------------------------------

class TestDiagonalExamples:
    def test_contraction_of_each_mode(self):
        beta = np.array([0.5 + 0.3j, 1.0 + 0.0j, 2.0 - 1.0j])
        for t in (0.0, 0.5, 3.0, 20.0):
            assert np.all(np.abs(np.exp((1j - beta) * t)) <= 1.0 + 1e-15)
        semi = DiagonalSemigroup(beta.real)
        assert semi.norm_g(0.0) <= 1.0 + 1e-15

    def test_dyadic_rates_two_sided_envelope(self):
        beta = [2.0 ** (-j) for j in range(1, 21)]
        grid = np.geomspace(1.0, 1e4, 200)
        series, rep = c0_example_suite(beta, t_grid=grid)
        assert rep.passed
        # upper envelope 1/(e t) is exact, not asymptotic
        assert np.all(series.values <= 1.0 / (math.e * grid) + 1e-12)

    def test_dyadic_rates_lower_pins(self):
        beta = [2.0 ** (-j) for j in range(1, 21)]
        _, rep = c0_example_suite(beta)
        assert rep.passed
        for b in beta:
            t = 1.0 / b
            series, _ = c0_example_suite(beta, t_grid=np.array([t]))
            assert series.values[0] >= b / (math.sqrt(1.0 + b * b) * math.e) - 1e-12

    def test_single_rate_modulus_closed_form(self):
        grid = np.linspace(0.0, 5.0, 11)
        got = DiagonalSemigroup(np.array([1.0])).norm_g(grid)
        expected = np.exp(-grid) / math.sqrt(2.0)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


# ----------------------------------------------------------------------
# the model boundary
# ----------------------------------------------------------------------

# the energy frame and the grid it is built on belong to the model; a second
# model (another discretization) reaches every verdict only if none of them
# reads these fields
FRAME_FIELDS = {"chol", "basis", "P0", "G", "h", "_hat"}
GRID_FIELDS = {"a", "n", "L", "bc"}
MODEL = {"DampedWaveSystem", "assemble_damped_wave"}
# the constant-damping oracle is a model of its own: exact 2x2 mode blocks
GRID_READERS = {"_mode_blocks"}


def _model_field_reads():
    """(top-level name, field) for each read of a model field in the
    semigroup module outside the model and, for grid fields, its oracle."""
    tree = ast.parse(pathlib.Path(semigroup.__file__).read_text())
    found = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        if name in MODEL:
            continue
        banned = FRAME_FIELDS | (set() if name in GRID_READERS else GRID_FIELDS)
        found += [(name, node.attr) for node in ast.walk(top)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load) and node.attr in banned]
    return found


def test_verdicts_read_the_frame_through_the_model():
    reads = _model_field_reads()
    assert not reads, ("read these through DampedWaveSystem methods: "
                       + ", ".join(f"{fn} reads .{attr}" for fn, attr in reads))
