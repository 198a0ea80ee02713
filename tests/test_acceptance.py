"""Acceptance suite: one verdict line per criterion, at contract tolerances.

Each test prints ``ACCEPTANCE <nn> <name>: PASS|FAIL`` (visible without -s)
and then asserts every named condition, so a red run shows exactly which
clause broke.
"""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from tauberlab import weights
from tauberlab.atoms import (
    build_family,
    green_G,
    laplace_L,
    primitive_N,
    roots_identity,
    verify_prop52,
)
from tauberlab.contour import (
    ContourSpec,
    default_k_scale,
    exp_decay_pair,
    fit_adaptive_piece_bounds,
    laplace_quadrature,
    lemma31_check,
    reconstruct_g_fixed,
    transform_pair_from_family,
)
from tauberlab.semigroup import (
    DiagonalSemigroup,
    assemble_damped_wave,
    c0_example_suite,
    cutoff_transform_check,
    energy_derivative_check,
    evolve,
    localized_bump_damping,
    per_mode_resolvent_oracle,
    propagator_inverse_norms,
    rate_sandwich_check,
    resolvent_norm_scan,
    running_sup,
)
import tauberlab.counterexamples as cx


def _verdict(capsys, num, name, checks):
    ok = all(checks.values())
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    failed = sorted(k for k, v in checks.items() if not v)
    assert ok, f"failed clauses: {failed}"


def test_01_roots_of_unity_identity(capsys):
    # every order to 64, three cycle strides, fifty off-circle points each
    rng = np.random.default_rng(123)
    worst = 0.0
    for k in range(1, 65):
        for j in {1, max(1, round(k / 2)), k}:
            angles = rng.uniform(0.0, 2.0 * np.pi, 50)
            radii = np.where(rng.integers(0, 2, 50) == 0, 0.5, 2.0)
            for ang, r in zip(angles, radii):
                lhs, rhs = roots_identity(k, j, r * np.exp(1j * ang))
                scale = max(abs(lhs), abs(rhs), 1e-300)
                worst = max(worst, abs(lhs - rhs) / scale)
    _verdict(capsys, 1, "roots-of-unity-identity",
             {"relative gap <= 1e-12": worst <= 1e-12})


def test_02_transform_origin_cancellation(capsys):
    worst = 0.0
    for k in range(5, 31):
        fam = build_family("power", k, 2.0, 2.0)
        worst = max(worst,
                    abs(laplace_L(fam, 0.0, backend="oracle")),
                    abs(primitive_N(fam, 0.0, backend="oracle")))
    _verdict(capsys, 2, "transform-origin-cancellation",
             {"|L(0)|,|N(0)| <= 1e-25 in oracle backend": worst <= 1e-25})


def test_03_transform_primitive_consistency(capsys):
    primitive_worst = 0.0
    for k in (10, 20):
        fam = build_family("power", k, 2.0, 2.0)
        n0 = primitive_N(fam, 0.0)
        for t in np.linspace(0.0, 3.0 * k, 50):
            re = quad(lambda s: laplace_L(fam, s).real, 0.0, t,
                      limit=400, epsabs=1e-12, epsrel=1e-12)[0]
            im = quad(lambda s: laplace_L(fam, s).imag, 0.0, t,
                      limit=400, epsabs=1e-12, epsrel=1e-12)[0]
            nt = primitive_N(fam, t)
            gap = abs(nt - n0 - (re + 1j * im)) / max(1.0, abs(nt))
            primitive_worst = max(primitive_worst, gap)

    fam = build_family("power", 10, 2.0, 2.0)
    rng = np.random.default_rng(17)
    zs = 1.0 + rng.uniform(0.0, 2.0, 10) + 1j * rng.uniform(-3.0, 3.0, 10)
    profile = lambda s: np.array([laplace_L(fam, float(v))
                                  for v in np.atleast_1d(s)])
    transform_worst = 0.0
    for z in zs:
        direct = green_G(fam, 0.0, z)
        quadv = laplace_quadrature(profile, z, 60.0, tol=1e-10)
        transform_worst = max(transform_worst,
                              abs(direct - quadv) / abs(direct))
    _verdict(capsys, 3, "transform-primitive-consistency", {
        "N(t) - N(0) = int L within 1e-8": primitive_worst <= 1e-8,
        "G(0,z) matches quadrature to 1e-6": transform_worst <= 1e-6,
    })


def test_04_envelope_fit_suite(capsys):
    rhos = []
    all_pass = True
    for k in (15, 25, 40):
        fam = build_family("power", k, 2.0, 2.0)
        reports = verify_prop52(fam)
        all_pass = all_pass and all(r.passed for r in reports)
        rhos.extend(r.constants["rho"] for r in reports
                    if "rho" in r.constants)
    _verdict(capsys, 4, "envelope-fit-suite", {
        "X3/XQ4/X5/X6 hold at every grid point": all_pass,
        "common positive rho lower bound": min(rhos) > 0.0,
    })


def test_05_resolvent_kernel_cap(capsys):
    grid = np.r_[0.0, np.geomspace(1e-2, 1e3, 59)]
    cap_ok = True
    for t in grid:
        integral, _ = lemma31_check(t)
        cap = min(2.0, math.pi ** 2 / (2.0 * t * t)) if t > 0 else 2.0
        cap_ok = cap_ok and integral <= cap + 1e-9
    origin, _ = lemma31_check(0.0)
    _verdict(capsys, 5, "resolvent-kernel-cap", {
        "integral <= min(2, pi^2/2t^2) + 1e-9 on 60-pt log grid": cap_ok,
        "exact value 2 at t=0": abs(origin - 2.0) <= 1e-12,
    })


def test_06_contour_reconstruction(capsys):
    tp = exp_decay_pair()
    exp_ok, agree_ok = True, True
    for t in (0.5, 1.0, 5.0):
        vals = [reconstruct_g_fixed(tp, ContourSpec(R=radius), t)
                for radius in (0.3, 0.6)]
        exp_ok = exp_ok and all(abs(v - math.exp(-t)) <= 1e-8 for v in vals)
        agree_ok = agree_ok and abs(vals[0] - vals[1]) <= 1e-8

    fam = build_family("power", 10, 2.0, 2.0)
    atp = transform_pair_from_family(fam)
    atom_ok = True
    for t in (5.0, 10.0, 15.0):
        truth = -primitive_N(fam, t)
        got = reconstruct_g_fixed(atp, ContourSpec(R=0.05, n=2), t)
        atom_ok = atom_ok and abs(got - truth) <= 1e-6 * max(1.0, abs(truth))

    fam15 = build_family("power", 15, 2.0, 2.0)
    tp15 = transform_pair_from_family(fam15)
    M = weights.PowerRate(1.0, 2.0)
    k_scale = 0.9 * default_k_scale(2.0, 2.0)
    i3_rep, i4_rep = fit_adaptive_piece_bounds(
        tp15, M, k_scale, 3, np.linspace(5.0, 35.0, 10), 2.0, 2.0)
    _verdict(capsys, 6, "contour-reconstruction", {
        "exp profile recovered to 1e-8 at two radii": exp_ok,
        "radius independence <= 1e-8": agree_ok,
        "atom primitive recovered to 1e-6": atom_ok,
        "stub piece under fitted shape at 10 t": i3_rep.passed,
        "boundary piece under fitted shape at 10 t": i4_rep.passed,
    })


def test_07_diagonal_family_decay(capsys):
    betas = 2.0 ** -np.arange(1, 21)
    grid = np.geomspace(1.0, 1e4, 200)
    series, rep = c0_example_suite(betas, grid)
    upper_ok = bool(np.all(series.values <= 1.0 / (math.e * grid) + 1e-12))
    lower_ok = all(
        float(np.max(DiagonalSemigroup([b]).norm_g(1.0 / b)))
        >= (b / (math.sqrt(1.0 + b * b) * math.e)) * (1.0 - 1e-12)
        for b in betas)
    _verdict(capsys, 7, "diagonal-family-decay", {
        "two-sided fit report": rep.passed,
        "sup norm <= 1/(e t) on 200 points of [1, 1e4]": upper_ok,
        "norm at t=1/beta_n >= beta_n/(sqrt(1+beta_n^2) e)": lower_ok,
    })


def test_08_wave_energy_identity(capsys):
    n = 400
    sys_ = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
    xs = np.arange(1, n + 1) / (n + 1)
    x0 = np.r_[np.sin(math.pi * xs) + 0.3 * np.sin(3 * math.pi * xs),
               np.sin(2 * math.pi * xs)]
    tg = np.arange(0.0, 2.0 + 1e-12, 1e-3)
    traj = evolve(sys_, x0, tg, tol=1e-10)
    E = traj.energies()
    _verdict(capsys, 8, "wave-energy-identity", {
        "dE/dt + dissipation residual <= 1e-6 E(0)":
            energy_derivative_check(traj) <= 1e-6 * E[0],
        "energy nonincreasing": bool(np.all(np.diff(E) <= 1e-12 * E[0])),
    })


def test_09_decay_rate_sandwich(capsys):
    n = 200
    sys_ = assemble_damped_wave(n, 1.0, np.ones(n))
    freq = np.linspace(0.0, 600.0, 241)
    scan = resolvent_norm_scan(sys_, freq)
    oracle = per_mode_resolvent_oracle(sys_, freq)
    scan_gap = float(np.max(np.abs(scan.values - oracle)
                            / np.maximum(1.0, oracle)))
    tg = np.linspace(0.5, 30.0, 60)
    norms = propagator_inverse_norms(sys_, tg)
    rep = rate_sandwich_check(sys_, tg, running_sup(scan), t0=5.0,
                              norms=norms.values)
    consts = rep.constants
    _verdict(capsys, 9, "decay-rate-sandwich", {
        "both inequalities hold from t0": rep.passed,
        "reported t0 <= 5": consts["t0"] <= 5.0,
        # constant damping saturates the scan, so the lower-bound weight
        # inverse is infinite past the plateau and c_prime degenerates to 0
        "all four constants exist": all(
            math.isfinite(consts[key]) and consts[key] > 0
            for key in ("c", "C", "C_prime")) and consts["c_prime"] >= 0.0
        and math.isfinite(consts["c_prime"]),
        "scan matches per-mode oracle to 1e-8": scan_gap <= 1e-8,
    })


def test_10_cutoff_transform_identity(capsys):
    n = 60
    sys_ = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
    rng = np.random.default_rng(7)
    d1 = np.r_[rng.integers(0, 2, n), rng.integers(0, 2, n)].astype(float)
    d2 = np.r_[rng.integers(0, 2, n), rng.integers(0, 2, n)].astype(float)
    x = rng.standard_normal(2 * n)
    lam = 2.0 + 1j * np.linspace(-8.0, 8.0, 10)
    out = cutoff_transform_check(sys_, np.diag(d1), np.diag(d2), x, 1.4, lam)
    _verdict(capsys, 10, "cutoff-transform-identity", {
        "identity residual <= 1e-6 at 10 lambda":
            max(out["identity_residuals"]) <= 1e-6,
        "p=1 bound": out["minkowski"][1.0][2],
        "p=2 bound": out["minkowski"][2.0][2],
        "p=inf bound": out["minkowski"][math.inf][2],
    })


def test_11_divergence_signature(capsys):
    power = cx.build_counterexample("power", 2, 2, 4,
                                    gamma_log=cx.inverse_log_weight)
    pscan = cx.divergence_scan(power)
    contribs = [w.contribution_log for w in pscan]
    floors_ok = all(w.min_log_abs_g >= w.floor_log for w in pscan)

    log_spec = cx.build_counterexample("log", 1, 2, 3)
    gamma_exp = cx.fit_log_weight_exponent(log_spec)
    lscan = cx.divergence_scan(log_spec)
    _verdict(capsys, 11, "divergence-signature", {
        "power: weighted contributions strictly increase":
            all(b > a for a, b in zip(contribs[:-1], contribs[1:])),
        "power: window minima clear the c1 floor": floors_ok,
        "power: all windows pass": all(w.passed for w in pscan),
        "log: fitted weight exponent positive": gamma_exp > 0,
        "log: all windows pass": all(w.passed for w in lscan),
        "log: contributions strictly increase": all(
            b.contribution_log > a.contribution_log
            for a, b in zip(lscan[:-1], lscan[1:])),
    })


def test_12_shift_orbit_suite(capsys):
    reports = {r.name: r for r in cx.shift_semigroup_suite(2, 2,
                                                           k_list=(20, 40))}
    _verdict(capsys, 12, "shift-orbit-suite", {
        "tail identity to 1e-8":
            reports["shift-tail-identity"].passed
            and reports["shift-tail-identity"].constants["worst_relative"]
            <= 1e-8,
        "window floor fitted at both orders": reports["T5"].passed,
        "window upper fitted at both orders": reports["T6"].passed,
        "orbit box-plus-tail envelope": reports["T1"].passed,
        "boundary square-integral bounded on 40 samples":
            reports["73b"].passed,
    })
