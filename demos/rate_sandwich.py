"""Two-sided decay-rate sandwich for a damped wave chain.

Assembles the finite-difference damped wave system with a localized
damping bump, scans the running sup of the resolvent norm along the
imaginary axis (an SVD only where it could raise the sup), and fits
the constants squeezing the propagator-inverse norm between the two
weight-function inverses:

    c' / M^{-1}(C' t)  <=  ||T(t) G^{-1}||_E  <=  C / Mlog^{-1}(c t)

Run:  python3 demos/rate_sandwich.py
"""
import numpy as np

from tauberlab.semigroup import (
    assemble_damped_wave,
    localized_bump_damping,
    per_mode_propagator_oracle,
    propagator_inverse_norms,
    rate_sandwich_check,
    resolvent_sup_scan,
)


def main():
    n = 120
    sys_ = assemble_damped_wave(n, 1.0, localized_bump_damping(n))
    print(f"damped wave chain: n={n}, localized damping bump, Dirichlet ends")

    freq = np.linspace(0.0, 240.0, 121)
    scan = resolvent_sup_scan(sys_, freq)
    print(f"resolvent scan: {freq.size} frequencies in [0, {freq[-1]:.0f}], "
          f"running sup ends at {scan.values[-1]:.4f}")

    t_grid = np.linspace(0.5, 25.0, 50)
    norms = propagator_inverse_norms(sys_, t_grid)
    rep = rate_sandwich_check(norms, scan, t0=5.0)

    c = rep.constants
    print(f"\nfitted sandwich constants (t0 = {c['t0']:g}):")
    print(f"  upper: C  = {c['C']:.6f}   with rate scale c  = {c['c']:.6f}")
    print(f"  lower: c' = {c['c_prime']:.6f}   with rate scale C' = {c['C_prime']:.6f}")
    print(f"  late-time tail exponent of the norm curve: "
          f"{c['tail_exponent']:.4f}")
    print(f"  verdict: {'PASS' if rep.passed else 'FAIL'}")

    print("\n  t      ||T(t)G^-1||_E  (localized damping)")
    for t, v in zip(t_grid[::10], norms.values[::10]):
        print(f"  {t:5.1f}  {v:14.8f}")

    # constant damping block-diagonalizes: the closed-form per-mode oracle
    # certifies the matrix-free norms there
    uni = assemble_damped_wave(60, 1.0, np.ones(60))
    tg = np.linspace(0.5, 12.0, 5)
    got = propagator_inverse_norms(uni, tg).values
    oracle = per_mode_propagator_oracle(uni, tg)
    print("\nconstant-damping cross-check (n=60): matrix norms vs "
          "per-mode closed form")
    print("  t      matrix          oracle          rel gap")
    for t, v, o in zip(tg, got, oracle):
        print(f"  {t:5.1f}  {v:14.8f}  {o:14.8f}  {abs(v - o) / o:.2e}")


if __name__ == "__main__":
    main()
