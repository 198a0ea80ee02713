"""Recovering a time signal from its Laplace transform by contour quadrature.

Three stages:
  1. the exponential warm-up — reconstruct g(t) = e^{-t} from its transform
     at two different contour radii and watch the radius independence;
  2. an atomic measure family of order k = 10 — the reconstruction must
     land on the negated running primitive -N(t) computed by the factored
     series;
  3. the adaptive boundary contour that hugs the spectral-free region —
     its two outer piece norms stay under their fitted shapes.

Run:  python3 demos/contour_reconstruction.py
"""
import math

import numpy as np

from tauberlab import weights
from tauberlab.atoms import build_family, primitive_N
from tauberlab.contour import (
    ContourSpec,
    default_k_scale,
    exp_decay_pair,
    fit_adaptive_piece_bounds,
    reconstruct_g_adaptive,
    reconstruct_g_fixed,
    transform_pair_from_family,
)


def main():
    print("stage 1: g(t) = e^{-t} from two fixed-radius contours")
    tp = exp_decay_pair()
    for t in (0.5, 1.0, 5.0):
        small, _ = reconstruct_g_fixed(tp, ContourSpec(R=0.3), t)
        large, _ = reconstruct_g_fixed(tp, ContourSpec(R=0.6), t)
        print(f"  t={t:3.1f}: R=0.3 err {abs(small - math.exp(-t)):.2e}, "
              f"radius gap {abs(small - large):.2e}")

    print("\nstage 2: atom family k=10, reconstruction vs factored series")
    fam = build_family("power", 10, 2.0, 2.0)
    atp = transform_pair_from_family(fam)
    for t in (5.0, 10.0, 15.0):
        got, _ = reconstruct_g_fixed(atp, ContourSpec(R=0.05, n=2), t)
        truth = -primitive_N(fam, t)
        print(f"  t={t:4.1f}: |recon - (-N)| = {abs(got - truth):.2e} "
              f"(|N| = {abs(truth):.3e})")

    print("\nstage 3: adaptive region-hugging contour, k=15 family")
    fam15 = build_family("power", 15, 2.0, 2.0)
    tp15 = transform_pair_from_family(fam15)
    M = weights.PowerRate(1.0, 2.0)
    k_scale = 0.9 * default_k_scale(2.0, 2.0)
    for t in (7.5, 15.0, 30.0):
        g, (i1, i2, i3, i4) = reconstruct_g_adaptive(tp15, M, k_scale, 3, t)
        truth = -primitive_N(fam15, t)
        print(f"  t={t:4.1f}: err {abs(g - truth):.2e}; piece norms "
              f"I1={i1:.3e} I2={i2:.3e} I3={i3:.3e} I4={i4:.3e}")

    t_fit = np.linspace(5.0, 35.0, 10)
    norms = [reconstruct_g_adaptive(tp15, M, k_scale, 3, t)[1] for t in t_fit]
    i3_rep, i4_rep = fit_adaptive_piece_bounds(M, k_scale, 3, t_fit, norms,
                                               2.0, 2.0)
    print(f"  stub-piece shape fit:     C = {i3_rep.constants['C']:.3e}  "
          f"{'PASS' if i3_rep.passed else 'FAIL'}")
    print(f"  boundary-piece shape fit: C = {i4_rep.constants['C']:.3e}  "
          f"{'PASS' if i4_rep.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
