"""A bounded signal whose weighted tail refuses to converge.

Builds the block-train construction: a sparse ladder of atomic-measure
blocks whose orders grow so fast that every weighted window contributes
more than the last, certifying that no weighted-decay improvement of the
tail bound is possible. Two flavors:

  power variant - weight gamma(t) = 1/log(2+t), four blocks whose orders
      are selected by a doubly exponential threshold schedule;
  log variant - stretched-exponential weight e^{gamma t^{1/(alpha+1)}}
      with the exponent gamma fitted from the construction itself.

Run:  python3 demos/divergence_scan.py
"""
import math

import tauberlab.counterexamples as cx


def show(scan):
    print("  window        t-range                weighted contribution (log)")
    for w in scan:
        rng = f"[{w.t_lo:.6g}, {w.t_hi:.6g}]"
        contrib = ("-inf (window below weight threshold)"
                   if w.contribution_log == -math.inf
                   else f"{w.contribution_log:+.4f}")
        print(f"  n={w.n}  {rng:<28} {contrib:<38} "
              f"{'PASS' if w.passed else 'FAIL'} ({w.notes})")


def main():
    print("power variant: alpha=2, p=2, gamma(t) = 1/log(2+t), 4 blocks")
    spec = cx.build_counterexample("power", 2, 2, 4,
                                   gamma_log=cx.inverse_log_weight)
    print(f"  selected log-orders: "
          f"{[round(b.log_k, 4) for b in spec.blocks]}")
    print(f"  fitted envelope constants: c1={spec.c1:.6f} "
          f"c2={spec.c2:.3f} rho={spec.rho:.6f}")
    show(cx.divergence_scan(spec))

    print("\nlog variant: alpha=1, 3 blocks, weight e^{gamma t^{1/2}}")
    lspec = cx.build_counterexample("log", 1, 2, 3)
    exponent = cx.fit_log_weight_exponent(lspec)
    print(f"  fitted weight exponent gamma = {exponent:g}")
    show(cx.divergence_scan(lspec))

    print("\neach window outweighs the previous one, so the weighted tail "
          "integral\ngrows without bound while the signal itself stays "
          "bounded.")


if __name__ == "__main__":
    main()
