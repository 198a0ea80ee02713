"""Record the correctness reference the benchmark gates against.

Run from the root of a checkout of the commit whose outputs are the
reference (the parent of a change under test)::

    python3 perfbench/record.py [workload ...]

For every input variant of each workload it runs one pass and stores, per
operation, the exit code, verdict dict, fitted constants, the sha256 of each
CSV body or output array, and the grid points beyond tolerance, in
``reference/<workload>.json``; the numbers behind each sha256 go to
``reference/<workload>.npz`` so that a changed output can be measured.
Re-recording is a benchmark change of its own: it must say why in CHANGES.md.
"""
import json
import os
import sys

from run import cap_blas_threads, import_program, run_pass, WORKLOADS


def record(workload: str) -> None:
    import numpy as np

    import workloads as wl

    meta = {"variants": {}}
    arrays = {}
    for variant in range(wl.N_VARIANTS):
        ops = wl.build(workload, variant)
        _, raws = run_pass(ops)
        refs = {}
        for op, (ok, raw) in zip(ops, raws):
            if not ok:
                raise SystemExit(f"{workload} variant {variant} {op.label}: {raw}")
            rec, values = op.outcome(raw)
            refs[op.label] = rec
            arrays.update(values)
            print(f"{workload} v{variant} {op.label}: exit={rec.get('exit')} "
                  f"bad={len(rec['bad'])}/{rec['points']}", flush=True)
        meta["variants"][str(variant)] = refs
    os.makedirs(wl.REFERENCE, exist_ok=True)
    with open(os.path.join(wl.REFERENCE, f"{workload}.json"), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(os.path.join(wl.REFERENCE, f"{workload}.npz"), **arrays)


if __name__ == "__main__":
    cap_blas_threads()
    import_program()
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
