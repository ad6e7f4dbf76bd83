#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by perfbench/run.py (it writes
them to .bench_build/results/); untraced, full-size runs are compared.
The comparison refuses (exit 2) unless every result was taken on the same
machine with the same toolchain: nproc, CPU model, SIMD dispatch, compiler
and build type must all agree. Otherwise it prints, per workload and
end-to-end metric, both medians, the change, the base's quartile spread
and the bound from BENCHMARK.json, and exits 1 when a metric's median got
worse by more than its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu_model", "simd_dispatch", "compiler", "build_type")


def load(directory):
    results = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and not record.get("tiny"):
            results.append(record)
    return results


def spread(values):
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else None


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("perfbench: no untraced results to compare", file=sys.stderr)
        return 2
    machines = {tuple(r["provenance"].get(k) for k in MACHINE_KEYS)
                for r in base + new}
    if len(machines) != 1:
        print("perfbench: refusing to compare results from different machines "
              "or toolchains:", file=sys.stderr)
        for machine in sorted(machines, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(MACHINE_KEYS, machine)),
                  file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':16s} {'metric':24s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            cur = [r["metrics"][name]["value"] for r in new if r["workload"] == workload]
            old_median, new_median = statistics.median(old), statistics.median(cur)
            change = (new_median - old_median) / old_median if old_median else 0.0
            worse = change if metric["better"] == "lower" else -change
            base_spread = spread(old)
            if worse > bound:
                verdict = "REGRESSED"
                regressed = True
            elif base_spread is not None and base_spread > bound:
                verdict = "unresolved"
            else:
                verdict = "better" if worse < 0 else "within bound"
            spread_text = "n/a" if base_spread is None else f"{base_spread:.3f}"
            print(f"{workload:16s} {name:24s} {old_median:12.5g} {new_median:12.5g} "
                  f"{change:+8.3f} {spread_text:>7s} {bound:6.2f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
