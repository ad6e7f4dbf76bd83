#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at a tiny size (a few sessions, one set-up, one
second), untraced and traced, through perfbench/run.py, and asserts that:

  * every metric BENCHMARK.json names is printed, with its unit;
  * the layers predicted to have no work on a workload read 0;
  * a traced run's stage self times sum to within 10% of its wall-clock;
  * a run with one delivered detection dropped fails the correctness
    check.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metric prefixes that must read 0 on a workload: the layer has
# no work there.
PREDICTED_ZERO = {
    "fleet_replay": ["transform.", "durability.", "cep.composite."],
    "durable_ingest": ["cep.sharded_engine."],
}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")


def run(workload, trace, *extra):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                            timeout=600)
    lines = result.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ", 1)
            value, unit = rest.split(" ")[:2]
            printed[name] = (float(value), unit)
    final = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return result.returncode, printed, final, result.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, printed, final, stderr = run(workload, trace)
            check(code == 0, f"{label}: exit status {code}\n{stderr[-2000:]}")
            if final is None:
                check(False, f"{label}: no result line")
                continue
            check(final["correct"] and final["failed"] == 0,
                  f"{label}: correctness check failed")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in wanted:
                name = metric["name"]
                check(name in printed and printed[name][1] == metric["unit"],
                      f"{label}: {name} not printed with unit {metric['unit']}")
                check(final["metrics"].get(name, {}).get("unit") == metric["unit"],
                      f"{label}: {name} missing from the result line")
            if trace:
                for prefix in PREDICTED_ZERO[workload]:
                    for name, (value, _) in printed.items():
                        if name.startswith(prefix):
                            check(value == 0,
                                  f"{label}: {name} = {value}, predicted 0")
                share = printed.get("trace.stage_sum_share", (0, ""))[0]
                check(0.9 <= share <= 1.1,
                      f"{label}: stage self times sum to {share:.3f} of wall-clock")
            else:
                for name, (value, _) in printed.items():
                    check(value > 0, f"{label}: end-to-end {name} reads {value}")
        code, _, final, _ = run(workload, 0, "--inject-drop")
        check(code == 1 and final is not None and not final["correct"]
              and final["failed"] >= 1,
              f"{workload}: a dropped detection did not fail the check")
        print(f"ok {workload}")
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
