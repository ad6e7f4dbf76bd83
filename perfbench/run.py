#!/usr/bin/env python3
"""Runs one workload of the end-to-end gesture-serving benchmark.

    python3 perfbench/run.py --workload durable_ingest --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds the harness and the library from
the checkout's sources into .bench_build (CMake, Release), runs one
workload, checks the run's detections, and prints every metric with its
unit and sample count, then, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics. The full
result, with the machine's provenance, is written to
.bench_build/results/ for perfbench/compare.py.

Exit status: 0 when the run completed and every detection matched the
reference, 1 on a correctness failure, 2 when the benchmark could not be
built or run (nothing is printed on standard output then).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# A run must end within 180 s; the first one in a checkout may also build.
HARNESS_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    # A benchmark runner may point CARGO_TARGET_DIR at the build
    # directory; honour it for this CMake build too.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures (once) and builds the harness; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the build failed")
    command = ["cmake", "--build", str(out), "--target", "perfbench_harness",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("building the harness failed")
    harness = out / "perfbench_harness"
    if not harness.exists():
        fail(f"no harness binary at {harness}")
    return harness


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """The git commit of the checkout, or None outside a git work tree."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the harness is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size (few sessions, one set-up)")
    parser.add_argument("--inject-drop", action="store_true",
                        help="self-test: drop one detection before the check")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        fail("the repository's sources are not in this checkout")

    out = build_dir()
    harness = build(out)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [str(harness), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(out / "work")]
    if args.trace:
        command += ["--trace-out", str(results / f"{stem}.spans.json")]
    if args.tiny:
        command.append("--tiny")
    if args.inject_drop:
        command.append("--inject-drop")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=HARNESS_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish in time")
    if run.returncode != 0:
        fail(f"the harness exited with status {run.returncode}")
    lines = [l for l in run.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail("the harness printed no result")
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    expected_names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(expected_names):
        fail(f"metric names {sorted(metrics)} do not match BENCHMARK.json")
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {metrics[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")

    provenance = dict(result["provenance"])
    provenance.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                       "commit": commit(), "source_digest": source_digest()})
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "provenance": provenance,
              "correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name in expected_names:
        m = metrics[name]
        print(f"metric {name} = {m['value']!r} {m['unit']} (n={m['samples']})")
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": metrics[name]["value"],
                               "unit": metrics[name]["unit"]}
                        for name in expected_names}}
    print(json.dumps(line))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
