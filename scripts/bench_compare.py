#!/usr/bin/env python3
"""Bench regression gate: diff fresh BENCH_*.json against a baseline.

Compares the Google Benchmark JSON files produced by the current build
against the same-named files from the latest main-branch run (downloaded
as a CI artifact). Two families of named counters are gated:

  * items_per_second rows (events/s and friends) -- higher is better; a
    drop of more than --tolerance (default 15%) is a regression.
  * overhead_pct counters (the durability bench's WAL overhead, the
    composite bench's zero-composite flat-path overhead) -- lower is
    better; a rise of more than --tolerance relative AND 2 percentage
    points absolute is a regression (the absolute floor keeps jitter on
    small overheads from tripping the gate).

Repetition-aware: multiple "iteration" rows per benchmark are collapsed
to their median before comparison. A missing baseline directory, file,
or row is reported but never fails the build (first run, renamed bench,
new bench). A summary table is written to $GITHUB_STEP_SUMMARY when set.

Besides the artifact-directory baseline, a compact committed baseline is
supported: --write-summary distills a directory of BENCH_*.json into one
small JSON file (just the gated medians), which CI commits back to main
as bench/baseline/BENCH_summary.json after every successful main run.
--baseline-summary uses that file for any bench the artifact baseline is
missing (expired artifact, fork without artifact access, local runs), so
the comparison always has SOME baseline instead of silently skipping.

Rows are only comparable on the same kind of machine and build. Each
bench file's provenance -- nproc, cpu_model, simd_dispatch and
library_build_type, read from the Google Benchmark JSON context (CI
passes nproc and cpu_model as --benchmark_context) -- is recorded in the
compact summary too. A baseline whose provenance differs from the
current file's, or that records none (a summary written before
provenance was recorded), is reported as incomparable and not gated.

Usage:
  bench_compare.py --current DIR --baseline DIR [--tolerance 0.15]
                   [--baseline-summary FILE]
  bench_compare.py --current DIR --write-summary FILE
  bench_compare.py --self-test
"""

import argparse
import glob
import json
import os
import statistics
import sys
import tempfile

OVERHEAD_ABS_FLOOR = 2.0  # percentage points
PROVENANCE_KEYS = ("nproc", "cpu_model", "simd_dispatch",
                   "library_build_type")


def load_metrics(path):
    """Returns {metric_name: median_value}; one metric per gated counter."""
    with open(path) as fh:
        report = json.load(fh)
    samples = {}
    for row in report.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        name = row.get("name", "")
        if "items_per_second" in row:
            samples.setdefault(f"{name} [events/s]", []).append(
                float(row["items_per_second"]))
        if "overhead_pct" in row:
            samples.setdefault(f"{name} [overhead_pct]", []).append(
                float(row["overhead_pct"]))
    return {name: statistics.median(values) for name, values in samples.items()}


def load_provenance(path):
    """BENCH JSON context -> {key: str or None} for PROVENANCE_KEYS."""
    with open(path) as fh:
        context = json.load(fh).get("context", {})
    provenance = {}
    for key in PROVENANCE_KEYS:
        value = context.get(key)
        if value is None and key == "nproc":
            value = context.get("num_cpus")  # set by the library itself
        provenance[key] = None if value is None else str(value)
    return provenance


def provenance_mismatch(base, cur):
    """-> 'key base vs cur' strings for every differing provenance key."""
    base = base or {}
    return [f"{key} {base.get(key)!r} vs {cur.get(key)!r}"
            for key in PROVENANCE_KEYS if base.get(key) != cur.get(key)]


def classify(metric, base, cur, tolerance):
    """-> (status, delta_pct). status: 'ok' | 'regression' | 'improved'."""
    higher_is_better = metric.endswith("[events/s]")
    if higher_is_better:
        delta = (cur - base) / base if base else 0.0
        if delta < -tolerance:
            return "regression", delta
        return ("improved" if delta > tolerance else "ok"), delta
    # overhead_pct: lower is better, guarded by an absolute floor.
    delta = (cur - base) / abs(base) if base else 0.0
    if cur - base > OVERHEAD_ABS_FLOOR and delta > tolerance:
        return "regression", delta
    if base - cur > OVERHEAD_ABS_FLOOR and delta < -tolerance:
        return "improved", delta
    return "ok", delta


def load_summary(path):
    """Committed compact baseline -> ({file_name: {metric: value}},
    {file_name: provenance}); a summary without provenance maps to {}."""
    if not path or not os.path.isfile(path):
        return {}, {}
    with open(path) as fh:
        summary = json.load(fh)
    files = {name: {metric: float(value) for metric, value in metrics.items()}
             for name, metrics in summary.get("files", {}).items()}
    return files, summary.get("provenance", {})


def write_summary(current_dir, path):
    """Distill a directory of BENCH_*.json into the compact baseline file."""
    files, provenance = {}, {}
    for current_path in sorted(glob.glob(os.path.join(current_dir,
                                                      "BENCH_*.json"))):
        metrics = load_metrics(current_path)
        if metrics:
            name = os.path.basename(current_path)
            files[name] = metrics
            provenance[name] = load_provenance(current_path)
    if not files:
        print(f"error: no gated metrics under {current_dir}")
        return 1
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"format": "bench-summary/2", "provenance": provenance,
                   "files": files}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    rows = sum(len(metrics) for metrics in files.values())
    print(f"wrote {path}: {rows} gated metrics from {len(files)} bench files")
    return 0


def compare_dirs(current_dir, baseline_dir, tolerance, baseline_summary=None):
    """-> (markdown_lines, regressions, notes)."""
    lines = ["| benchmark | baseline | current | delta | status |",
             "|---|---:|---:|---:|---|"]
    regressions, notes = [], []
    summary, summary_provenance = load_summary(baseline_summary)
    current_files = sorted(glob.glob(os.path.join(current_dir, "BENCH_*.json")))
    if not current_files:
        notes.append(f"no BENCH_*.json files under {current_dir}")
    for current_path in current_files:
        name = os.path.basename(current_path)
        baseline_path = os.path.join(baseline_dir, name) if baseline_dir \
            else None
        if baseline_path and os.path.isfile(baseline_path):
            base_metrics = load_metrics(baseline_path)
            base_provenance = load_provenance(baseline_path)
        elif name in summary:
            base_metrics = summary[name]
            base_provenance = summary_provenance.get(name)
            notes.append(f"{name}: baseline from committed summary")
        else:
            notes.append(f"{name}: no baseline (first run of this bench?)")
            continue
        if not base_provenance:
            mismatch = ["baseline records no provenance"]
        else:
            mismatch = provenance_mismatch(base_provenance,
                                           load_provenance(current_path))
        if mismatch:
            # Different machine or build: the rows say nothing about the
            # change, so they are shown as incomparable and not gated.
            lines.append(f"| `{name}` | — | — | — | incomparable |")
            notes.append(f"{name}: incomparable baseline, not gated "
                         f"({'; '.join(mismatch)})")
            continue
        cur_metrics = load_metrics(current_path)
        for metric in sorted(cur_metrics):
            if metric not in base_metrics:
                # Rows that exist only in the current run (a new or renamed
                # bench, e.g. fresh SIMD kernel rows) are informational:
                # shown in the table so the number is on record, never gated.
                lines.append(f"| `{metric}` | — | {cur_metrics[metric]:,.1f} "
                             f"| — | new |")
                notes.append(f"{name}: new metric {metric}")
                continue
            base, cur = base_metrics[metric], cur_metrics[metric]
            status, delta = classify(metric, base, cur, tolerance)
            marker = {"ok": "ok", "improved": "improved ✅",
                      "regression": "REGRESSION ❌"}[status]
            lines.append(f"| `{metric}` | {base:,.1f} | {cur:,.1f} "
                         f"| {delta:+.1%} | {marker} |")
            if status == "regression":
                regressions.append(f"{metric}: {base:,.1f} -> {cur:,.1f} "
                                   f"({delta:+.1%})")
    return lines, regressions, notes


def emit(lines, regressions, notes, tolerance):
    body = ["## Bench comparison vs latest main", ""]
    body += lines
    if notes:
        body += ["", *[f"- note: {note}" for note in notes]]
    if regressions:
        body += ["", f"**{len(regressions)} regression(s) beyond "
                     f"{tolerance:.0%}:**",
                 *[f"- {r}" for r in regressions]]
    else:
        body += ["", f"No regressions beyond {tolerance:.0%}."]
    text = "\n".join(body)
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(text + "\n")


def synthetic_report(ips, overhead, extra=None, nproc=4):
    benchmarks = [
        {"name": "BM_ShardedScaleOut/4/256/real_time",
         "run_type": "iteration", "items_per_second": ips},
        {"name": "BM_DurabilityOverhead/64", "run_type": "iteration",
         "overhead_pct": overhead},
        {"name": "BM_CompositeOverhead/8", "run_type": "iteration",
         "items_per_second": ips, "overhead_pct": overhead / 10.0},
    ]
    if extra is not None:
        benchmarks.append({"name": extra, "run_type": "iteration",
                           "items_per_second": ips})
    context = {"num_cpus": 8, "nproc": str(nproc), "cpu_model": "Test CPU",
               "simd_dispatch": "avx2", "library_build_type": "release"}
    return {"context": context, "benchmarks": benchmarks}


def self_test():
    """Prove the gate trips on an injected regression and only then."""
    with tempfile.TemporaryDirectory() as base, \
         tempfile.TemporaryDirectory() as good, \
         tempfile.TemporaryDirectory() as bad:
        with open(os.path.join(base, "BENCH_x.json"), "w") as fh:
            json.dump(synthetic_report(1_000_000.0, 10.0), fh)
        # Within tolerance: -5% throughput, +1 point overhead; plus a row
        # with no baseline counterpart, which must be reported as "new"
        # and must NOT fail the run.
        with open(os.path.join(good, "BENCH_x.json"), "w") as fh:
            json.dump(synthetic_report(950_000.0, 11.0,
                                       extra="BM_BrandNewKernel/32"), fh)
        # Injected regressions: -30% throughput (both items_per_second
        # rows) and durability overhead 10% -> 25%. The composite
        # overhead rises 1.0 -> 2.5 points: above tolerance relatively
        # but under the 2-point absolute floor, so it must NOT trip.
        with open(os.path.join(bad, "BENCH_x.json"), "w") as fh:
            json.dump(synthetic_report(700_000.0, 25.0), fh)

        good_lines, regressions, good_notes = compare_dirs(good, base, 0.15)
        if regressions:
            print(f"self-test FAILED: clean run flagged {regressions}")
            return 1
        new_rows = [line for line in good_lines if "| new |" in line]
        if len(new_rows) != 1 or "BM_BrandNewKernel" not in new_rows[0]:
            print(f"self-test FAILED: baseline-less metric not surfaced as "
                  f"a 'new' table row (got {new_rows})")
            return 1
        if not any("new metric" in note for note in good_notes):
            print("self-test FAILED: baseline-less metric missing from notes")
            return 1
        _, regressions, _ = compare_dirs(bad, base, 0.15)
        if len(regressions) != 3:
            print(f"self-test FAILED: injected regressions not caught "
                  f"(got {regressions})")
            return 1
        # Committed-summary fallback: distill the baseline dir into the
        # compact summary, then compare with NO artifact baseline at all.
        # The same injected regressions must trip via the summary alone.
        summary_path = os.path.join(base, "BENCH_summary.json")
        if write_summary(base, summary_path) != 0:
            print("self-test FAILED: could not write compact summary")
            return 1
        _, regressions, sum_notes = compare_dirs(
            bad, None, 0.15, baseline_summary=summary_path)
        if len(regressions) != 3:
            print(f"self-test FAILED: summary-file baseline missed the "
                  f"injected regressions (got {regressions})")
            return 1
        if not any("committed summary" in note for note in sum_notes):
            print("self-test FAILED: summary fallback not noted")
            return 1
        # Provenance: the same injected regressions against a baseline
        # from another machine (1 core), or against a summary that records
        # no provenance, are reported as incomparable and never gated.
        with tempfile.TemporaryDirectory() as other:
            with open(os.path.join(other, "BENCH_x.json"), "w") as fh:
                json.dump(synthetic_report(1_000_000.0, 10.0, nproc=1), fh)
            lines, regressions, notes = compare_dirs(bad, other, 0.15)
            if regressions or not any("incomparable" in note and
                                      "nproc '1' vs '4'" in note
                                      for note in notes):
                print(f"self-test FAILED: nproc mismatch gated or not "
                      f"reported (regressions {regressions}, notes {notes})")
                return 1
            if not any("| incomparable |" in line for line in lines):
                print("self-test FAILED: incomparable bench missing from "
                      "the table")
                return 1
            legacy_path = os.path.join(other, "BENCH_summary.json")
            with open(summary_path) as fh:
                legacy = json.load(fh)
            legacy.pop("provenance")
            with open(legacy_path, "w") as fh:
                json.dump(legacy, fh)
            _, regressions, notes = compare_dirs(
                bad, None, 0.15, baseline_summary=legacy_path)
            if regressions or not any("records no provenance" in note
                                      for note in notes):
                print(f"self-test FAILED: provenance-less summary gated "
                      f"(regressions {regressions}, notes {notes})")
                return 1
        print("self-test OK: injected regression trips the gate (artifact "
              "and summary baselines), in-tolerance noise does not, and a "
              "baseline from another machine is reported, not gated")
        return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", help="directory with fresh BENCH_*.json")
    parser.add_argument("--baseline",
                        help="directory with baseline BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument("--baseline-summary", metavar="FILE",
                        help="committed compact baseline used for any bench "
                             "the --baseline directory is missing")
    parser.add_argument("--write-summary", metavar="FILE",
                        help="distill --current into the compact baseline "
                             "file and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate on synthetic data and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.write_summary:
        if not args.current:
            parser.error("--write-summary requires --current")
        return write_summary(args.current, args.write_summary)
    if not args.current or not (args.baseline or args.baseline_summary):
        parser.error("--current and --baseline or --baseline-summary are "
                     "required (or --self-test / --write-summary)")
    baseline_dir = args.baseline if args.baseline and \
        os.path.isdir(args.baseline) else None
    if baseline_dir is None and not load_summary(args.baseline_summary)[0]:
        print("no baseline artifact directory and no committed summary; "
              "skipping comparison (first run on this branch?)")
        return 0
    lines, regressions, notes = compare_dirs(args.current, baseline_dir,
                                             args.tolerance,
                                             args.baseline_summary)
    emit(lines, regressions, notes, args.tolerance)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
