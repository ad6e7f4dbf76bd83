#!/usr/bin/env python3
"""CI gate for multi-core scale-out of the sharded matching runtime.

Reads a Google Benchmark JSON file containing BM_ShardedScaleOut rows
(wall-clock, pinned workers, one worker per shard, 256 queries) and fails
when the N-shard configuration does not deliver at least --min-speedup x
the 1-shard wall-clock throughput, or when any row reports
pin_failures > 0: a row whose workers silently ran unpinned does not
measure the configuration the gate is for.

Each row also records host_steal_pct, the hypervisor's steal share of the
host CPU time during the row (not work stealing; the engine has none).
The median is printed beside each shard count's throughput and in the
failure message, so a failing gate shows whether the hypervisor gave the
cores to another guest (load inside the same guest does not show as
steal). It never changes the verdict.

Repetition-aware: with --benchmark_repetitions=K the JSON carries K
"iteration" rows per configuration plus mean/median/stddev aggregates; we
take the median of the iteration rows so one noisy repetition on a shared
runner cannot flip the gate either way.

With --routed-fanout it additionally gates interest routing: the
BM_SessionRoutedFanout rows (bench_gesture_sessions) record how many
per-shard copies each pushed event cost (copies_per_event counter);
at the gate shard count the routed configuration must enqueue strictly
fewer copies per event than broadcast for every session count measured.

With --deploy-linear it additionally gates fleet deploy cost: the
BM_ShardedFleetDeploy rows (bench_sharded_engine) record the mean cost of
one AddQuery (ns_per_query counter) while a session fleet is deployed;
the per-query cost at the largest fleet must be at most DEPLOY_MAX_RATIO
(2x) the cost at the smallest, i.e. deploying stays linear in fleet size
(a quadratic placement path reads ~4x from 1024 to 4096 queries).

With --runtime-deploy it additionally gates gesture templates: the
BM_RuntimeFleetDeploy rows (bench_gesture_sessions) record the mean cost of
one GestureRuntime::Deploy (ns_per_query counter) for a 64-session fleet
whose sessions share their 16 definitions (arg 1) and for one where every
deploy is distinct (arg 0). Both rows come from the same run; the shared
cost must be at most RUNTIME_DEPLOY_MAX_SHARE (1/4) of the distinct cost,
i.e. a shared gesture is compiled once and then only bound.

Usage:
  check_scaling.py BENCH.json [--baseline-shards 1] [--gate-shards 4]
                   [--min-speedup 2.0] [--routed-fanout BENCH_fanout.json]
                   [--deploy-linear BENCH_deploy.json]
                   [--runtime-deploy BENCH_runtime_deploy.json]
"""

import argparse
import json
import re
import statistics
import sys

SCALEOUT_ROW = re.compile(r"^BM_ShardedScaleOut/(\d+)/(\d+)/real_time")
FANOUT_ROW = re.compile(r"^BM_SessionRoutedFanout/(\d+)/(\d+)/(\d+)/")
DEPLOY_ROW = re.compile(r"^BM_ShardedFleetDeploy/(\d+)/")
DEPLOY_MAX_RATIO = 2.0
RUNTIME_DEPLOY_ROW = re.compile(r"^BM_RuntimeFleetDeploy/(\d+)/")
RUNTIME_DEPLOY_MAX_SHARE = 0.25


def load_throughputs(path):
    """Shard count -> median items_per_second over iteration rows, shard
    count -> median host_steal_pct (0 for rows without the counter), and
    the sorted shard counts of the rows that reported pin_failures > 0."""
    with open(path) as fh:
        report = json.load(fh)
    samples = {}
    host_steal = {}
    unpinned = set()
    for row in report.get("benchmarks", []):
        match = SCALEOUT_ROW.match(row.get("name", ""))
        if not match:
            continue
        # Skip mean/median/stddev aggregate rows; we aggregate ourselves.
        if row.get("run_type", "iteration") != "iteration":
            continue
        ips = row.get("items_per_second")
        if ips is None:
            continue
        shards = int(match.group(1))
        samples.setdefault(shards, []).append(float(ips))
        host_steal.setdefault(shards, []).append(
            float(row.get("host_steal_pct", 0.0)))
        if row.get("pin_failures", 0) > 0:
            unpinned.add(shards)
    medians = {shards: statistics.median(values)
               for shards, values in samples.items()}
    steal_medians = {shards: statistics.median(values)
                     for shards, values in host_steal.items()}
    return medians, steal_medians, sorted(unpinned)


def load_fanout_copies(path):
    """(sessions, shards, routed) -> median copies_per_event."""
    with open(path) as fh:
        report = json.load(fh)
    samples = {}
    for row in report.get("benchmarks", []):
        match = FANOUT_ROW.match(row.get("name", ""))
        if not match:
            continue
        if row.get("run_type", "iteration") != "iteration":
            continue
        copies = row.get("copies_per_event")
        if copies is None:
            continue
        key = (int(match.group(1)), int(match.group(2)),
               int(match.group(3)) != 0)
        samples.setdefault(key, []).append(float(copies))
    return {key: statistics.median(values) for key, values in samples.items()}


def check_routed_fanout(path, gate_shards):
    """Routed must enqueue < broadcast copies/event at the gate shard count."""
    copies = load_fanout_copies(path)
    pairs = sorted(sessions for (sessions, shards, routed) in copies
                   if shards == gate_shards and routed
                   and (sessions, shards, False) in copies)
    if not pairs:
        print(f"error: no routed/broadcast BM_SessionRoutedFanout pairs at "
              f"{gate_shards} shards in {path}")
        return 2
    print(f"\n{'sessions':>8} {'broadcast':>11} {'routed':>9}  copies/event "
          f"at {gate_shards} shards")
    failed = False
    for sessions in pairs:
        broadcast = copies[(sessions, gate_shards, False)]
        routed = copies[(sessions, gate_shards, True)]
        verdict = "ok" if routed < broadcast else "FAIL"
        print(f"{sessions:>8} {broadcast:>11.2f} {routed:>9.2f}  {verdict}")
        failed = failed or routed >= broadcast
    if failed:
        print(f"\nFAIL: interest routing did not reduce fan-out copies per "
              f"event vs broadcast at {gate_shards} shards")
        return 1
    print(f"\nOK: routed fan-out enqueues fewer copies/event than broadcast "
          f"at {gate_shards} shards")
    return 0


def load_deploy_costs(path, row_pattern=DEPLOY_ROW):
    """First row argument -> median ns_per_query over iteration rows."""
    with open(path) as fh:
        report = json.load(fh)
    samples = {}
    for row in report.get("benchmarks", []):
        match = row_pattern.match(row.get("name", ""))
        if not match:
            continue
        if row.get("run_type", "iteration") != "iteration":
            continue
        cost = row.get("ns_per_query")
        if cost is None:
            continue
        samples.setdefault(int(match.group(1)), []).append(float(cost))
    return {queries: statistics.median(values)
            for queries, values in samples.items()}


def check_deploy_linear(path):
    """Per-query deploy cost at the largest fleet <= 2x the smallest."""
    costs = load_deploy_costs(path)
    if len(costs) < 2:
        print(f"error: need BM_ShardedFleetDeploy rows at two fleet sizes in "
              f"{path} (have: {sorted(costs)})")
        return 2
    smallest, largest = min(costs), max(costs)
    print(f"\n{'queries':>8} {'ns/query':>10}  fleet deploy")
    for queries in sorted(costs):
        print(f"{queries:>8} {costs[queries]:>10,.0f}")
    ratio = costs[largest] / costs[smallest]
    if ratio > DEPLOY_MAX_RATIO:
        print(f"\nFAIL: per-query deploy cost at {largest} queries is "
              f"{ratio:.2f}x the cost at {smallest} (gate: <= "
              f"{DEPLOY_MAX_RATIO:.2f}x) -- placement is no longer linear")
        return 1
    print(f"\nOK: per-query deploy cost at {largest} queries is {ratio:.2f}x "
          f"the cost at {smallest} (gate: <= {DEPLOY_MAX_RATIO:.2f}x)")
    return 0


def check_runtime_deploy(path):
    """Shared-definition deploys cost <= 1/4 of all-distinct deploys."""
    costs = load_deploy_costs(path, RUNTIME_DEPLOY_ROW)
    if 0 not in costs or 1 not in costs:
        print(f"error: need BM_RuntimeFleetDeploy rows for distinct (0) and "
              f"shared (1) definitions in {path} (have: {sorted(costs)})")
        return 2
    distinct, shared = costs[0], costs[1]
    share = shared / distinct
    print(f"\n{'fleet':>8} {'ns/query':>10}  runtime deploy")
    print(f"{'distinct':>8} {distinct:>10,.0f}")
    print(f"{'shared':>8} {shared:>10,.0f}")
    if share > RUNTIME_DEPLOY_MAX_SHARE:
        print(f"\nFAIL: a deploy of a shared definition costs {share:.2f}x a "
              f"distinct one (gate: <= {RUNTIME_DEPLOY_MAX_SHARE:.2f}x) -- "
              f"shared gestures are no longer compiled once")
        return 1
    print(f"\nOK: a deploy of a shared definition costs {share:.2f}x a "
          f"distinct one (gate: <= {RUNTIME_DEPLOY_MAX_SHARE:.2f}x)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="Google Benchmark JSON output")
    parser.add_argument("--baseline-shards", type=int, default=1)
    parser.add_argument("--gate-shards", type=int, default=4)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--routed-fanout", metavar="BENCH_FANOUT_JSON",
                        help="also gate BM_SessionRoutedFanout copies/event")
    parser.add_argument("--deploy-linear", metavar="BENCH_DEPLOY_JSON",
                        help="also gate BM_ShardedFleetDeploy linearity")
    parser.add_argument("--runtime-deploy", metavar="BENCH_RUNTIME_JSON",
                        help="also gate BM_RuntimeFleetDeploy shared vs "
                             "distinct cost")
    args = parser.parse_args()

    throughputs, host_steal, unpinned = load_throughputs(args.report)
    if not throughputs:
        print(f"error: no BM_ShardedScaleOut iteration rows in {args.report}")
        return 2
    for required in (args.baseline_shards, args.gate_shards):
        if required not in throughputs:
            print(f"error: no BM_ShardedScaleOut rows at {required} shards "
                  f"(have: {sorted(throughputs)})")
            return 2

    baseline = throughputs[args.baseline_shards]
    print(f"{'shards':>8} {'events/s':>14} {'speedup':>9} "
          f"{'host_steal_pct':>15}")
    for shards in sorted(throughputs):
        speedup = throughputs[shards] / baseline
        print(f"{shards:>8} {throughputs[shards]:>14,.0f} {speedup:>8.2f}x "
              f"{host_steal[shards]:>14.1f}%")

    if unpinned:
        print(f"\nFAIL: BM_ShardedScaleOut rows at {unpinned} shards ran with "
              f"pin_failures > 0 -- their workers were not pinned")
        return 1

    speedup = throughputs[args.gate_shards] / baseline
    if speedup < args.min_speedup:
        print(f"\nFAIL: {args.gate_shards}-shard wall-clock throughput is "
              f"{speedup:.2f}x the {args.baseline_shards}-shard baseline "
              f"(gate: >= {args.min_speedup:.2f}x); host steal was "
              f"{host_steal[args.baseline_shards]:.1f}% at "
              f"{args.baseline_shards} and "
              f"{host_steal[args.gate_shards]:.1f}% at {args.gate_shards} "
              f"shards")
        return 1
    print(f"\nOK: {args.gate_shards} shards deliver {speedup:.2f}x "
          f"(gate: >= {args.min_speedup:.2f}x)")

    status = 0
    if args.routed_fanout:
        status = max(status,
                     check_routed_fanout(args.routed_fanout, args.gate_shards))
    if args.deploy_linear:
        status = max(status, check_deploy_linear(args.deploy_linear))
    if args.runtime_deploy:
        status = max(status, check_runtime_deploy(args.runtime_deploy))
    return status


if __name__ == "__main__":
    sys.exit(main())
