// Replays of the layers GestureRuntime does not expose.
//
// The runtime owns its PredicateBank, MultiPatternMatcher and ShardedEngine
// privately. The traced run therefore captures one pass of the merged
// `gesture_sessions` stream and replays it through those public classes,
// built from the same session-scoped queries the runtime deployed (same
// generated query, rescoped onto the merged stream, same session gate).
// Composite queries are not part of the replay; their cost is measured
// live (cep.composite.delay_us_p50).

#ifndef EPL_PERFBENCH_LAYERS_H_
#define EPL_PERFBENCH_LAYERS_H_

#include <vector>

#include "common/result.h"
#include "core/gesture_definition.h"
#include "stream/event.h"
#include "workload.h"

namespace epl::perfbench {

struct LayerReport {
  /// PredicateBank::EvaluateBatch per event, one bank over all queries, in
  /// the workload's batch size.
  double bank_ns_per_event = 0;
  /// MultiPatternMatcher::ProcessBatch per event minus the bank.
  double matcher_ns_per_event = 0;
  /// Region memo hits / (hits + searches) and broadcast / (broadcast +
  /// recomputed) batch rows, from the shards' banks.
  double memo_hit_ratio = 0;
  double broadcast_row_ratio = 0;
  /// Bank reads by the NFA loops per event, and the sum of every query's
  /// peak live runs.
  double predicate_reads_per_event = 0;
  double peak_runs = 0;
  /// Sharded workloads: per-shard batch-execution time / replay wall time.
  double shard_busy_share_max = 0;
  double shard_busy_share_mean = 0;
  uint64_t events = 0;
};

/// Replays `captured` (one pass, timestamps shifted forward by `period` per
/// replay pass) for at least `min_seconds` per layer.
Result<LayerReport> ReplayLayers(
    const WorkloadSpec& spec,
    const std::vector<core::GestureDefinition>& definitions,
    const std::vector<stream::Event>& captured, Duration period,
    double min_seconds);

}  // namespace epl::perfbench

#endif  // EPL_PERFBENCH_LAYERS_H_
