#include "layers.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "cep/multi_matcher.h"
#include "cep/predicate_bank.h"
#include "cep/sharded_engine.h"
#include "core/query_gen.h"
#include "kinect/skeleton.h"
#include "query/compiler.h"
#include "stream/engine.h"
#include "trace.h"
#include "transform/view.h"
#include "workflow/gesture_runtime.h"

namespace epl::perfbench {

namespace {

using QuerySpec = cep::MultiMatchOperator::QuerySpec;

/// The runtime's session-scoped queries, rebuilt the way
/// GestureRuntime::OpenSession/Deploy build them.
struct QuerySet {
  stream::StreamEngine engine;  // schema resolution only
  std::vector<QuerySpec> specs;
  std::vector<std::shared_ptr<const cep::CompiledPattern>> gates;
  int routing_field = -1;
};

Status BuildQuerySet(const WorkloadSpec& spec,
                     const std::vector<core::GestureDefinition>& definitions,
                     QuerySet* out) {
  stream::Schema schema = spec.transform ? transform::KinectTSchema()
                                         : kinect::KinectSchema();
  schema.AddField(workflow::kSessionFieldName);
  EPL_ASSIGN_OR_RETURN(out->routing_field,
                       schema.FieldIndex(workflow::kSessionFieldName));
  EPL_RETURN_IF_ERROR(
      out->engine.RegisterStream(workflow::kSessionStreamName, schema));
  out->specs.reserve(static_cast<size_t>(spec.sessions) * definitions.size());
  for (int s = 0; s < spec.sessions; ++s) {
    cep::PatternExprPtr pose = cep::PatternExpr::Pose(
        workflow::kSessionStreamName,
        cep::Expr::RangePredicate(workflow::kSessionFieldName,
                                  static_cast<double>(s), 0.5));
    EPL_ASSIGN_OR_RETURN(cep::CompiledPattern gate,
                         cep::CompiledPattern::Compile(*pose, schema));
    out->gates.push_back(
        std::make_shared<const cep::CompiledPattern>(std::move(gate)));
    for (const core::GestureDefinition& definition : definitions) {
      EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                           core::GenerateQuery(definition));
      parsed.pattern =
          parsed.pattern->Rescope(workflow::kSessionStreamName, nullptr);
      EPL_ASSIGN_OR_RETURN(
          QuerySpec query,
          query::CompileQuerySpec(&out->engine, parsed,
                                  [](const cep::Detection&) {},
                                  out->gates.back()));
      query.tag = cep::GestureTag(definition.name);
      query.session_tag = static_cast<double>(s);
      query.session_scoped = true;
      out->specs.push_back(std::move(query));
    }
  }
  return OkStatus();
}

/// Runs `pass` over the replay buffer (timestamps advanced by `period`
/// before every pass after the first) until `min_seconds` of timed passes
/// have elapsed after one untimed warm-up pass. Returns timed ns per event.
template <typename PassFn>
double TimePasses(std::vector<stream::Event>* events, Duration period,
                  double min_seconds, uint64_t* processed, PassFn pass) {
  auto run_pass = [&](bool shift) {
    if (shift) {
      for (stream::Event& event : *events) event.timestamp += period;
    }
    pass(*events);
    *processed += events->size();
  };
  run_pass(false);
  uint64_t timed = 0;
  const int64_t start = NowNs();
  int64_t now = start;
  while (timed == 0 || static_cast<double>(now - start) < min_seconds * 1e9) {
    run_pass(true);
    timed += events->size();
    now = NowNs();
  }
  return static_cast<double>(now - start) / static_cast<double>(timed);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

Result<LayerReport> ReplayLayers(
    const WorkloadSpec& spec,
    const std::vector<core::GestureDefinition>& definitions,
    const std::vector<stream::Event>& captured, Duration period,
    double min_seconds) {
  if (captured.empty()) return InternalError("no captured events to replay");
  LayerReport report;
  const size_t batch = spec.batch_size;
  QuerySet queries;
  EPL_RETURN_IF_ERROR(BuildQuerySet(spec, definitions, &queries));

  // PredicateBank alone: the same predicate set the matcher registers
  // (every query's pose predicates plus every session gate).
  cep::PredicateBank bank;
  for (const QuerySpec& query : queries.specs) bank.RegisterPattern(query.pattern);
  for (const auto& gate : queries.gates) bank.RegisterPattern(*gate);
  bank.Build();
  std::vector<stream::Event> events = captured;
  uint64_t bank_events = 0;
  report.bank_ns_per_event = TimePasses(
      &events, period, min_seconds, &bank_events,
      [&](const std::vector<stream::Event>& window) {
        for (size_t i = 0; i < window.size(); i += batch) {
          bank.EvaluateBatch(&window[i], std::min(batch, window.size() - i));
        }
      });

  // MultiPatternMatcher sweep (bank evaluation + flat NFA loop).
  cep::MultiPatternMatcher matcher;
  for (const QuerySpec& query : queries.specs) {
    matcher.AddPattern(&query.pattern, query.gate.get());
  }
  events = captured;
  uint64_t matcher_events = 0;
  std::vector<cep::MultiPatternMatcher::MultiMatch> matches;
  const double sweep_ns = TimePasses(
      &events, period, min_seconds, &matcher_events,
      [&](const std::vector<stream::Event>& window) {
        for (size_t i = 0; i < window.size(); i += batch) {
          matches.clear();
          matcher.ProcessBatch(&window[i], std::min(batch, window.size() - i),
                               &matches);
        }
      });
  report.matcher_ns_per_event = std::max(0.0, sweep_ns - report.bank_ns_per_event);
  report.events = matcher_events;

  // ShardedEngine with the runtime's channel options: fan-out, shard FIFOs
  // and the watermark merge, driven from this thread as the producer.
  QuerySet sharded_queries;
  EPL_RETURN_IF_ERROR(BuildQuerySet(spec, definitions, &sharded_queries));
  cep::ShardedEngineOptions options;
  options.num_shards = spec.num_shards;
  options.batch_size = spec.batch_size;
  options.placement = cep::ShardPlacement::kSessionAffinity;
  options.routing_field = sharded_queries.routing_field;
  cep::ShardedEngine engine(options);
  for (QuerySpec& query : sharded_queries.specs) engine.AddQuery(std::move(query));
  EPL_RETURN_IF_ERROR(engine.Start());
  events = captured;
  uint64_t pushed = 0;
  std::vector<uint64_t> busy_before;
  int64_t timed_start = 0;
  bool flushed_ok = true;
  auto push_pass = [&](const std::vector<stream::Event>& window) {
    for (const stream::Event& event : window) engine.Push(event);
    flushed_ok = flushed_ok && engine.Flush().ok();
    if (busy_before.empty()) {  // end of the warm-up pass
      busy_before = engine.shard_busy_ns();
      timed_start = NowNs();
    }
  };
  TimePasses(&events, period, min_seconds, &pushed, push_pass);
  const double wall = static_cast<double>(NowNs() - timed_start);
  const std::vector<uint64_t> busy_after = engine.shard_busy_ns();
  double busy_sum = 0;
  for (size_t i = 0; i < busy_after.size() && i < busy_before.size(); ++i) {
    const double share = static_cast<double>(busy_after[i] - busy_before[i]) / wall;
    report.shard_busy_share_max = std::max(report.shard_busy_share_max, share);
    busy_sum += share;
  }
  report.shard_busy_share_mean =
      busy_after.empty() ? 0 : busy_sum / static_cast<double>(busy_after.size());

  uint64_t hits = 0, searches = 0, broadcast = 0, recomputed = 0, reads = 0;
  double peak_runs = 0;
  std::set<int> shards_seen;
  for (const cep::ShardedEngine::QueryStatsSnapshot& query : engine.QueryStats()) {
    reads += query.stats.predicate_cache_hits + query.stats.predicate_evaluations;
    peak_runs += static_cast<double>(query.stats.peak_runs);
    // Co-sharded queries share one bank: count each shard's bank once.
    if (shards_seen.insert(query.shard).second) {
      hits += query.bank.region_memo_hits;
      searches += query.bank.region_searches;
      broadcast += query.bank.batch_broadcast_rows;
      recomputed += query.bank.batch_recomputed_rows;
    }
  }
  EPL_RETURN_IF_ERROR(engine.Stop());
  if (!flushed_ok) return InternalError("sharded replay Flush failed");
  report.memo_hit_ratio = Ratio(hits, hits + searches);
  report.broadcast_row_ratio = Ratio(broadcast, broadcast + recomputed);
  report.predicate_reads_per_event = Ratio(reads, pushed);
  report.peak_runs = peak_runs;
  return report;
}

}  // namespace epl::perfbench
