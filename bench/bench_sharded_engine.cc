// Multi-core scaling of the sharded matching runtime: events/s of a
// ShardedEngine at 1/2/4/8 shards x 16-256 concurrent learned gesture
// queries, against the single-threaded fused operator it partitions
// (BM_FusedOperatorConcurrentQueries, the per-shard-count baseline is the
// 1-shard engine). Each shard owns a PredicateBank covering only its slice
// of the queries, so per-shard work shrinks roughly linearly and the
// speedup tracks available cores (a 1-core container serializes the
// shards; CI and the acceptance numbers come from multi-core runners).
//
// BM_ShardedQueryExchange measures the runtime add/remove control path:
// quiesce every shard at an event boundary, deliver pending matches,
// mutate + rebalance, resume (the lazy bank rebuild itself lands on the
// shard workers with the next batch). BM_ShardedFleetDeploy measures the
// same path deploying a whole session fleet, per query.

#include <chrono>
#include <string>
#include <tuple>
#include <vector>

#include <benchmark/benchmark.h>

#include "cep/multi_match_operator.h"
#include "cep/sharded_engine.h"
#include "core/query_gen.h"
#include "query/compiler.h"
#include "exp_util.h"

namespace epl {
namespace {

using bench::LearnedVariants;

/// Pre-rendered kinect_t workload: repeated swipe performances (shared
/// with bench_match_throughput.cc via exp_util.h).
const std::vector<stream::Event>& Workload() { return bench::MatchWorkload(); }

cep::MultiMatchOperator::QuerySpec MakeSpec(
    const core::GestureDefinition& definition, uint64_t* detections) {
  Result<query::ParsedQuery> parsed = core::GenerateQuery(definition);
  EPL_CHECK(parsed.ok()) << parsed.status();
  Result<query::CompiledQuery> compiled =
      query::CompileQuery(*parsed, kinect::KinectSchema());
  EPL_CHECK(compiled.ok()) << compiled.status();
  cep::MultiMatchOperator::QuerySpec spec;
  spec.output_name = std::move(compiled->name);
  spec.pattern = std::move(compiled->pattern);
  spec.measures = std::move(compiled->measures);
  if (detections != nullptr) {
    spec.callback = [detections](const cep::Detection&) { ++*detections; };
  }
  return spec;
}

/// One-shot cross-check: the sharded engine must produce exactly the
/// detections of the fused single-threaded operator, in every scheduling
/// mode (static, work-stealing, work-stealing + pinned workers).
void VerifyShardedEquivalence(int num_shards, bool work_stealing = false,
                              bool pin_workers = false) {
  using Record = std::tuple<std::string, TimePoint, std::vector<TimePoint>>;
  std::vector<core::GestureDefinition> definitions = LearnedVariants(16);
  std::vector<Record> fused;
  std::vector<Record> sharded_records;
  {
    cep::MultiMatchOperator op;
    for (const core::GestureDefinition& definition : definitions) {
      cep::MultiMatchOperator::QuerySpec spec = MakeSpec(definition, nullptr);
      spec.callback = [&fused](const cep::Detection& d) {
        fused.emplace_back(d.name, d.time, d.pose_times);
      };
      op.AddQuery(std::move(spec));
    }
    for (const stream::Event& event : Workload()) {
      EPL_CHECK(op.Process(event).ok());
    }
  }
  {
    cep::ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.work_stealing = work_stealing;
    options.pin_workers = pin_workers;
    cep::ShardedEngine engine(options);
    for (const core::GestureDefinition& definition : definitions) {
      cep::MultiMatchOperator::QuerySpec spec = MakeSpec(definition, nullptr);
      spec.callback = [&sharded_records](const cep::Detection& d) {
        sharded_records.emplace_back(d.name, d.time, d.pose_times);
      };
      engine.AddQuery(std::move(spec));
    }
    EPL_CHECK(engine.Start().ok());
    for (const stream::Event& event : Workload()) {
      EPL_CHECK(engine.Push(event));
    }
    EPL_CHECK(engine.Stop().ok());
  }
  EPL_CHECK(fused == sharded_records)
      << "sharded engine diverged from fused operator (" << fused.size()
      << " vs " << sharded_records.size() << " detections)";
  EPL_CHECK(!fused.empty()) << "equivalence workload produced no detections";
}

/// Single-threaded fused operator baseline over the same query sets.
void BM_FusedOperatorConcurrentQueries(benchmark::State& state) {
  int queries = static_cast<int>(state.range(0));
  std::vector<core::GestureDefinition> definitions = LearnedVariants(queries);
  uint64_t detections = 0;
  cep::MultiMatchOperator op;
  for (const core::GestureDefinition& definition : definitions) {
    op.AddQuery(MakeSpec(definition, &detections));
  }
  const std::vector<stream::Event>& events = Workload();
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      Status status = op.Process(event);
      benchmark::DoNotOptimize(status.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["queries"] = queries;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_FusedOperatorConcurrentQueries)->Arg(16)->Arg(64)->Arg(256);

/// The sharded runtime. args: (shards, queries).
void BM_ShardedEngineConcurrentQueries(benchmark::State& state) {
  int num_shards = static_cast<int>(state.range(0));
  int queries = static_cast<int>(state.range(1));
  static bool verified = [] {
    VerifyShardedEquivalence(1);
    VerifyShardedEquivalence(4);
    VerifyShardedEquivalence(4, /*work_stealing=*/true);
    VerifyShardedEquivalence(4, /*work_stealing=*/true, /*pin_workers=*/true);
    return true;
  }();
  (void)verified;
  std::vector<core::GestureDefinition> definitions = LearnedVariants(queries);
  uint64_t detections = 0;
  cep::ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.batch_size = 64;
  cep::ShardedEngine engine(options);
  for (const core::GestureDefinition& definition : definitions) {
    engine.AddQuery(MakeSpec(definition, &detections));
  }
  EPL_CHECK(engine.Start().ok());
  const std::vector<stream::Event>& events = Workload();
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      bool accepted = engine.Push(event);
      benchmark::DoNotOptimize(accepted);
    }
    EPL_CHECK(engine.Flush().ok());
  }
  EPL_CHECK(engine.Stop().ok());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["shards"] = num_shards;
  state.counters["queries"] = queries;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_ShardedEngineConcurrentQueries)
    ->ArgsProduct({{1, 2, 4, 8}, {16, 64, 256}})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// The CI scaling gate: wall-clock events/s at 1/2/4 shards x 256 queries
/// with work stealing and pinned workers, the two scheduler knobs this row
/// keeps green on a busy runner. scripts/check_scaling.py consumes these
/// rows and fails the build when 4 shards deliver < 2x the 1-shard rate
/// on a multi-core runner, or when any row ran with a worker unpinned.
void BM_ShardedScaleOut(benchmark::State& state) {
  int num_shards = static_cast<int>(state.range(0));
  int queries = static_cast<int>(state.range(1));
  static bool verified = [] {
    for (int shards : {1, 2, 4}) {
      VerifyShardedEquivalence(shards, /*work_stealing=*/true,
                               /*pin_workers=*/true);
    }
    return true;
  }();
  (void)verified;
  std::vector<core::GestureDefinition> definitions = LearnedVariants(queries);
  uint64_t detections = 0;
  cep::ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.batch_size = 64;
  options.work_stealing = true;
  options.pin_workers = true;
  cep::ShardedEngine engine(options);
  for (const core::GestureDefinition& definition : definitions) {
    engine.AddQuery(MakeSpec(definition, &detections));
  }
  EPL_CHECK(engine.Start().ok());
  const std::vector<stream::Event>& events = Workload();
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      bool accepted = engine.Push(event);
      benchmark::DoNotOptimize(accepted);
    }
    EPL_CHECK(engine.Flush().ok());
  }
  const uint64_t stolen = engine.stolen_batches();
  const int pin_failures = engine.pin_failures();
  EPL_CHECK(engine.Stop().ok());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["shards"] = num_shards;
  state.counters["queries"] = queries;
  state.counters["stolen_batches"] = static_cast<double>(stolen);
  state.counters["pin_failures"] = pin_failures;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_ShardedScaleOut)
    ->ArgsProduct({{1, 2, 4}, {256}})
    ->UseRealTime();

/// Runtime gesture exchange on a live sharded stream: one AddQuery +
/// RemoveQuery pair per iteration, with a batch of events streamed in
/// between so the lazy bank rebuild is exercised on the workers.
void BM_ShardedQueryExchange(benchmark::State& state) {
  int num_shards = static_cast<int>(state.range(0));
  int queries = static_cast<int>(state.range(1));
  std::vector<core::GestureDefinition> definitions =
      LearnedVariants(queries + 1);
  uint64_t detections = 0;
  cep::ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.batch_size = 16;
  cep::ShardedEngine engine(options);
  for (int q = 0; q < queries; ++q) {
    engine.AddQuery(MakeSpec(definitions[static_cast<size_t>(q)],
                             &detections));
  }
  EPL_CHECK(engine.Start().ok());
  const std::vector<stream::Event>& events = Workload();
  size_t cursor = 0;
  for (auto _ : state) {
    int id = engine.AddQuery(MakeSpec(definitions.back(), &detections));
    for (int i = 0; i < 32; ++i) {
      engine.Push(events[cursor]);
      cursor = (cursor + 1) % events.size();
    }
    EPL_CHECK(engine.RemoveQuery(id).ok());
  }
  EPL_CHECK(engine.Stop().ok());
  state.counters["shards"] = num_shards;
  state.counters["queries"] = queries;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_ShardedQueryExchange)->ArgsProduct({{1, 4}, {64, 256}});

/// Fleet deploy: `queries` session-scoped queries, 16 per session, added
/// one by one to a 2-shard kSessionAffinity engine -- the placement work
/// of a GestureRuntime fleet start-up or cold restart. The engine is not
/// started: a live deploy adds one quiesce per query, a constant that
/// BM_ShardedQueryExchange measures and that would only blur this row.
/// Reports the mean cost of one AddQuery (ns_per_query; real_time covers
/// the whole deploy, not building the specs). No events flow, so the
/// specs carry the session-scoped routing contract without a gate.
/// scripts/check_scaling.py --deploy-linear gates the per-query cost at
/// 4096 queries to at most 2x the cost at 1024: placement is incremental,
/// so a deploy must stay linear in the fleet size.
void BM_ShardedFleetDeploy(benchmark::State& state) {
  constexpr int kGesturesPerSession = 16;
  const int queries = static_cast<int>(state.range(0));
  std::vector<query::ParsedQuery> gestures;
  for (const core::GestureDefinition& definition :
       LearnedVariants(kGesturesPerSession)) {
    Result<query::ParsedQuery> parsed = core::GenerateQuery(definition);
    EPL_CHECK(parsed.ok()) << parsed.status();
    gestures.push_back(std::move(parsed).value());
  }
  cep::ShardedEngineOptions options;
  options.num_shards = 2;
  options.routing_field = 0;
  options.placement = cep::ShardPlacement::kSessionAffinity;
  double deploy_ns = 0;
  for (auto _ : state) {
    std::vector<cep::MultiMatchOperator::QuerySpec> specs;
    specs.reserve(static_cast<size_t>(queries));
    for (int q = 0; q < queries; ++q) {
      Result<query::CompiledQuery> compiled = query::CompileQuery(
          gestures[static_cast<size_t>(q % kGesturesPerSession)],
          kinect::KinectSchema());
      EPL_CHECK(compiled.ok()) << compiled.status();
      cep::MultiMatchOperator::QuerySpec spec;
      spec.output_name = std::move(compiled->name);
      spec.pattern = std::move(compiled->pattern);
      spec.session_tag = static_cast<double>(q / kGesturesPerSession);
      spec.session_scoped = true;
      specs.push_back(std::move(spec));
    }
    cep::ShardedEngine engine(options);
    const auto started = std::chrono::steady_clock::now();
    for (cep::MultiMatchOperator::QuerySpec& spec : specs) {
      benchmark::DoNotOptimize(engine.AddQuery(std::move(spec)));
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - started;
    state.SetIterationTime(elapsed.count());
    deploy_ns += 1e9 * elapsed.count();
    // Placement fingerprint: equal across commits that place identically.
    state.counters["rebalanced_queries"] =
        static_cast<double>(engine.rebalanced_queries());
    state.counters["affinity_moves"] =
        static_cast<double>(engine.engine_stats().affinity_moves);
  }
  state.counters["queries"] = queries;
  state.counters["ns_per_query"] =
      deploy_ns / (static_cast<double>(state.iterations()) * queries);
}
BENCHMARK(BM_ShardedFleetDeploy)
    ->Arg(1024)
    ->Arg(4096)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace epl
