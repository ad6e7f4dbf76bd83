// Multi-user serving throughput: N concurrent sessions, each with 16
// learned gesture queries, on one machine. The legacy architecture gives
// every gesture its own per-query operator on the session's own stream;
// the shared GestureRuntime merges all sessions onto ONE stream and hosts
// every query in one fused runtime -- identical gestures dedup in the
// shared predicate bank, and per-session gate groups skip an entire
// foreign session with one predicate read per event, so per-event cost is
// sub-linear in the number of idle sessions.
//
// Startup runs a differential gate: the shared runtime must produce
// bit-identical per-session detections to the legacy per-query deployment
// before anything is measured.

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <benchmark/benchmark.h>

#include "cep/simd.h"
#include "exp_util.h"
#include "kinect/skeleton.h"
#include "workflow/composite.h"
#include "workflow/gesture_runtime.h"

namespace epl {
namespace {

using kinect::SkeletonFrame;
using workflow::GestureRuntime;
using workflow::GestureRuntimeOptions;
using workflow::RuntimeBackend;
using workflow::SessionId;

constexpr int kGesturesPerSession = 16;
constexpr int kMaxSessions = 64;

/// Per-session frame scripts, pre-transformed into kinect_t space (the
/// runtime merges raw session streams; transform_sessions is off). Each
/// session performs the gestures the deployed queries detect, with a
/// per-session seed so values differ across users.
const std::vector<std::vector<SkeletonFrame>>& SessionFrames() {
  static const std::vector<std::vector<SkeletonFrame>>* frames = [] {
    auto* out = new std::vector<std::vector<SkeletonFrame>>();
    transform::TransformConfig config;
    for (int s = 0; s < kMaxSessions; ++s) {
      kinect::SessionBuilder builder(kinect::UserProfile(),
                                     1000 + static_cast<uint64_t>(s));
      builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
      builder.Idle(0.2);
      builder.Perform(kinect::GestureShapes::RaiseHand(), 0.1);
      builder.Idle(0.3);
      std::vector<SkeletonFrame> transformed;
      transformed.reserve(builder.frames().size());
      for (const SkeletonFrame& frame : builder.frames()) {
        transformed.push_back(transform::TransformFrame(frame, config));
      }
      out->push_back(std::move(transformed));
    }
    return out;
  }();
  return *frames;
}

/// Globally timestamp-merged (session, frame) feed over the first
/// `sessions` scripts -- the arrival order a server would see. Stable:
/// ties and within-session order keep ascending session order. Session
/// counts beyond kMaxSessions reuse the scripts round-robin; the session
/// ids (and thus gate groups / routing keys) stay distinct.
std::vector<std::pair<SessionId, const SkeletonFrame*>> BuildFeed(
    int sessions) {
  const std::vector<std::vector<SkeletonFrame>>& frames = SessionFrames();
  std::vector<std::pair<SessionId, const SkeletonFrame*>> feed;
  for (int s = 0; s < sessions; ++s) {
    for (const SkeletonFrame& frame :
         frames[static_cast<size_t>(s) % frames.size()]) {
      feed.emplace_back(s, &frame);
    }
  }
  std::stable_sort(feed.begin(), feed.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->timestamp < b.second->timestamp;
                   });
  return feed;
}

GestureRuntimeOptions MakeOptions(RuntimeBackend backend, size_t batch_size,
                                  int num_shards) {
  GestureRuntimeOptions options;
  options.backend = backend;
  options.batch_size = batch_size;
  options.num_shards = num_shards;
  options.transform_sessions = false;  // frames are pre-transformed
  options.sync_detections = false;     // throughput mode; Flush per pass
  return options;
}

/// Opens `sessions` sessions and deploys the 16-query fleet in each.
std::vector<SessionId> DeployFleet(GestureRuntime* runtime, int sessions,
                                   uint64_t* detections) {
  const std::vector<core::GestureDefinition> definitions =
      bench::LearnedVariants(kGesturesPerSession);
  std::vector<SessionId> ids;
  for (int s = 0; s < sessions; ++s) {
    Result<SessionId> id = runtime->OpenSession("u" + std::to_string(s));
    EPL_CHECK(id.ok()) << id.status();
    for (const core::GestureDefinition& definition : definitions) {
      EPL_CHECK(runtime
                    ->Deploy(*id, definition,
                             [detections](const cep::Detection&) {
                               ++*detections;
                             })
                    .ok());
    }
    ids.push_back(*id);
  }
  return ids;
}

/// Differential gate: per-session detections of the shared runtime vs the
/// legacy per-query deployment, bit-exact and non-empty.
void VerifySessionEquivalence() {
  using Record = std::tuple<int, std::string, TimePoint,
                            std::vector<TimePoint>>;
  const int sessions = 4;
  auto run = [&](RuntimeBackend backend, size_t batch_size) {
    std::vector<Record> records;
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, MakeOptions(backend, batch_size, 1));
    const std::vector<core::GestureDefinition> definitions =
        bench::LearnedVariants(4);
    for (int s = 0; s < sessions; ++s) {
      Result<SessionId> id = runtime.OpenSession("u" + std::to_string(s));
      EPL_CHECK(id.ok()) << id.status();
      for (const core::GestureDefinition& definition : definitions) {
        const int session = *id;
        EPL_CHECK(runtime
                      .Deploy(*id, definition,
                              [&records, session](const cep::Detection& d) {
                                records.emplace_back(session, d.name, d.time,
                                                     d.pose_times);
                              })
                      .ok());
      }
    }
    for (const auto& [session, frame] : BuildFeed(sessions)) {
      EPL_CHECK(runtime.PushFrame(session, *frame).ok());
    }
    EPL_CHECK(runtime.Flush().ok());
    return records;
  };
  const std::vector<Record> legacy =
      run(RuntimeBackend::kLegacyPerQuery, 1);
  const std::vector<Record> fused = run(RuntimeBackend::kFused, 1);
  const std::vector<Record> batched = run(RuntimeBackend::kFused, 32);
  EPL_CHECK(!legacy.empty()) << "equivalence workload produced no detections";
  EPL_CHECK(fused == legacy)
      << "shared runtime diverged from legacy per-query deployment ("
      << fused.size() << " vs " << legacy.size() << " detections)";
  EPL_CHECK(batched == legacy)
      << "batched shared runtime diverged from legacy per-query deployment ("
      << batched.size() << " vs " << legacy.size() << " detections)";
}

/// Batched-vs-per-event dominance at every session count: the batched
/// shared runtime (B=32) must not be slower than the per-event shared
/// runtime on the same feed. Before the SIMD gate grid, batched LOST at
/// 64 sessions (the scalar per-(group, event) grid plus full-window member
/// scans outweighed the sweep amortization); this gate keeps that
/// regression dead. Wall-clock best-of-N with a noise slack for CI.
void VerifyBatchedDominance() {
  constexpr int kPasses = 3;
  constexpr double kSlack = 0.85;  // batched >= 85% of per-event events/s
  for (int sessions : {1, 8, 64}) {
    const std::vector<std::pair<SessionId, const SkeletonFrame*>> feed =
        BuildFeed(sessions);
    auto time_once = [&](size_t batch_size) {
      stream::StreamEngine engine;
      GestureRuntime runtime(
          &engine, MakeOptions(RuntimeBackend::kFused, batch_size, 1));
      uint64_t detections = 0;
      DeployFleet(&runtime, sessions, &detections);
      const auto start = std::chrono::steady_clock::now();
      for (const auto& [session, frame] : feed) {
        Status status = runtime.PushFrame(session, *frame);
        benchmark::DoNotOptimize(status.ok());
      }
      Status status = runtime.Flush();
      benchmark::DoNotOptimize(status.ok());
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      benchmark::DoNotOptimize(detections);
      return seconds;
    };
    // Passes ALTERNATE modes so slow drift of the machine (frequency,
    // cache, a co-tenant ramping up) hits both sides alike instead of
    // biasing whichever mode happened to be timed second.
    double per_event = std::numeric_limits<double>::infinity();
    double batched = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      per_event = std::min(per_event, time_once(1));
      batched = std::min(batched, time_once(32));
    }
    EPL_CHECK(batched <= per_event / kSlack)
        << "batched (B=32) slower than per-event at " << sessions
        << " sessions: " << batched << "s vs " << per_event
        << "s (dispatch: " << cep::simd::DispatchName() << ")";
  }
}

void RunSessions(benchmark::State& state, RuntimeBackend backend,
                 size_t batch_size, int num_shards) {
  static bool verified = [] {
    VerifySessionEquivalence();
    VerifyBatchedDominance();
    // Which kernel table served this run, recorded into the JSON context
    // block so artifact diffs across machines are attributable.
    benchmark::AddCustomContext("simd_dispatch", cep::simd::DispatchName());
    return true;
  }();
  (void)verified;
  const int sessions = static_cast<int>(state.range(0));
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine,
                         MakeOptions(backend, batch_size, num_shards));
  uint64_t detections = 0;
  DeployFleet(&runtime, sessions, &detections);
  const std::vector<std::pair<SessionId, const SkeletonFrame*>> feed =
      BuildFeed(sessions);
  for (auto _ : state) {
    for (const auto& [session, frame] : feed) {
      Status status = runtime.PushFrame(session, *frame);
      benchmark::DoNotOptimize(status.ok());
    }
    Status status = runtime.Flush();
    benchmark::DoNotOptimize(status.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.size()));
  state.counters["sessions"] = sessions;
  state.counters["queries"] = sessions * kGesturesPerSession;
  benchmark::DoNotOptimize(detections);
}

/// Legacy architecture: one per-query operator per gesture per session.
void BM_SessionsLegacyPerQuery(benchmark::State& state) {
  RunSessions(state, RuntimeBackend::kLegacyPerQuery, 1, 1);
}
BENCHMARK(BM_SessionsLegacyPerQuery)->Arg(1)->Arg(8)->Arg(64);

/// Shared runtime, per-event execution (interactive mode).
void BM_SessionsSharedRuntime(benchmark::State& state) {
  RunSessions(state, RuntimeBackend::kFused, 1, 1);
}
BENCHMARK(BM_SessionsSharedRuntime)->Arg(1)->Arg(8)->Arg(64);

/// Shared runtime, batched sweeps (offline replay mode).
void BM_SessionsSharedRuntimeBatched(benchmark::State& state) {
  RunSessions(state, RuntimeBackend::kFused, 32, 1);
}
BENCHMARK(BM_SessionsSharedRuntimeBatched)->Arg(1)->Arg(8)->Arg(64);

/// Shared runtime on the sharded engine (2 shards; on a 1-core container
/// the shards serialize -- this leg is a plumbing record, the multi-core
/// scaling lives in bench_sharded_engine).
void BM_SessionsSharedSharded(benchmark::State& state) {
  RunSessions(state, RuntimeBackend::kSharded, 32, 2);
}
BENCHMARK(BM_SessionsSharedSharded)->Arg(8)->Arg(64);

/// Producer fan-out window for the routed benchmark. Larger than the
/// interactive B=32 default: with 64+ interleaved sessions a 32-event
/// window splits into ~8-event sub-batches per shard, too small for the
/// flat path's sweep amortization; 128 keeps routed sub-batches
/// sweep-sized without changing detections (batch size never affects
/// results -- the startup gate checks fused B=32 against sharded B=128).
constexpr size_t kFanoutBatch = 128;

GestureRuntimeOptions MakeRoutedOptions(bool routed, size_t batch_size,
                                        int num_shards) {
  GestureRuntimeOptions options =
      MakeOptions(RuntimeBackend::kSharded, batch_size, num_shards);
  options.route_session_events = routed;
  options.shard_placement = routed ? cep::ShardPlacement::kSessionAffinity
                                   : cep::ShardPlacement::kBalanced;
  return options;
}

/// One full pass over `sessions` sessions on the sharded backend; returns
/// the fan-out copies enqueued per pushed event (events_routed includes
/// every per-shard copy, so broadcast reads ~num_shards and routed reads
/// ~1 when each event interests exactly one shard).
double MeasureCopiesPerEvent(bool routed, int sessions, int num_shards) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine, MakeRoutedOptions(routed, kFanoutBatch, num_shards));
  uint64_t detections = 0;
  DeployFleet(&runtime, sessions, &detections);
  const std::vector<std::pair<SessionId, const SkeletonFrame*>> feed =
      BuildFeed(sessions);
  for (const auto& [session, frame] : feed) {
    EPL_CHECK(runtime.PushFrame(session, *frame).ok());
  }
  EPL_CHECK(runtime.Flush().ok());
  benchmark::DoNotOptimize(detections);
  const cep::ShardedEngine::EngineStats stats = runtime.ShardedStats();
  return static_cast<double>(stats.events_routed) /
         static_cast<double>(feed.size());
}

/// Startup gate for the routed fan-out path: (a) routed sharded execution
/// at 1 and 4 shards and broadcast sharded execution at 4 shards must all
/// produce bit-identical per-session detections to the fused runtime;
/// (b) at the acceptance workload (64 sessions x 16 gestures x 4 shards)
/// interest routing must cut fan-out copies per event by >= 2x vs
/// broadcast. Both measured numbers land in the JSON context block.
void VerifyRoutedFanout() {
  using Record = std::tuple<int, std::string, TimePoint,
                            std::vector<TimePoint>>;
  const int sessions = 8;
  auto run = [&](const GestureRuntimeOptions& options) {
    std::vector<Record> records;
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, options);
    const std::vector<core::GestureDefinition> definitions =
        bench::LearnedVariants(4);
    for (int s = 0; s < sessions; ++s) {
      Result<SessionId> id = runtime.OpenSession("u" + std::to_string(s));
      EPL_CHECK(id.ok()) << id.status();
      for (const core::GestureDefinition& definition : definitions) {
        const int session = *id;
        EPL_CHECK(runtime
                      .Deploy(*id, definition,
                              [&records, session](const cep::Detection& d) {
                                records.emplace_back(session, d.name, d.time,
                                                     d.pose_times);
                              })
                      .ok());
      }
    }
    for (const auto& [session, frame] : BuildFeed(sessions)) {
      EPL_CHECK(runtime.PushFrame(session, *frame).ok());
    }
    EPL_CHECK(runtime.Flush().ok());
    return records;
  };
  const std::vector<Record> fused =
      run(MakeOptions(RuntimeBackend::kFused, 32, 1));
  EPL_CHECK(!fused.empty()) << "routed-fanout workload produced no detections";
  for (const int shards : {1, 4}) {
    const std::vector<Record> routed = run(MakeRoutedOptions(true, kFanoutBatch, shards));
    EPL_CHECK(routed == fused)
        << "routed sharded runtime diverged from fused at " << shards
        << " shards (" << routed.size() << " vs " << fused.size()
        << " detections)";
  }
  const std::vector<Record> broadcast = run(MakeRoutedOptions(false, kFanoutBatch, 4));
  EPL_CHECK(broadcast == fused)
      << "broadcast sharded runtime diverged from fused (" << broadcast.size()
      << " vs " << fused.size() << " detections)";

  const double routed_copies = MeasureCopiesPerEvent(true, 64, 4);
  const double broadcast_copies = MeasureCopiesPerEvent(false, 64, 4);
  EPL_CHECK(routed_copies * 2.0 <= broadcast_copies)
      << "interest routing saved < 2x fan-out copies at 64 sessions x "
      << kGesturesPerSession << " gestures x 4 shards: " << routed_copies
      << " vs " << broadcast_copies << " copies/event";
  benchmark::AddCustomContext("routed_copies_per_event",
                              std::to_string(routed_copies));
  benchmark::AddCustomContext("broadcast_copies_per_event",
                              std::to_string(broadcast_copies));
}

/// Fan-out cost of the sharded backend under multi-session load:
/// broadcast (every event to every shard, balanced placement) vs interest
/// routing (session-affinity placement, per-shard interest filters).
/// Args: {sessions, shards, routed}. The copies_per_event counter is the
/// average number of per-shard enqueues each pushed event cost;
/// scripts/check_scaling.py asserts routed < broadcast at 4 shards.
void BM_SessionRoutedFanout(benchmark::State& state) {
  static bool verified = [] {
    VerifyRoutedFanout();
    return true;
  }();
  (void)verified;
  const int sessions = static_cast<int>(state.range(0));
  const int num_shards = static_cast<int>(state.range(1));
  const bool routed = state.range(2) != 0;
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine, MakeRoutedOptions(routed, kFanoutBatch, num_shards));
  uint64_t detections = 0;
  DeployFleet(&runtime, sessions, &detections);
  const std::vector<std::pair<SessionId, const SkeletonFrame*>> feed =
      BuildFeed(sessions);
  for (auto _ : state) {
    for (const auto& [session, frame] : feed) {
      Status status = runtime.PushFrame(session, *frame);
      benchmark::DoNotOptimize(status.ok());
    }
    Status status = runtime.Flush();
    benchmark::DoNotOptimize(status.ok());
  }
  const cep::ShardedEngine::EngineStats stats = runtime.ShardedStats();
  const double events = static_cast<double>(state.iterations()) *
                        static_cast<double>(feed.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.size()));
  state.counters["sessions"] = sessions;
  state.counters["queries"] = sessions * kGesturesPerSession;
  state.counters["shards"] = num_shards;
  state.counters["routed"] = routed ? 1 : 0;
  state.counters["copies_per_event"] =
      static_cast<double>(stats.events_routed) / events;
  state.counters["skipped_per_event"] =
      static_cast<double>(stats.events_skipped_by_filter) / events;
  state.counters["fanout_subbatches"] =
      static_cast<double>(stats.fanout_subbatches);
  state.counters["affinity_moves"] = static_cast<double>(stats.affinity_moves);
  state.counters["worker_wakeups_per_event"] =
      static_cast<double>(stats.worker_wakeups) / events;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_SessionRoutedFanout)
    ->Args({64, 1, 0})
    ->Args({64, 1, 1})
    ->Args({64, 4, 0})
    ->Args({64, 4, 1})
    ->Args({256, 1, 0})
    ->Args({256, 1, 1})
    ->Args({256, 4, 0})
    ->Args({256, 4, 1})
    // Wall-clock items/s (the fan-out win is pipeline throughput), with
    // process CPU recorded so the saved per-shard filter work shows up
    // even when shards serialize on a small CI runner.
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Per-query GestureRuntime::Deploy cost of a 64-session x 16-gesture
/// fleet (fused backend; no events flow, so no bank is built). Arg 1: every
/// session deploys the same 16 definitions, so the runtime compiles 16
/// gesture templates and binds the other 1008 deploys to them. Arg 0: each
/// session's definitions carry their own notes, so no two sessions share a
/// template and every deploy generates, rescopes and compiles its query --
/// the per-query cost before templates. scripts/check_scaling.py
/// --runtime-deploy gates shared <= 1/4 of distinct from the same run.
void BM_RuntimeFleetDeploy(benchmark::State& state) {
  constexpr int kSessions = 64;
  const bool shared = state.range(0) != 0;
  const std::vector<core::GestureDefinition> definitions =
      bench::LearnedVariants(kGesturesPerSession);
  std::vector<std::vector<core::GestureDefinition>> fleet(kSessions,
                                                          definitions);
  if (!shared) {
    for (int s = 0; s < kSessions; ++s) {
      for (core::GestureDefinition& definition :
           fleet[static_cast<size_t>(s)]) {
        definition.notes = "session " + std::to_string(s);
      }
    }
  }
  double deploy_ns = 0;
  for (auto _ : state) {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, MakeOptions(RuntimeBackend::kFused, 1, 1));
    std::vector<SessionId> ids;
    for (int s = 0; s < kSessions; ++s) {
      Result<SessionId> id = runtime.OpenSession("u" + std::to_string(s));
      EPL_CHECK(id.ok()) << id.status();
      ids.push_back(*id);
    }
    const auto started = std::chrono::steady_clock::now();
    for (int s = 0; s < kSessions; ++s) {
      for (const core::GestureDefinition& definition :
           fleet[static_cast<size_t>(s)]) {
        Status status =
            runtime.Deploy(ids[static_cast<size_t>(s)], definition, nullptr);
        benchmark::DoNotOptimize(status.ok());
      }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - started;
    state.SetIterationTime(elapsed.count());
    deploy_ns += 1e9 * elapsed.count();
    EPL_CHECK(runtime.num_deployed() ==
              static_cast<size_t>(kSessions * kGesturesPerSession));
  }
  const double queries = kSessions * kGesturesPerSession;
  state.counters["queries"] = queries;
  state.counters["ns_per_query"] =
      deploy_ns / (static_cast<double>(state.iterations()) * queries);
}
BENCHMARK(BM_RuntimeFleetDeploy)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Flat-path guard for composite gestures: with ZERO composites deployed
/// the per-event cost must be unchanged. The composite runner is lazily
/// allocated, so the guard times the worst zero-composite shape -- a
/// runtime that DID deploy a composite once and undeployed it (runner
/// allocated, epoch hooks armed, but inactive) -- against a
/// never-composite runtime on the identical feed, best-of-N with
/// alternating modes (see VerifyBatchedDominance) so machine drift hits
/// both sides alike. The <= 5% ceiling is enforced here at startup, and
/// the recorded overhead_pct counter is re-gated against the main-branch
/// baseline by scripts/bench_compare.py.
void BM_CompositeOverhead(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  const std::vector<std::pair<SessionId, const SkeletonFrame*>> feed =
      BuildFeed(sessions);
  const std::string input_name = bench::LearnedVariants(1)[0].name;
  auto make_runtime = [&](stream::StreamEngine* engine, uint64_t* detections,
                          bool touch_composite) {
    auto runtime = std::make_unique<GestureRuntime>(
        engine, MakeOptions(RuntimeBackend::kFused, 1, 1));
    std::vector<SessionId> ids =
        DeployFleet(runtime.get(), sessions, detections);
    if (touch_composite) {
      workflow::CompositeDefinition definition;
      definition.name = "composite_probe";
      definition.steps.push_back(workflow::CompositeStep{
          static_cast<int>(ids[0]), input_name, 1});
      EPL_CHECK(runtime
                    ->DeployComposite(ids[0], definition,
                                      [](const cep::Detection&) {})
                    .ok());
      EPL_CHECK(runtime->Undeploy(ids[0], "composite_probe").ok());
    }
    return runtime;
  };
  auto push_feed = [&](GestureRuntime* runtime) {
    for (const auto& [session, frame] : feed) {
      Status status = runtime->PushFrame(session, *frame);
      benchmark::DoNotOptimize(status.ok());
    }
    Status status = runtime->Flush();
    benchmark::DoNotOptimize(status.ok());
  };
  auto time_once = [&](bool touch_composite) {
    stream::StreamEngine engine;
    uint64_t detections = 0;
    auto runtime = make_runtime(&engine, &detections, touch_composite);
    const auto start = std::chrono::steady_clock::now();
    push_feed(runtime.get());
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    benchmark::DoNotOptimize(detections);
    return seconds;
  };
  static const double overhead_pct = [&] {
    constexpr int kPasses = 5;
    double never = std::numeric_limits<double>::infinity();
    double touched = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < kPasses; ++pass) {
      never = std::min(never, time_once(false));
      touched = std::min(touched, time_once(true));
    }
    const double pct = 100.0 * (touched / never - 1.0);
    EPL_CHECK(pct <= 5.0)
        << "composite machinery costs the zero-composite flat path " << pct
        << "% (" << touched << "s vs " << never << "s at " << sessions
        << " sessions); the acceptance ceiling is 5%";
    return pct;
  }();

  stream::StreamEngine engine;
  uint64_t detections = 0;
  auto runtime = make_runtime(&engine, &detections, true);
  for (auto _ : state) {
    push_feed(runtime.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.size()));
  state.counters["sessions"] = sessions;
  state.counters["overhead_pct"] = std::max(0.0, overhead_pct);
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_CompositeOverhead)->Arg(8);

}  // namespace
}  // namespace epl
