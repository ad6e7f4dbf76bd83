// E5 (paper Sec. 3.3.1): "using many CEP patterns for describing one
// gesture increases detection complexity". Matcher throughput as a
// function of (a) the number of poses per gesture and (b) the number of
// concurrently deployed gesture queries, and (c) the shared multi-pattern
// engine (MultiMatchOperator + PredicateBank) against the per-query
// baseline at 16/64/256 concurrent learned queries.

#include <string>
#include <tuple>
#include <vector>

#include <benchmark/benchmark.h>

#include "cep/matcher.h"
#include "cep/multi_match_operator.h"
#include "query/compiler.h"
#include "exp_util.h"

namespace epl {
namespace {

/// A synthetic n-pose lateral gesture definition.
core::GestureDefinition ChainDefinition(int poses) {
  core::GestureDefinition definition;
  definition.name = "chain";
  definition.joints = {kinect::JointId::kRightHand};
  for (int i = 0; i < poses; ++i) {
    core::PoseWindow pose;
    core::JointWindow window;
    window.center = Vec3(640.0 * i / std::max(1, poses - 1), 150.0, -150.0);
    window.half_width = Vec3(60, 60, 60);
    pose.joints[kinect::JointId::kRightHand] = window;
    pose.max_gap = i == 0 ? 0 : kSecond;
    definition.poses.push_back(pose);
  }
  return definition;
}


void BM_MatcherPosesPerGesture(benchmark::State& state) {
  int poses = static_cast<int>(state.range(0));
  core::GestureDefinition definition = ChainDefinition(poses);
  Result<query::ParsedQuery> parsed = core::GenerateQuery(definition);
  EPL_CHECK(parsed.ok());
  Result<query::CompiledQuery> compiled =
      query::CompileQuery(*parsed, kinect::KinectSchema());
  EPL_CHECK(compiled.ok());
  cep::NfaMatcher matcher(&compiled->pattern);
  const std::vector<stream::Event>& events = bench::MatchWorkload();
  std::vector<cep::PatternMatch> matches;
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      matches.clear();
      matcher.Process(event, &matches);
      benchmark::DoNotOptimize(matches.size());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["poses"] = poses;
}
BENCHMARK(BM_MatcherPosesPerGesture)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_EngineConcurrentQueries(benchmark::State& state) {
  int queries = static_cast<int>(state.range(0));
  stream::StreamEngine engine;
  EPL_CHECK(engine.RegisterStream("kinect", kinect::KinectSchema()).ok());
  uint64_t detections = 0;
  for (int q = 0; q < queries; ++q) {
    core::GestureDefinition definition = ChainDefinition(4);
    definition.name = "chain_" + std::to_string(q);
    definition.source_stream = "kinect";
    // Spread the start windows so queries differ.
    for (size_t i = 0; i < definition.poses.size(); ++i) {
      definition.poses[i]
          .joints[kinect::JointId::kRightHand]
          .center.y += 10.0 * q;
    }
    EPL_CHECK(core::DeployGesture(
                  &engine, definition,
                  [&detections](const cep::Detection&) { ++detections; })
                  .ok());
  }
  const std::vector<stream::Event>& events = bench::MatchWorkload();
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      Status status = engine.Push("kinect", event);
      benchmark::DoNotOptimize(status.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["queries"] = queries;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_EngineConcurrentQueries)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);


/// One fused MultiMatchOperator on "kinect" (batch size 1, default
/// matcher options) hosting every definition's query.
void DeployFused(stream::StreamEngine* engine,
                 const std::vector<core::GestureDefinition>& definitions,
                 const cep::DetectionCallback& callback) {
  Result<query::FusedDeployment> deployment =
      query::DeployFusedOperator(engine, "kinect");
  EPL_CHECK(deployment.ok()) << deployment.status();
  for (const core::GestureDefinition& definition : definitions) {
    Result<query::ParsedQuery> parsed = core::GenerateQuery(definition);
    EPL_CHECK(parsed.ok()) << parsed.status();
    Result<cep::MultiMatchOperator::QuerySpec> spec =
        query::CompileQuerySpec(engine, *parsed, callback);
    EPL_CHECK(spec.ok()) << spec.status();
    deployment->op->AddQuery(std::move(spec).value());
  }
}

/// One-shot cross-check (run once per benchmark registration): the fused
/// deployment must produce exactly the detections of per-query deployment.
void VerifyFusedEquivalence(
    const std::vector<core::GestureDefinition>& definitions,
    const std::vector<stream::Event>& events) {
  using Record = std::tuple<std::string, TimePoint, std::vector<TimePoint>>;
  std::vector<Record> fused, per_query;
  {
    stream::StreamEngine engine;
    EPL_CHECK(engine.RegisterStream("kinect", kinect::KinectSchema()).ok());
    DeployFused(&engine, definitions, [&fused](const cep::Detection& d) {
      fused.emplace_back(d.name, d.time, d.pose_times);
    });
    for (const stream::Event& event : events) {
      EPL_CHECK(engine.Push("kinect", event).ok());
    }
  }
  {
    stream::StreamEngine engine;
    EPL_CHECK(engine.RegisterStream("kinect", kinect::KinectSchema()).ok());
    for (const core::GestureDefinition& definition : definitions) {
      EPL_CHECK(core::DeployGesture(&engine, definition,
                                    [&per_query](const cep::Detection& d) {
                                      per_query.emplace_back(d.name, d.time,
                                                             d.pose_times);
                                    })
                    .ok());
    }
    for (const stream::Event& event : events) {
      EPL_CHECK(engine.Push("kinect", event).ok());
    }
  }
  EPL_CHECK(fused == per_query)
      << "fused deployment diverged from per-query deployment ("
      << fused.size() << " vs " << per_query.size() << " detections)";
  EPL_CHECK(!fused.empty()) << "equivalence workload produced no detections";
}

/// Per-query baseline over the learned workload: N independent operators
/// (DeployGesture deploys one single-query fused operator per gesture, so
/// each has its own bank -- nothing is shared across queries).
void BM_PerQueryMatchersConcurrentQueries(benchmark::State& state) {
  int queries = static_cast<int>(state.range(0));
  std::vector<core::GestureDefinition> definitions =
      bench::LearnedVariants(queries);
  stream::StreamEngine engine;
  EPL_CHECK(engine.RegisterStream("kinect", kinect::KinectSchema()).ok());
  uint64_t detections = 0;
  for (const core::GestureDefinition& definition : definitions) {
    EPL_CHECK(core::DeployGesture(
                  &engine, definition,
                  [&detections](const cep::Detection&) { ++detections; })
                  .ok());
  }
  const std::vector<stream::Event>& events = bench::MatchWorkload();
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      Status status = engine.Push("kinect", event);
      benchmark::DoNotOptimize(status.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["queries"] = queries;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_PerQueryMatchersConcurrentQueries)->Arg(16)->Arg(64)->Arg(256);

/// The shared engine: one fused MultiMatchOperator over a PredicateBank.
void BM_MultiMatcherConcurrentQueries(benchmark::State& state) {
  int queries = static_cast<int>(state.range(0));
  std::vector<core::GestureDefinition> definitions =
      bench::LearnedVariants(queries);
  static bool verified = [] {
    VerifyFusedEquivalence(bench::LearnedVariants(16),
                           bench::MatchWorkload());
    return true;
  }();
  (void)verified;
  stream::StreamEngine engine;
  EPL_CHECK(engine.RegisterStream("kinect", kinect::KinectSchema()).ok());
  uint64_t detections = 0;
  DeployFused(&engine, definitions,
              [&detections](const cep::Detection&) { ++detections; });
  const std::vector<stream::Event>& events = bench::MatchWorkload();
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      Status status = engine.Push("kinect", event);
      benchmark::DoNotOptimize(status.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["queries"] = queries;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_MultiMatcherConcurrentQueries)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
}  // namespace epl
