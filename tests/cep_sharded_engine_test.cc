// ShardedEngine correctness: a sharded deployment must produce exactly the
// detections of the single-threaded fused deployment -- same records, same
// (event-seq, query-id) order -- for every shard count, batch size, and
// matcher mode, fed directly or through a StreamEngine pushed from a
// producer thread. Plus shard bookkeeping: partitioning, rebalancing on
// skew, lifecycle errors.

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cep/composite.h"
#include "cep/multi_match_operator.h"
#include "cep/pattern.h"
#include "cep/sharded_engine.h"
#include "cep_workload_test_util.h"
#include "core/query_gen.h"
#include "kinect/sensor.h"
#include "query/compiler.h"
#include "stream/engine.h"
#include "test_util.h"

namespace epl::cep {
namespace {

using stream::Event;
using testing::CompileDefinitions;
using testing::DetectionRecord;
using testing::MakeSpec;
using testing::Recorder;
using testing::TrainedDefinitions;
using testing::Workload;

/// Detections of the single-threaded fused operator over `events`:
/// the ground truth order (event, then query registration order).
std::vector<DetectionRecord> FusedBaseline(
    const std::vector<core::GestureDefinition>& definitions,
    const std::vector<Event>& events, MatcherOptions options) {
  MultiMatchOperator op(options);
  std::vector<DetectionRecord> records;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    op.AddQuery(MakeSpec(std::move(compiled), Recorder(&records)));
  }
  for (const Event& event : events) {
    EPL_EXPECT_OK(op.Process(event));
  }
  return records;
}

class ShardedEquivalence
    : public ::testing::TestWithParam<std::tuple<int, size_t, int>> {};

TEST_P(ShardedEquivalence, MatchesFusedDeployment) {
  const int num_shards = std::get<0>(GetParam());
  const size_t batch_size = std::get<1>(GetParam());
  const bool exhaustive = std::get<2>(GetParam()) != 0;

  MatcherOptions matcher_options;
  matcher_options.mode = exhaustive ? MatcherOptions::Mode::kExhaustive
                                    : MatcherOptions::Mode::kDominant;
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(10);
  std::vector<Event> events = Workload(7);
  std::vector<DetectionRecord> expected =
      FusedBaseline(definitions, events, matcher_options);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.batch_size = batch_size;
  options.matcher = matcher_options;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    sharded.AddQuery(MakeSpec(std::move(compiled), Recorder(&actual)));
  }
  EXPECT_EQ(sharded.num_queries(), definitions.size());
  EPL_ASSERT_OK(sharded.Start());
  for (const Event& event : events) {
    ASSERT_TRUE(sharded.Push(event));
  }
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_EQ(sharded.processed(), events.size());
  ASSERT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size() << " detections at "
      << num_shards << " shards";
}

INSTANTIATE_TEST_SUITE_P(
    ShardsBatchesModes, ShardedEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values<size_t>(1, 7, 64),
                       ::testing::Values(0, 1)));

// The pure placement policy behind Rebalance: one greedy weighted step.
TEST(RebalancePolicyTest, BalancedWithinSkewBudgetDoesNotMove) {
  EXPECT_EQ(PickRebalanceVictim({30, 20}, {{7, 10}}, 10), -1);
  EXPECT_EQ(PickRebalanceVictim({20, 20, 20}, {{1, 20}}, 0), -1);
  EXPECT_EQ(PickRebalanceVictim({5}, {{1, 5}}, 0), -1);  // one shard
}

TEST(RebalancePolicyTest, PicksWeightClosestToHalfTheGap) {
  // Gap 40: moving weight 18 leaves a residual gap of 4, better than
  // weight 5 (residual 30) or weight 30 (residual 20).
  EXPECT_EQ(PickRebalanceVictim({60, 20}, {{1, 5}, {2, 18}, {3, 30}}, 10), 2);
}

TEST(RebalancePolicyTest, RefusesMovesThatCannotShrinkTheGap) {
  // Gap 12 exceeds the budget, but moving the only candidate (weight 12)
  // would just mirror the imbalance; the policy keeps the status quo.
  EXPECT_EQ(PickRebalanceVictim({24, 12}, {{5, 12}}, 10), -1);
  // A zero-weight candidate cannot shrink the gap either.
  EXPECT_EQ(PickRebalanceVictim({10, 0}, {{1, 0}}, 5), -1);
}

TEST(RebalancePolicyTest, TieBreaksTowardTheYoungestQuery) {
  EXPECT_EQ(PickRebalanceVictim({40, 0}, {{2, 10}, {9, 10}, {4, 10}}, 5), 9);
}

/// A synthetic `poses`-pose chain gesture: its placement weight
/// (QueryCostWeight: states + distinct bank predicates) scales with the
/// pose count, unlike the uniform TrainedDefinitions.
core::GestureDefinition PosesDefinition(const std::string& name, int poses) {
  core::GestureDefinition definition;
  definition.name = name;
  definition.source_stream = "kinect";
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

TEST(ShardedEngineTest, PlacementBalancesWeightNotCount) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  ShardedEngine sharded(options);
  std::vector<query::CompiledQuery> compiled =
      CompileDefinitions({PosesDefinition("heavy", 8),
                          PosesDefinition("light_a", 2),
                          PosesDefinition("light_b", 2)});
  EXPECT_EQ(QueryCostWeight(compiled[0].pattern), 16u);
  EXPECT_EQ(QueryCostWeight(compiled[1].pattern), 4u);
  std::vector<int> ids;
  for (query::CompiledQuery& query : compiled) {
    ids.push_back(sharded.AddQuery(MakeSpec(std::move(query), nullptr)));
  }
  // Count-only balancing would pair the heavy query with a light one;
  // weighted balancing stacks both light queries opposite it.
  EXPECT_EQ(sharded.shard_of(ids[0]), 0);
  EXPECT_EQ(sharded.shard_of(ids[1]), 1);
  EXPECT_EQ(sharded.shard_of(ids[2]), 1);
  EXPECT_EQ(sharded.shard_weights(), (std::vector<uint64_t>{16, 8}));
  EXPECT_EQ(sharded.shard_query_counts(), (std::vector<size_t>{1, 2}));
}

TEST(ShardedEngineTest, RebalanceNeverResetsQueryStats) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(4);
  std::vector<Event> events = Workload(3);

  ShardedEngineOptions options;
  options.num_shards = 2;
  options.batch_size = 4;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> records;
  std::vector<int> ids;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    ids.push_back(sharded.AddQuery(MakeSpec(std::move(compiled),
                                            Recorder(&records))));
  }
  EPL_ASSERT_OK(sharded.Start());
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Flush());

  std::vector<ShardedEngine::QueryStatsSnapshot> before =
      sharded.QueryStats();
  ASSERT_EQ(before.size(), 4u);
  for (const auto& snapshot : before) {
    EXPECT_EQ(snapshot.stats.events, half) << "query " << snapshot.query_id;
    // The snapshot also carries the shard bank's evaluation counters: the
    // batch_size=4 windows must have split every (field, event) row into
    // broadcast-vs-recomputed.
    EXPECT_GT(snapshot.bank.batch_broadcast_rows +
                  snapshot.bank.batch_recomputed_rows,
              0u)
        << "query " << snapshot.query_id;
  }

  // Empty shard 1: the rebalancer moves a survivor, whose counters must
  // travel with its matcher instead of restarting from zero.
  EPL_ASSERT_OK(sharded.RemoveQuery(ids[1]));
  EPL_ASSERT_OK(sharded.RemoveQuery(ids[3]));
  EXPECT_GT(sharded.rebalanced_queries(), 0u);
  for (size_t i = half; i < events.size(); ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Stop());

  std::vector<ShardedEngine::QueryStatsSnapshot> after = sharded.QueryStats();
  ASSERT_EQ(after.size(), 2u);
  for (const auto& snapshot : after) {
    // Every event of the stream is accounted for despite the mid-stream
    // shard move ...
    EXPECT_EQ(snapshot.stats.events, events.size())
        << "query " << snapshot.query_id;
    // ... and so is every match this query ever produced.
    const std::string& name =
        definitions[static_cast<size_t>(snapshot.query_id)].name;
    size_t delivered = 0;
    for (const DetectionRecord& record : records) {
      delivered += record.name == name ? 1 : 0;
    }
    EXPECT_EQ(snapshot.stats.matches, delivered)
        << "query " << snapshot.query_id;
    EXPECT_GT(snapshot.stats.matches, 0u) << "query " << snapshot.query_id;
  }
}

TEST(ShardedEngineTest, QueriesSpreadAcrossShards) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine sharded(options);
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(8);
  std::vector<int> ids;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    ids.push_back(sharded.AddQuery(MakeSpec(std::move(compiled), nullptr)));
  }
  EXPECT_EQ(sharded.shard_query_counts(), (std::vector<size_t>{2, 2, 2, 2}));
  for (int id : ids) {
    EXPECT_GE(sharded.shard_of(id), 0);
  }
  EXPECT_EQ(sharded.shard_of(99), -1);
}

TEST(ShardedEngineTest, RemovalSkewTriggersRebalance) {
  ShardedEngineOptions options;
  options.num_shards = 4;
  ShardedEngine sharded(options);
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(8);
  std::vector<int> ids;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    ids.push_back(sharded.AddQuery(MakeSpec(std::move(compiled), nullptr)));
  }
  // Ids 0..3 land on shards 0..3 (least-loaded, lowest index first), then
  // 4..7 wrap around; shard 0 hosts {0, 4}.
  ASSERT_EQ(sharded.shard_of(ids[0]), 0);
  ASSERT_EQ(sharded.shard_of(ids[4]), 0);

  EPL_ASSERT_OK(sharded.RemoveQuery(ids[0]));
  // Skew 1 is tolerated.
  EXPECT_EQ(sharded.rebalanced_queries(), 0u);

  EPL_ASSERT_OK(sharded.RemoveQuery(ids[4]));
  // Shard 0 is empty, the rest host 2 each: one query moves over.
  EXPECT_EQ(sharded.rebalanced_queries(), 1u);
  std::vector<size_t> counts = sharded.shard_query_counts();
  EXPECT_EQ(counts, (std::vector<size_t>{1, 1, 2, 2}));

  EXPECT_EQ(sharded.RemoveQuery(ids[0]).code(), StatusCode::kNotFound);
}

TEST(ShardedEngineTest, ShardedDeploymentViaProducerThread) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(6);
  std::vector<Event> events = Workload(13);
  std::vector<DetectionRecord> expected =
      FusedBaseline(definitions, events, MatcherOptions());
  ASSERT_FALSE(expected.empty());

  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  std::vector<DetectionRecord> actual;
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.batch_size = 8;
  EPL_ASSERT_OK_AND_ASSIGN(
      query::ShardedDeployment deployment,
      query::DeployShardedOperator(&engine, "kinect", options));
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    deployment.engine->AddQuery(
        MakeSpec(std::move(compiled), Recorder(&actual)));
  }
  EXPECT_EQ(engine.deployment_count(), 1u);
  EXPECT_TRUE(deployment.engine->running());

  // A thread other than the one that deployed drives the stream.
  Status producer_status;
  size_t pushed = 0;
  std::thread producer([&] {
    for (const Event& event : events) {
      producer_status = engine.Push("kinect", event);
      if (!producer_status.ok()) {
        return;
      }
      ++pushed;
    }
  });
  producer.join();
  EPL_ASSERT_OK(producer_status);
  EXPECT_EQ(pushed, events.size());

  EPL_ASSERT_OK(deployment.engine->Flush());
  EXPECT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size() << " detections";

  // Undeploy stops the shard workers.
  EPL_ASSERT_OK(engine.Undeploy(deployment.id));
  EXPECT_EQ(engine.deployment_count(), 0u);
}

TEST(ShardedEngineTest, AddShardedGestureJoinsLiveDeployment) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(4);
  std::vector<Event> events = Workload(21);

  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  std::vector<DetectionRecord> records;
  std::vector<query::CompiledQuery> compiled = CompileDefinitions(definitions);
  EPL_ASSERT_OK_AND_ASSIGN(query::ShardedDeployment deployment,
                           query::DeployShardedOperator(&engine, "kinect"));
  deployment.engine->AddQuery(
      MakeSpec(std::move(compiled[0]), Recorder(&records)));
  deployment.engine->AddQuery(
      MakeSpec(std::move(compiled[1]), Recorder(&records)));

  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    EPL_ASSERT_OK(engine.Push("kinect", events[i]));
  }
  const int added = deployment.engine->AddQuery(
      MakeSpec(std::move(compiled[2]), Recorder(&records)));
  EXPECT_EQ(deployment.engine->num_queries(), 3u);
  for (size_t i = half; i < events.size(); ++i) {
    EPL_ASSERT_OK(engine.Push("kinect", events[i]));
  }
  EPL_ASSERT_OK(deployment.engine->Flush());
  EXPECT_FALSE(records.empty());
  EPL_ASSERT_OK(deployment.engine->RemoveQuery(added));
  EXPECT_EQ(deployment.engine->num_queries(), 2u);
}

TEST(ShardedEngineTest, CrossThreadExchangeWhileStreaming) {
  // An application thread exchanges queries while a producer thread
  // streams: the control mutex must serialize them (timing-dependent
  // interleaving, so this asserts invariants, not exact match sets; run
  // under ASan/UBSan in CI). One query lives through the whole stream and
  // must keep detecting.
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(6);
  std::vector<Event> events = Workload(31);

  ShardedEngineOptions options;
  options.num_shards = 2;
  options.batch_size = 4;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> survivor_records;
  std::vector<query::CompiledQuery> compiled =
      CompileDefinitions(definitions);
  int survivor_id =
      sharded.AddQuery(MakeSpec(std::move(compiled[0]),
                                Recorder(&survivor_records)));
  EPL_ASSERT_OK(sharded.Start());

  std::thread producer([&sharded, &events] {
    for (int round = 0; round < 3; ++round) {
      for (const Event& event : events) {
        ASSERT_TRUE(sharded.Push(event));
      }
    }
  });
  // Churn the remaining five definitions from this thread.
  for (int round = 0; round < 10; ++round) {
    std::vector<int> ids;
    for (size_t i = 1; i < definitions.size(); ++i) {
      std::vector<query::CompiledQuery> one =
          CompileDefinitions({definitions[i]});
      ids.push_back(sharded.AddQuery(MakeSpec(std::move(one[0]), nullptr)));
    }
    for (int id : ids) {
      EPL_EXPECT_OK(sharded.RemoveQuery(id));
    }
  }
  producer.join();
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_EQ(sharded.num_queries(), 1u);
  EXPECT_EQ(sharded.shard_of(survivor_id) >= 0, true);
  // The survivor detected throughout (3 workload rounds of swipes).
  EXPECT_GT(survivor_records.size(), 0u);
}

/// An n-state chain over field "x": every predicate is an interval around
/// `center` of half-width `width`, with distinct centers so the static
/// weight is states + states distinct predicates.
MultiMatchOperator::QuerySpec ChainSpecX(const std::string& name, int states,
                                         double center, double width,
                                         DetectionCallback callback) {
  static const stream::Schema* schema =
      new stream::Schema(std::vector<std::string>{"x"});
  std::vector<PatternExprPtr> poses;
  for (int s = 0; s < states; ++s) {
    poses.push_back(PatternExpr::Pose(
        "s", Expr::RangePredicate("x", center + 0.001 * s, width)));
  }
  Result<CompiledPattern> compiled = CompiledPattern::Compile(
      *PatternExpr::Sequence(std::move(poses), std::nullopt,
                             WithinMode::kGap),
      *schema);
  EPL_CHECK(compiled.ok()) << compiled.status();
  MultiMatchOperator::QuerySpec spec;
  spec.output_name = name;
  spec.pattern = std::move(compiled).value();
  spec.callback = std::move(callback);
  return spec;
}

TEST(ShardedEngineTest, LifecycleErrors) {
  ShardedEngine sharded;
  EXPECT_EQ(sharded.Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.Stop().code(), StatusCode::kFailedPrecondition);
  EPL_ASSERT_OK(sharded.Start());
  EXPECT_EQ(sharded.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sharded.Push(Event(0, {})));
  EPL_ASSERT_OK(sharded.Flush());
  EPL_ASSERT_OK(sharded.Stop());
  EXPECT_FALSE(sharded.Push(Event(1, {})));
  EXPECT_EQ(sharded.Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sharded.Resize(2).code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Scheduling modes: pinned and unpinned workers must leave detections
// bit-identical to the fused single-threaded operator.

class ShardedScheduling
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardedScheduling, StealingAndPinningMatchFusedDeployment) {
  const int num_shards = std::get<0>(GetParam());
  const bool pin = std::get<1>(GetParam()) != 0;

  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(10);
  std::vector<Event> events = Workload(7);
  std::vector<DetectionRecord> expected =
      FusedBaseline(definitions, events, MatcherOptions());
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.batch_size = 2;  // many small batches: maximal handoff traffic
  options.pin_workers = pin;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    sharded.AddQuery(MakeSpec(std::move(compiled), Recorder(&actual)));
  }
  EPL_ASSERT_OK(sharded.Start());
  for (const Event& event : events) {
    ASSERT_TRUE(sharded.Push(event));
  }
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_EQ(sharded.processed(), events.size());
  ASSERT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size() << " detections at "
      << num_shards << " shards" << (pin ? " (pinned)" : "");
}

INSTANTIATE_TEST_SUITE_P(StealPinSpin, ShardedScheduling,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0, 1)));

// ---------------------------------------------------------------------------
// Skew stress: a deliberately skewed fleet (few expensive hot chains among
// many cheap cold ones) streamed in tiny batches into short FIFOs, so the
// hot shard backs up, the producer blocks on backpressure, and the cold
// shards park and wake on nearly every event. Detections must stay
// bit-identical to the fused operator at every shard count. The
// interleaving is timing-dependent by design -- this is the TSan CI leg's
// main target for the cross-shard scheduler paths (FIFO handoff,
// watermark, backpressure). The suite keeps its historical name from when
// the engine had work stealing.

std::vector<MultiMatchOperator::QuerySpec> SkewedFleet(
    std::vector<DetectionRecord>* records) {
  std::vector<MultiMatchOperator::QuerySpec> fleet;
  // Two 8-state chains that advance on nearly every event (hot + heavy)...
  fleet.push_back(ChainSpecX("hot_0", 8, 1.0, 60.0, Recorder(records)));
  fleet.push_back(ChainSpecX("hot_1", 8, 1.2, 55.0, Recorder(records)));
  // ...vs 14 cheap chains that rarely wake up: per-shard batch cost is
  // dominated by wherever the hot chains land.
  for (int q = 0; q < 14; ++q) {
    fleet.push_back(ChainSpecX("cold_" + std::to_string(q), 3,
                               300.0 + 10.0 * q, 2.0, Recorder(records)));
  }
  return fleet;
}

std::vector<Event> SkewedStream(int count) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(count));
  uint64_t state = 42;
  for (int i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // x in [0, 4): inside the hot windows always, inside a cold window
    // (almost) never.
    const double x = 4.0 * static_cast<double>(state >> 40) /
                     static_cast<double>(1 << 24);
    events.push_back(Event(DurationFromMillis(5.0 * i), {x}));
  }
  return events;
}

TEST(WorkStealingStressTest, SkewedFleetBitIdenticalAcrossShardCounts) {
  std::vector<DetectionRecord> expected;
  {
    MultiMatchOperator fused((MatcherOptions()));
    for (MultiMatchOperator::QuerySpec& spec : SkewedFleet(&expected)) {
      fused.AddQuery(std::move(spec));
    }
    for (const Event& event : SkewedStream(3000)) {
      EPL_EXPECT_OK(fused.Process(event));
    }
  }
  ASSERT_FALSE(expected.empty());

  for (int num_shards : {1, 2, 4, 8}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.batch_size = 1;  // per-event handoff: maximal contention
    options.queue_capacity = 8;
    ShardedEngine sharded(options);
    std::vector<DetectionRecord> actual;
    for (MultiMatchOperator::QuerySpec& spec : SkewedFleet(&actual)) {
      sharded.AddQuery(std::move(spec));
    }
    EPL_ASSERT_OK(sharded.Start());
    for (const Event& event : SkewedStream(3000)) {
      ASSERT_TRUE(sharded.Push(event));
    }
    EPL_ASSERT_OK(sharded.Stop());
    ASSERT_TRUE(actual == expected)
        << actual.size() << " vs " << expected.size() << " detections at "
        << num_shards << " shards under skew stress";
  }
}

// ---------------------------------------------------------------------------
// Composite ladders under skew stress: the same skewed fleet, now tagged
// so a 2-level composite ladder consumes its detections. The base inputs
// span every shard while the hot shard lags the cold ones, so the
// (event-seq, level, query-id) watermark merge is the only thing keeping
// epochs ordered -- any reorder, dropped epoch, or merge/runner race
// diverges from the fused baseline (and trips TSan in the sanitizer CI
// leg, which is this test's main target).

/// A level-`level` composite sequencing the detections of `inputs`.
MultiMatchOperator::QuerySpec CompositeSpec(
    const std::string& name, int level, const std::vector<std::string>& inputs,
    std::vector<DetectionRecord>* records) {
  std::vector<PatternExprPtr> poses;
  for (const std::string& input : inputs) {
    poses.push_back(PatternExpr::Pose(
        kDetectionStreamName,
        Expr::RangePredicate(kDetectionGestureField, GestureTag(input), 0.5)));
  }
  Result<CompiledPattern> compiled = CompiledPattern::Compile(
      *PatternExpr::Sequence(std::move(poses), std::nullopt, WithinMode::kSpan),
      DetectionSchema());
  EPL_CHECK(compiled.ok()) << compiled.status();
  MultiMatchOperator::QuerySpec spec;
  spec.output_name = name;
  spec.pattern = std::move(compiled).value();
  if (records != nullptr) {
    spec.callback = Recorder(records);
  }
  spec.level = level;
  spec.tag = GestureTag(name);
  return spec;
}

std::vector<MultiMatchOperator::QuerySpec> CompositeSkewedFleet(
    std::vector<DetectionRecord>* records) {
  std::vector<MultiMatchOperator::QuerySpec> fleet = SkewedFleet(records);
  for (MultiMatchOperator::QuerySpec& spec : fleet) {
    spec.tag = GestureTag(spec.output_name);
  }
  auto composite = [records](const std::string& name, int level,
                             const std::vector<std::string>& inputs) {
    return CompositeSpec(name, level, inputs, records);
  };
  // High-volume level 1 (one pose: fires on every hot_0 detection), a
  // two-input level 1 whose inputs land on different shards, and a level
  // 2 consuming a composite -- detections of detections.
  fleet.push_back(composite("hot_echo", 1, {"hot_0"}));
  fleet.push_back(composite("pair_of_hots", 1, {"hot_0", "hot_1"}));
  fleet.push_back(composite("meta_pair", 2, {"pair_of_hots"}));
  return fleet;
}

TEST(WorkStealingStressTest, CompositeLaddersBitIdenticalUnderStealing) {
  std::vector<DetectionRecord> expected;
  {
    MultiMatchOperator fused((MatcherOptions()));
    for (MultiMatchOperator::QuerySpec& spec :
         CompositeSkewedFleet(&expected)) {
      fused.AddQuery(std::move(spec));
    }
    for (const Event& event : SkewedStream(3000)) {
      EPL_EXPECT_OK(fused.Process(event));
    }
  }
  ASSERT_FALSE(expected.empty());
  size_t composite_detections = 0;
  for (const DetectionRecord& record : expected) {
    composite_detections += record.name == "hot_echo" ||
                            record.name == "pair_of_hots" ||
                            record.name == "meta_pair";
  }
  ASSERT_GT(composite_detections, 0u)
      << "the skewed stream produced no composite detections";

  for (int num_shards : {1, 2, 4, 8}) {
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    options.batch_size = 1;  // per-event handoff: maximal contention
    options.queue_capacity = 8;
    ShardedEngine sharded(options);
    std::vector<DetectionRecord> actual;
    for (MultiMatchOperator::QuerySpec& spec : CompositeSkewedFleet(&actual)) {
      sharded.AddQuery(std::move(spec));
    }
    EPL_ASSERT_OK(sharded.Start());
    for (const Event& event : SkewedStream(3000)) {
      ASSERT_TRUE(sharded.Push(event));
    }
    EPL_ASSERT_OK(sharded.Stop());
    ASSERT_TRUE(actual == expected)
        << actual.size() << " vs " << expected.size() << " detections at "
        << num_shards << " shards under composite skew stress";
  }
}

// ---------------------------------------------------------------------------
// Fleet resizing.

TEST(ShardedEngineTest, ResizeGrowsAndShrinksPreservingDetections) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(8);
  std::vector<Event> events = Workload(7);
  std::vector<DetectionRecord> expected =
      FusedBaseline(definitions, events, MatcherOptions());
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = 1;
  options.batch_size = 4;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  for (query::CompiledQuery& compiled : CompileDefinitions(definitions)) {
    sharded.AddQuery(MakeSpec(std::move(compiled), Recorder(&actual)));
  }
  EPL_ASSERT_OK(sharded.Start());

  const size_t third = events.size() / 3;
  for (size_t i = 0; i < third; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Resize(4));  // grow mid-stream, mid-gesture
  EXPECT_EQ(sharded.num_shards(), 4);
  for (size_t i = third; i < 2 * third; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Resize(2));  // shrink mid-stream, mid-gesture
  EXPECT_EQ(sharded.num_shards(), 2);
  // Every query survived the migrations under its stable id.
  EXPECT_EQ(sharded.num_queries(), definitions.size());
  for (size_t i = 2 * third; i < events.size(); ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_EQ(sharded.resize_count(), 2u);
  ASSERT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size()
      << " detections across grow + shrink";
}

TEST(ShardedEngineTest, ResizeBeforeStartAndNoopResize) {
  ShardedEngineOptions options;
  options.num_shards = 2;
  ShardedEngine sharded(options);
  sharded.AddQuery(ChainSpecX("a", 3, 1.0, 50.0, nullptr));
  sharded.AddQuery(ChainSpecX("b", 3, 2.0, 50.0, nullptr));
  // Cold resize restructures the fleet before any worker exists.
  EPL_ASSERT_OK(sharded.Resize(3));
  EXPECT_EQ(sharded.num_shards(), 3);
  EPL_ASSERT_OK(sharded.Resize(1));
  EXPECT_EQ(sharded.num_shards(), 1);
  EXPECT_EQ(sharded.num_queries(), 2u);
  // Same-size resizes are free and uncounted.
  EPL_ASSERT_OK(sharded.Resize(1));
  EXPECT_EQ(sharded.resize_count(), 2u);
  // Requests are clamped like the constructor's num_shards.
  EPL_ASSERT_OK(sharded.Resize(0));
  EXPECT_EQ(sharded.num_shards(), 1);
  EPL_ASSERT_OK(sharded.Start());
  EXPECT_TRUE(sharded.Push(Event(0, {1.0})));
  EPL_ASSERT_OK(sharded.Stop());
}

// ---------------------------------------------------------------------------
// Interest-routed fan-out + session-affinity placement: events reach only
// the shards hosting their session's queries, skipped shards advance by
// token, and detections stay bit-identical to broadcast and to the fused
// operator.

constexpr int kRoutedSessions = 4;
constexpr int kRoutedSessionField = 1;

/// An n-state chain over {"x", "session"} gated to one session: the gate
/// admits only events whose trailing session field equals `session`, and
/// the spec carries the engine's (session_tag, session_scoped) routing
/// contract -- exactly what GestureRuntime stamps on session deploys.
MultiMatchOperator::QuerySpec SessionChainSpec(const std::string& name,
                                               int session, int states,
                                               double center, double width,
                                               DetectionCallback callback) {
  static const stream::Schema* schema =
      new stream::Schema(std::vector<std::string>{"x", "session"});
  std::vector<PatternExprPtr> poses;
  for (int s = 0; s < states; ++s) {
    poses.push_back(PatternExpr::Pose(
        "s", Expr::RangePredicate("x", center + 0.001 * s, width)));
  }
  Result<CompiledPattern> compiled = CompiledPattern::Compile(
      *PatternExpr::Sequence(std::move(poses), std::nullopt, WithinMode::kGap),
      *schema);
  EPL_CHECK(compiled.ok()) << compiled.status();
  Result<CompiledPattern> gate = CompiledPattern::Compile(
      *PatternExpr::Pose("s", Expr::RangePredicate(
                                  "session", static_cast<double>(session),
                                  0.5)),
      *schema);
  EPL_CHECK(gate.ok()) << gate.status();
  MultiMatchOperator::QuerySpec spec;
  spec.output_name = name;
  spec.pattern = std::move(compiled).value();
  spec.gate =
      std::make_shared<const CompiledPattern>(std::move(gate).value());
  spec.session_tag = static_cast<double>(session);
  spec.session_scoped = true;
  spec.callback = std::move(callback);
  return spec;
}

/// Two chains per session, all firing on the same x-range so every
/// session produces detections. Weights are equal across sessions (6 + 8),
/// which lets kSessionAffinity pack one session per shard at 4 shards.
std::vector<MultiMatchOperator::QuerySpec> SessionFleet(
    std::vector<DetectionRecord>* records) {
  std::vector<MultiMatchOperator::QuerySpec> fleet;
  for (int k = 0; k < kRoutedSessions; ++k) {
    const std::string tag = "_s" + std::to_string(k);
    fleet.push_back(
        SessionChainSpec("chain_a" + tag, k, 3, 1.0, 50.0, Recorder(records)));
    fleet.push_back(
        SessionChainSpec("chain_b" + tag, k, 4, 1.2, 40.0, Recorder(records)));
  }
  return fleet;
}

/// Pseudo-random x stream with the session id cycling through `sessions`
/// as the trailing field (sessions == 1 pins every event to session 0).
std::vector<Event> SessionStream(int count, int sessions) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(count));
  uint64_t state = 7;
  for (int i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double x = 4.0 * static_cast<double>(state >> 40) /
                     static_cast<double>(1 << 24);
    events.push_back(Event(DurationFromMillis(5.0 * i),
                           {x, static_cast<double>(i % sessions)}));
  }
  return events;
}

std::vector<DetectionRecord> SessionBaseline(const std::vector<Event>& events) {
  std::vector<DetectionRecord> records;
  MultiMatchOperator fused((MatcherOptions()));
  for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&records)) {
    fused.AddQuery(std::move(spec));
  }
  for (const Event& event : events) {
    EPL_EXPECT_OK(fused.Process(event));
  }
  return records;
}

struct RoutedRun {
  std::vector<DetectionRecord> records;
  ShardedEngine::EngineStats stats;
  uint64_t processed = 0;
};

RoutedRun RunSessionFleet(const std::vector<Event>& events,
                          const ShardedEngineOptions& options) {
  ShardedEngine sharded(options);
  RoutedRun run;
  for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&run.records)) {
    sharded.AddQuery(std::move(spec));
  }
  EPL_CHECK(sharded.Start().ok());
  for (const Event& event : events) {
    EPL_CHECK(sharded.Push(event));
  }
  Status stopped = sharded.Stop();
  EPL_CHECK(stopped.ok()) << stopped;
  run.stats = sharded.engine_stats();
  run.processed = sharded.processed();
  return run;
}

/// SessionStream(count, kRoutedSessions) with edge routing keys: every
/// other session-0 event carries -0.0 (which the fused gate admits, so it
/// must reach session 0's shard), and every third session-1 event NaN
/// (which no gate admits, so it reaches no session's queries).
std::vector<Event> EdgeKeySessionStream(int count, size_t* nan_events) {
  std::vector<Event> events = SessionStream(count, kRoutedSessions);
  *nan_events = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    double& key = events[i].values[kRoutedSessionField];
    if (i % 8 == 4) {
      key = -0.0;
    } else if (i % 12 == 5) {
      key = std::numeric_limits<double>::quiet_NaN();
      ++*nan_events;
    }
  }
  return events;
}

TEST(InterestRoutingTest, RoutedMatchesBroadcastBitIdentically) {
  size_t edge_nan_events = 0;
  const std::vector<Event> edge_events =
      EdgeKeySessionStream(2000, &edge_nan_events);
  ASSERT_GT(edge_nan_events, 0u);
  const std::pair<std::vector<Event>, size_t> inputs[] = {
      {SessionStream(2000, kRoutedSessions), 0},
      {edge_events, edge_nan_events}};
  for (const auto& [events, nan_events] : inputs) {
    const std::vector<DetectionRecord> expected = SessionBaseline(events);
    ASSERT_FALSE(expected.empty());

    for (int num_shards : {1, 4}) {
      ShardedEngineOptions broadcast;
      broadcast.num_shards = num_shards;
      broadcast.batch_size = 8;
      const RoutedRun off = RunSessionFleet(events, broadcast);

      ShardedEngineOptions routed = broadcast;
      routed.routing_field = kRoutedSessionField;
      routed.placement = ShardPlacement::kSessionAffinity;
      const RoutedRun on = RunSessionFleet(events, routed);

      EXPECT_EQ(on.processed, events.size());
      ASSERT_TRUE(off.records == expected)
          << off.records.size() << " vs " << expected.size()
          << " broadcast detections at " << num_shards << " shards, "
          << nan_events << " NaN keys";
      ASSERT_TRUE(on.records == expected)
          << on.records.size() << " vs " << expected.size()
          << " routed detections at " << num_shards << " shards, "
          << nan_events << " NaN keys";
      // Broadcast hands every shard the producer's one copy of each
      // window: no sub-batch, nothing skipped.
      EXPECT_EQ(off.stats.events_routed,
                events.size() * static_cast<size_t>(num_shards));
      EXPECT_EQ(off.stats.fanout_subbatches, 0u);
      EXPECT_EQ(off.stats.events_skipped_by_filter, 0u);
      // Affinity packs one session per shard, so a keyed event skips all
      // shards but its session's and a NaN-keyed one skips them all. One
      // shard hosts every session: routing degenerates to full windows
      // sharing the producer's batch, with only NaN keys to skip. At 4
      // shards each 8-event round-robin window splits into 2-event
      // sub-batches: 4x fewer copies.
      const size_t shards = static_cast<size_t>(num_shards);
      EXPECT_EQ(on.stats.events_skipped_by_filter,
                (shards - 1) * (events.size() - nan_events) +
                    shards * nan_events);
      EXPECT_EQ(on.stats.events_routed + on.stats.events_skipped_by_filter,
                off.stats.events_routed);
      if (num_shards == 1 && nan_events == 0) {
        EXPECT_EQ(on.stats.fanout_subbatches, 0u);
      } else {
        EXPECT_GT(on.stats.fanout_subbatches, 0u);
      }
    }
  }
}

// A gated query's MatcherStats count the events its gate admits, not the
// events its shard was handed: fused, sharded at 1 and 4 shards, broadcast
// and routed all report the same figures, and exhaustive mode the same
// `events`.
TEST(InterestRoutingTest, GatedQueryStatsAgreeAcrossBackends) {
  const std::vector<Event> events = SessionStream(2000, kRoutedSessions);
  const auto fused_stats = [&events](MatcherOptions options) {
    std::vector<DetectionRecord> records;
    MultiMatchOperator fused(options, /*batch_size=*/8);
    std::vector<int> ids;
    for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&records)) {
      ids.push_back(fused.AddQuery(std::move(spec)));
    }
    for (const Event& event : events) {
      EPL_EXPECT_OK(fused.Process(event));
    }
    fused.FlushBatchedEvents();
    EXPECT_FALSE(records.empty());
    std::vector<MatcherStats> stats;
    for (int id : ids) {
      stats.push_back(fused.matcher_stats(fused.FindQuery(id)));
    }
    return stats;
  };
  const std::vector<MatcherStats> expected = fused_stats(MatcherOptions());
  MatcherOptions exhaustive;
  exhaustive.mode = MatcherOptions::Mode::kExhaustive;
  const std::vector<MatcherStats> exhaustive_stats = fused_stats(exhaustive);
  ASSERT_EQ(exhaustive_stats.size(), expected.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    // Each session owns every kRoutedSessions-th event.
    EXPECT_EQ(expected[q].events, events.size() / kRoutedSessions);
    EXPECT_EQ(exhaustive_stats[q].events, expected[q].events);
  }

  for (int num_shards : {1, 4}) {
    for (bool routed : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << num_shards << (routed ? " routed" : " broadcast"));
      ShardedEngineOptions options;
      options.num_shards = num_shards;
      options.batch_size = 8;
      if (routed) {
        options.routing_field = kRoutedSessionField;
        options.placement = ShardPlacement::kSessionAffinity;
      }
      std::vector<DetectionRecord> records;
      ShardedEngine sharded(options);
      for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&records)) {
        sharded.AddQuery(std::move(spec));
      }
      EPL_ASSERT_OK(sharded.Start());
      for (const Event& event : events) {
        ASSERT_TRUE(sharded.Push(event));
      }
      const std::vector<ShardedEngine::QueryStatsSnapshot> got =
          sharded.QueryStats();
      EPL_ASSERT_OK(sharded.Stop());
      ASSERT_EQ(got.size(), expected.size());
      for (size_t q = 0; q < expected.size(); ++q) {
        EXPECT_EQ(got[q].stats.events, expected[q].events) << q;
        EXPECT_EQ(got[q].stats.predicate_cache_hits,
                  expected[q].predicate_cache_hits)
            << q;
        EXPECT_EQ(got[q].stats.matches, expected[q].matches) << q;
        EXPECT_EQ(got[q].stats.peak_runs, expected[q].peak_runs) << q;
      }
    }
  }
}

TEST(InterestRoutingTest, AffinityPacksSessionsBalancedSpreadsThem) {
  ShardedEngineOptions options;
  options.num_shards = kRoutedSessions;
  options.routing_field = kRoutedSessionField;
  options.placement = ShardPlacement::kSessionAffinity;
  ShardedEngine sharded(options);
  std::vector<std::pair<int, int>> ids;  // (session, query id)
  for (int k = 0; k < kRoutedSessions; ++k) {
    const std::string tag = "_s" + std::to_string(k);
    ids.emplace_back(
        k, sharded.AddQuery(SessionChainSpec("a" + tag, k, 3, 1.0, 50.0,
                                             nullptr)));
    ids.emplace_back(
        k, sharded.AddQuery(SessionChainSpec("b" + tag, k, 4, 1.2, 40.0,
                                             nullptr)));
  }
  // Every session's queries share one shard, and the four equal-weight
  // sessions land on four distinct shards (no skew to pay for packing).
  std::vector<int> session_shard(kRoutedSessions, -1);
  for (const auto& [session, id] : ids) {
    const int shard = sharded.shard_of(id);
    if (session_shard[static_cast<size_t>(session)] < 0) {
      session_shard[static_cast<size_t>(session)] = shard;
    }
    EXPECT_EQ(shard, session_shard[static_cast<size_t>(session)])
        << "session " << session << " split across shards";
  }
  std::vector<int> sorted = session_shard;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sharded.shard_weights(),
            (std::vector<uint64_t>{14, 14, 14, 14}));
}

TEST(InterestRoutingTest, SkippedShardsAdvanceByTokenWithoutWakeups) {
  // Every event belongs to session 0, so with affinity placement three of
  // the four shards host no interested query at all.
  const std::vector<Event> events = SessionStream(2000, 1);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions broadcast;
  broadcast.num_shards = 4;
  broadcast.batch_size = 8;
  const RoutedRun off = RunSessionFleet(events, broadcast);
  ASSERT_TRUE(off.records == expected);

  ShardedEngineOptions routed = broadcast;
  routed.routing_field = kRoutedSessionField;
  routed.placement = ShardPlacement::kSessionAffinity;
  const RoutedRun on = RunSessionFleet(events, routed);

  ASSERT_TRUE(on.records == expected)
      << on.records.size() << " vs " << expected.size()
      << " detections with three fully skipped shards";
  // The skipped shards receive nothing: a shard holding no window counts
  // as having processed every event pushed, so their watermarks keep up
  // without queue traffic, and the producer signalled far fewer worker
  // wakeups than the 4-destinations-per-window broadcast.
  EXPECT_EQ(on.processed, events.size());
  EXPECT_EQ(on.stats.events_routed, events.size());
  EXPECT_EQ(on.stats.events_skipped_by_filter, 3 * events.size());
  EXPECT_LT(on.stats.worker_wakeups, off.stats.worker_wakeups);
}

TEST(ShardedEngineTest, WakeupsCountEnqueuedShares) {
  // Each shard's one worker takes its next batch without a wake, so the
  // producer signals exactly one wakeup per share it enqueues -- also
  // when two-window FIFOs back up behind the skewed fleet's hot shard.
  const std::vector<Event> skewed = SkewedStream(1000);
  for (int num_shards : {1, 2, 4}) {
    for (size_t batch_size : {size_t{1}, size_t{8}}) {
      ShardedEngineOptions options;
      options.num_shards = num_shards;
      options.batch_size = batch_size;
      options.queue_capacity = 2;
      ShardedEngine sharded(options);
      std::vector<DetectionRecord> records;
      for (MultiMatchOperator::QuerySpec& spec : SkewedFleet(&records)) {
        sharded.AddQuery(std::move(spec));
      }
      EPL_ASSERT_OK(sharded.Start());
      for (const Event& event : skewed) {
        ASSERT_TRUE(sharded.Push(event));
      }
      EPL_ASSERT_OK(sharded.Stop());
      const ShardedEngine::EngineStats stats = sharded.engine_stats();
      EXPECT_EQ(stats.fanout_batches,
                (skewed.size() + batch_size - 1) / batch_size);
      EXPECT_EQ(stats.worker_wakeups,
                stats.fanout_batches * static_cast<uint64_t>(num_shards))
          << "broadcast at " << num_shards << " shards, batch "
          << batch_size;
    }
  }

  // Routed, every event from one session: each window has exactly one
  // destination shard, so one wakeup per window.
  const std::vector<Event> one_session = SessionStream(2000, 1);
  for (size_t batch_size : {size_t{1}, size_t{8}}) {
    ShardedEngineOptions options;
    options.num_shards = 4;
    options.batch_size = batch_size;
    options.queue_capacity = 2;
    options.routing_field = kRoutedSessionField;
    options.placement = ShardPlacement::kSessionAffinity;
    const RoutedRun run = RunSessionFleet(one_session, options);
    EXPECT_EQ(run.stats.events_routed, one_session.size());
    EXPECT_EQ(run.stats.worker_wakeups, run.stats.fanout_batches)
        << "routed, batch " << batch_size;
  }
}

TEST(InterestRoutingTest, FlippedInterestBitLosesExactlyThatSession) {
  // Mutation test backing the differential-fuzz leg: routing is only
  // trustworthy if a single wrong interest bit visibly diverges.
  const std::vector<Event> events = SessionStream(2000, kRoutedSessions);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = 4;
  options.batch_size = 8;
  options.routing_field = kRoutedSessionField;
  options.placement = ShardPlacement::kSessionAffinity;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  int mutated_session_query = -1;
  for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&actual)) {
    const bool mutated = spec.session_tag == 2.0;
    const int id = sharded.AddQuery(std::move(spec));
    if (mutated && mutated_session_query < 0) {
      mutated_session_query = id;
    }
  }
  ASSERT_GE(mutated_session_query, 0);
  // Drop session 2's true interest bit: its events now bypass the shard
  // hosting its queries (no rebuild runs during a pure Push stream).
  sharded.TestOnlyFlipInterestBit(2.0, sharded.shard_of(
                                           mutated_session_query));
  EPL_ASSERT_OK(sharded.Start());
  for (const Event& event : events) {
    ASSERT_TRUE(sharded.Push(event));
  }
  EPL_ASSERT_OK(sharded.Stop());

  // Session 2's detections vanish; every other session is untouched.
  std::vector<DetectionRecord> without_s2;
  for (const DetectionRecord& record : expected) {
    if (record.name.find("_s2") == std::string::npos) {
      without_s2.push_back(record);
    }
  }
  ASSERT_LT(without_s2.size(), expected.size())
      << "baseline produced no session-2 detections to lose";
  EXPECT_TRUE(actual == without_s2)
      << actual.size() << " vs " << without_s2.size()
      << " detections after dropping session 2's interest bit";
}

TEST(InterestRoutingTest, ResizePreservesRoutingAndAffinity) {
  const std::vector<Event> events = SessionStream(2100, kRoutedSessions);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = 1;
  options.batch_size = 8;
  options.routing_field = kRoutedSessionField;
  options.placement = ShardPlacement::kSessionAffinity;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  std::vector<std::pair<int, int>> ids;  // (session, query id)
  {
    std::vector<MultiMatchOperator::QuerySpec> fleet = SessionFleet(&actual);
    for (size_t q = 0; q < fleet.size(); ++q) {
      const int session = static_cast<int>(fleet[q].session_tag);
      ids.emplace_back(session, sharded.AddQuery(std::move(fleet[q])));
    }
  }
  EPL_ASSERT_OK(sharded.Start());
  const size_t third = events.size() / 3;
  for (size_t i = 0; i < third; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Resize(4));  // grow: interest index must follow
  for (size_t i = third; i < 2 * third; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Resize(2));  // shrink: sessions re-pack onto survivors
  for (size_t i = 2 * third; i < events.size(); ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Stop());

  ASSERT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size()
      << " detections across routed grow + shrink";
  // Post-shrink the four sessions still live un-split on the two
  // survivors (affinity-preserving migration).
  std::vector<int> session_shard(kRoutedSessions, -1);
  for (const auto& [session, id] : ids) {
    const int shard = sharded.shard_of(id);
    if (session_shard[static_cast<size_t>(session)] < 0) {
      session_shard[static_cast<size_t>(session)] = shard;
    }
    EXPECT_EQ(shard, session_shard[static_cast<size_t>(session)])
        << "session " << session << " split across shards after shrink";
  }
}

TEST(InterestRoutingTest, WindowPoolStaysBoundedUnderBackpressure) {
  // FIFOs two windows deep keep a burst blocked on backpressure most of
  // the time, while full windows and routed sub-batches cycle through the
  // window pool. The pool must never keep more spare windows than the
  // FIFOs, executors and producer can hold -- also after the fleet
  // shrinks -- and recycling must leave the detections exact.
  const std::vector<Event> events = SessionStream(3000, kRoutedSessions);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = 3;
  options.batch_size = 4;
  options.queue_capacity = 2;
  options.routing_field = kRoutedSessionField;
  options.placement = ShardPlacement::kSessionAffinity;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&actual)) {
    sharded.AddQuery(std::move(spec));
  }
  EXPECT_EQ(sharded.max_spare_windows(), 3u * (2 + 1) + 2);
  EPL_ASSERT_OK(sharded.Start());
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
    ASSERT_LE(sharded.spare_windows(), sharded.max_spare_windows());
  }
  EPL_ASSERT_OK(sharded.Flush());
  EXPECT_GT(sharded.spare_windows(), 0u) << "no window came back to the pool";
  EPL_ASSERT_OK(sharded.Resize(1));
  EXPECT_EQ(sharded.max_spare_windows(), 1u * (2 + 1) + 2);
  EXPECT_LE(sharded.spare_windows(), sharded.max_spare_windows());
  for (size_t i = half; i < events.size(); ++i) {
    ASSERT_TRUE(sharded.Push(events[i]));
    ASSERT_LE(sharded.spare_windows(), sharded.max_spare_windows());
  }
  EPL_ASSERT_OK(sharded.Stop());
  EXPECT_GT(sharded.engine_stats().fanout_subbatches, 0u);
  EXPECT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size()
      << " detections through recycled windows";
}

TEST(ShardedEngineTest, ControlCallsFromAnotherThreadKeepDetectionsExact) {
  // A producer thread streams routed sessions into two-window FIFOs while
  // this thread keeps reading stats, exporting run state, resizing and
  // flushing, so control calls keep landing on non-empty FIFOs and busy
  // shards. Each call quiesces at an exact event boundary, so
  // the detections must still equal the fused baseline record for record.
  const std::vector<Event> events = SessionStream(4000, kRoutedSessions);
  const std::vector<DetectionRecord> expected = SessionBaseline(events);
  ASSERT_FALSE(expected.empty());

  ShardedEngineOptions options;
  options.num_shards = 3;
  options.batch_size = 4;
  options.queue_capacity = 2;
  options.routing_field = kRoutedSessionField;
  options.placement = ShardPlacement::kSessionAffinity;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> actual;
  for (MultiMatchOperator::QuerySpec& spec : SessionFleet(&actual)) {
    sharded.AddQuery(std::move(spec));
  }
  EPL_ASSERT_OK(sharded.Start());

  std::atomic<bool> done{false};
  bool pushed_all = true;
  std::thread producer([&] {
    for (const Event& event : events) {
      pushed_all = sharded.Push(event) && pushed_all;
    }
    done.store(true);
  });
  const size_t num_queries = sharded.num_queries();
  for (int k = 0; !done.load() || k < 4; ++k) {
    EXPECT_EQ(sharded.QueryStats().size(), num_queries);
    EPL_EXPECT_OK(sharded.ExportRunStates().status());
    EPL_EXPECT_OK(sharded.Resize(1 + k % 4));
    EPL_EXPECT_OK(sharded.Flush());
  }
  producer.join();
  EPL_ASSERT_OK(sharded.Stop());

  EXPECT_TRUE(pushed_all);
  EXPECT_EQ(sharded.processed(), events.size());
  EXPECT_LE(sharded.spare_windows(), sharded.max_spare_windows());
  EXPECT_TRUE(actual == expected)
      << actual.size() << " vs " << expected.size()
      << " detections under cross-thread control calls";
}

// ---------------------------------------------------------------------------
// Incremental placement index: placement decisions pinned step by step
// against recorded values, and the index's shard weights checked against a
// full per-query sum after random control sequences.

constexpr int kPlacementSessions = 5;

/// Shape of one scripted query: a `states`-state chain over x, gated to
/// `session` (session < 0: unscoped, a wildcard of routed fan-out).
struct PlacementQuery {
  int session = 0;
  int states = 2;
  double center = 0;
  double width = 0;
};

MultiMatchOperator::QuerySpec PlacementSpec(const PlacementQuery& query) {
  MultiMatchOperator::QuerySpec spec =
      SessionChainSpec("placed", std::max(0, query.session), query.states,
                       query.center, query.width, nullptr);
  if (query.session < 0) {
    spec.gate = nullptr;
    spec.session_scoped = false;
  }
  return spec;
}

/// Drives a started, composite-free engine through seeded control
/// operations: AddQuery (mostly session-scoped, 2-6 states, so weights
/// differ per query), RemoveQuery, RestoreQuery of a live query's exported
/// run state, Resize to 1-4 shards, bursts of Push, QueryStats and
/// ResetMatchers. With `push_events` false a push step draws the same
/// random numbers but pushes nothing, so two scripts of one seed differ in
/// their traffic only.
class PlacementScript {
 public:
  PlacementScript(ShardedEngine* engine, uint64_t seed,
                  bool push_events = true)
      : engine_(engine), state_(seed), push_events_(push_events) {}

  /// Runs one operation; returns its name.
  std::string Step() {
    const uint64_t op = Next() % 20;
    if (op < 7 || op == 19 || live_.empty()) {
      PlacementQuery query;
      query.session =
          Next() % 5 == 0 ? -1 : static_cast<int>(Next() % kPlacementSessions);
      query.states = 2 + static_cast<int>(Next() % 5);
      query.center = 0.5 + 0.5 * static_cast<double>(Next() % 7);
      query.width = std::vector<double>{0.2, 0.5, 1.0, 3.0}[Next() % 4];
      live_.emplace(engine_->AddQuery(PlacementSpec(query)), query);
      return "add";
    }
    if (op < 9) {
      auto victim = live_.begin();
      std::advance(victim, static_cast<long>(Next() % live_.size()));
      EPL_CHECK(engine_->RemoveQuery(victim->first).ok());
      live_.erase(victim);
      return "remove";
    }
    if (op == 9) {
      Result<std::vector<std::pair<int, NfaRunState>>> states =
          engine_->ExportRunStates();
      EPL_CHECK(states.ok()) << states.status();
      const auto& [source, runs] = (*states)[Next() % states->size()];
      const PlacementQuery query = live_.at(source);
      Result<int> restored = engine_->RestoreQuery(PlacementSpec(query), runs);
      EPL_CHECK(restored.ok()) << restored.status();
      live_.emplace(*restored, query);
      return "restore";
    }
    if (op < 12) {
      EPL_CHECK(engine_->Resize(1 + static_cast<int>(Next() % 4)).ok());
      return "resize";
    }
    if (op < 17) {
      for (int i = 0; i < 40; ++i, ++pushed_) {
        const double x = 4.0 * static_cast<double>(Next() >> 40) /
                         static_cast<double>(1 << 24);
        if (!push_events_) {
          continue;
        }
        EPL_CHECK(engine_->Push(
            Event(DurationFromMillis(5.0 * static_cast<double>(pushed_)),
                  {x, static_cast<double>(pushed_ % kPlacementSessions)})));
      }
      return "push";
    }
    if (op == 17) {
      engine_->QueryStats();
      return "stats";
    }
    engine_->ResetMatchers();
    return "reset";
  }

  /// Live query ids, ascending.
  std::vector<int> live_ids() const {
    std::vector<int> ids;
    for (const auto& [id, query] : live_) {
      ids.push_back(id);
    }
    return ids;
  }

 private:
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }

  ShardedEngine* engine_;
  uint64_t state_;
  bool push_events_;
  uint64_t pushed_ = 0;
  std::map<int, PlacementQuery> live_;
};

ShardedEngineOptions PlacementOptions(ShardPlacement placement) {
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.batch_size = 8;
  options.routing_field = kRoutedSessionField;
  options.placement = placement;
  return options;
}

/// One line per step: the operation, every live query's shard (in id
/// order), the shard weights, rebalanced_queries and affinity_moves.
std::vector<std::string> PlacementTrace(ShardPlacement placement) {
  ShardedEngine engine(PlacementOptions(placement));
  EPL_CHECK(engine.Start().ok());
  PlacementScript script(&engine, 2014);
  std::vector<std::string> trace;
  for (int step = 0; step < 64; ++step) {
    std::string line = script.Step() + " s=";
    for (int id : script.live_ids()) {
      line += std::to_string(engine.shard_of(id));
    }
    line += " w=";
    for (uint64_t weight : engine.shard_weights()) {
      line += std::to_string(weight) + ",";
    }
    line += " r=" + std::to_string(engine.rebalanced_queries()) +
            " a=" + std::to_string(engine.engine_stats().affinity_moves);
    trace.push_back(std::move(line));
  }
  EPL_CHECK(engine.Stop().ok());
  return trace;
}

/// PlacementTrace of fixed-weight placement, recorded from the last build
/// that still re-weighed queries from matcher statistics, with its
/// measured weight patched to return the static QueryCostWeight (the same
/// decisions, reached through the older refresh path).
const char* const kBalancedGolden[] = {
    "add s=0 w=8,0,0, r=0 a=0",
    "restore s=01 w=8,8,0, r=0 a=0",
    "add s=012 w=8,8,6, r=0 a=0",
    "add s=0102 w=14,8,12, r=1 a=0",
    "push s=0102 w=14,8,12, r=1 a=0",
    "remove s=012 w=8,8,6, r=2 a=0",
    "push s=012 w=8,8,6, r=2 a=0",
    "stats s=012 w=8,8,6, r=2 a=0",
    "add s=0122 w=8,8,16, r=2 a=0",
    "add s=01220 w=12,8,16, r=2 a=0",
    "add s=012201 w=12,16,16, r=2 a=0",
    "remove s=12200 w=12,8,16, r=3 a=0",
    "resize s=11000 w=22,14, r=3 a=0",
    "add s=110001 w=22,18, r=3 a=0",
    "remove s=11001 w=12,18, r=3 a=0",
    "push s=11001 w=12,18, r=3 a=0",
    "reset s=11001 w=12,18, r=3 a=0",
    "push s=11001 w=12,18, r=3 a=0",
    "reset s=11001 w=12,18, r=3 a=0",
    "remove s=1001 w=10,12, r=4 a=0",
    "push s=1001 w=10,12, r=4 a=0",
    "push s=1001 w=10,12, r=4 a=0",
    "add s=10110 w=16,16, r=5 a=0",
    "push s=10110 w=16,16, r=5 a=0",
    "add s=111100 w=20,22, r=6 a=0",
    "add s=1111000 w=26,22, r=6 a=0",
    "add s=11110001 w=26,28, r=6 a=0",
    "add s=111100010 w=30,28, r=6 a=0",
    "push s=111100010 w=30,28, r=6 a=0",
    "push s=111100010 w=30,28, r=6 a=0",
    "push s=111100010 w=30,28, r=6 a=0",
    "add s=1111000001 w=36,34, r=7 a=0",
    "reset s=1111000001 w=36,34, r=7 a=0",
    "add s=11110000011 w=36,40, r=7 a=0",
    "add s=111100000110 w=42,40, r=7 a=0",
    "push s=111100000110 w=42,40, r=7 a=0",
    "add s=1111000001101 w=42,46, r=7 a=0",
    "add s=11110000011010 w=48,46, r=7 a=0",
    "restore s=111100000110101 w=48,52, r=7 a=0",
    "add s=1111000001101010 w=54,52, r=7 a=0",
    "push s=1111000001101010 w=54,52, r=7 a=0",
    "stats s=1111000001101010 w=54,52, r=7 a=0",
    "resize s=1112220002101010 w=34,36,36, r=11 a=0",
    "reset s=1112220002101010 w=34,36,36, r=11 a=0",
    "add s=11122200021010100 w=38,36,36, r=11 a=0",
    "add s=111222000210102001 w=38,40,42, r=12 a=0",
    "add s=1112220002101020010 w=46,40,42, r=12 a=0",
    "push s=1112220002101020010 w=46,40,42, r=12 a=0",
    "push s=1112220002101020010 w=46,40,42, r=12 a=0",
    "remove s=111222002101020010 w=40,40,42, r=12 a=0",
    "resize s=111222002101020010 w=40,40,42, r=12 a=0",
    "reset s=111222002101020010 w=40,40,42, r=12 a=0",
    "push s=111222002101020010 w=40,40,42, r=12 a=0",
    "push s=111222002101020010 w=40,40,42, r=12 a=0",
    "add s=1112220021010201100 w=46,44,42, r=13 a=0",
    "add s=11122200210102011002 w=46,44,52, r=13 a=0",
    "remove s=1112220021010201100 w=46,44,42, r=14 a=0",
    "resize s=1111010001010101100 w=68,64, r=14 a=0",
    "remove s=111010001010101100 w=68,60, r=14 a=0",
    "push s=111010001010101100 w=68,60, r=14 a=0",
    "push s=111010001010101100 w=68,60, r=14 a=0",
    "stats s=111010001010101100 w=68,60, r=14 a=0",
    "add s=1110100010101011001 w=68,72, r=14 a=0",
    "add s=11101000101010110010 w=74,72, r=14 a=0",
};

const char* const kAffinityGolden[] = {
    "add s=0 w=8,0,0, r=0 a=0",
    "restore s=00 w=16,0,0, r=0 a=1",
    "add s=000 w=22,0,0, r=0 a=2",
    "add s=0000 w=34,0,0, r=0 a=3",
    "push s=0000 w=34,0,0, r=0 a=3",
    "remove s=000 w=22,0,0, r=0 a=3",
    "push s=000 w=22,0,0, r=0 a=3",
    "stats s=000 w=22,0,0, r=0 a=3",
    "add s=0201 w=14,10,8, r=1 a=3",
    "add s=02012 w=14,10,12, r=1 a=3",
    "add s=020120 w=22,10,12, r=1 a=3",
    "remove s=20120 w=14,10,12, r=1 a=3",
    "resize s=00110 w=22,14, r=1 a=3",
    "add s=001101 w=22,18, r=1 a=3",
    "remove s=00111 w=14,16, r=2 a=3",
    "push s=00111 w=14,16, r=2 a=3",
    "reset s=00111 w=14,16, r=2 a=3",
    "push s=00111 w=14,16, r=2 a=3",
    "reset s=00111 w=14,16, r=2 a=3",
    "remove s=0011 w=14,8, r=2 a=3",
    "push s=0011 w=14,8, r=2 a=3",
    "push s=0011 w=14,8, r=2 a=3",
    "add s=00111 w=14,18, r=2 a=3",
    "push s=00111 w=14,18, r=2 a=3",
    "add s=001110 w=24,18, r=2 a=3",
    "add s=0011100 w=30,18, r=2 a=3",
    "add s=00111001 w=30,24, r=2 a=3",
    "add s=001110011 w=30,28, r=2 a=3",
    "push s=001110011 w=30,28, r=2 a=3",
    "push s=001110011 w=30,28, r=2 a=3",
    "push s=001110011 w=30,28, r=2 a=3",
    "add s=0011000111 w=40,30, r=2 a=4",
    "reset s=0011000111 w=40,30, r=2 a=4",
    "add s=00110001111 w=40,36, r=2 a=4",
    "add s=001100011111 w=40,42, r=2 a=4",
    "push s=001100011111 w=40,42, r=2 a=4",
    "add s=0011000111110 w=46,42, r=2 a=4",
    "add s=00110001111101 w=46,48, r=2 a=4",
    "restore s=001100011111011 w=46,54, r=2 a=4",
    "add s=0011000111110110 w=52,54, r=2 a=4",
    "push s=0011000111110110 w=52,54, r=2 a=4",
    "stats s=0011000111110110 w=52,54, r=2 a=4",
    "resize s=0012000211212221 w=40,32,34, r=9 a=4",
    "reset s=0012000211212221 w=40,32,34, r=9 a=4",
    "add s=00120002112122211 w=40,36,34, r=9 a=4",
    "add s=001200021121222112 w=40,36,44, r=9 a=4",
    "add s=0012000211212221121 w=40,44,44, r=9 a=4",
    "push s=0012000211212221121 w=40,44,44, r=9 a=4",
    "push s=0012000211212221121 w=40,44,44, r=9 a=4",
    "remove s=001200011212221121 w=40,44,38, r=9 a=4",
    "resize s=001200011212221121 w=40,44,38, r=9 a=4",
    "reset s=001200011212221121 w=40,44,38, r=9 a=4",
    "push s=001200011212221121 w=40,44,38, r=9 a=4",
    "push s=001200011212221121 w=40,44,38, r=9 a=4",
    "add s=0012000112122211210 w=50,44,38, r=9 a=4",
    "add s=00120001121222112102 w=50,44,48, r=9 a=4",
    "remove s=0012000112122211212 w=40,44,48, r=9 a=4",
    "resize s=0010000110110011011 w=72,60, r=9 a=5",
    "remove s=001000110110011011 w=68,60, r=9 a=5",
    "push s=001000110110011011 w=68,60, r=9 a=5",
    "push s=001000110110011011 w=68,60, r=9 a=5",
    "stats s=001000110110011011 w=68,60, r=9 a=5",
    "add s=0010001101100110111 w=68,72, r=9 a=5",
    "add s=00100011011001101101 w=80,66, r=9 a=6",
};

template <size_t N>
void ExpectTrace(ShardPlacement placement, const char* const (&expected)[N]) {
  const std::vector<std::string> actual = PlacementTrace(placement);
  ASSERT_EQ(actual.size(), N);
  for (size_t step = 0; step < N; ++step) {
    EXPECT_EQ(actual[step], expected[step]) << "step " << step;
  }
}

TEST(PlacementGoldenTest, BalancedMatchesRecordedPlacement) {
  ExpectTrace(ShardPlacement::kBalanced, kBalancedGolden);
}

TEST(PlacementGoldenTest, SessionAffinityMatchesRecordedPlacement) {
  ExpectTrace(ShardPlacement::kSessionAffinity, kAffinityGolden);
}

TEST(PlacementIndexProperty, ShardWeightsEqualPerQuerySums) {
  for (ShardPlacement placement :
       {ShardPlacement::kBalanced, ShardPlacement::kSessionAffinity}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ShardedEngine engine(PlacementOptions(placement));
      EPL_ASSERT_OK(engine.Start());
      PlacementScript script(&engine, seed);
      for (int step = 0; step < 40; ++step) {
        const std::string op = script.Step();
        const std::vector<ShardedEngine::QueryStatsSnapshot> snapshots =
            engine.QueryStats();
        std::vector<uint64_t> weights(
            static_cast<size_t>(engine.num_shards()), 0);
        std::vector<size_t> counts(weights.size(), 0);
        for (const ShardedEngine::QueryStatsSnapshot& snapshot : snapshots) {
          ASSERT_GE(snapshot.shard, 0);
          weights[static_cast<size_t>(snapshot.shard)] += snapshot.weight;
          ++counts[static_cast<size_t>(snapshot.shard)];
        }
        ASSERT_EQ(engine.shard_weights(), weights)
            << "seed " << seed << " step " << step << " (" << op << ")";
        ASSERT_EQ(engine.shard_query_counts(), counts)
            << "seed " << seed << " step " << step << " (" << op << ")";
      }
      EPL_ASSERT_OK(engine.Stop());
    }
  }
}

// Placement is a pure function of the control history: an engine that
// sees the script's traffic places every query exactly like one that sees
// none of it.
TEST(PlacementIndexProperty, PlacementIgnoresTraffic) {
  for (ShardPlacement placement :
       {ShardPlacement::kBalanced, ShardPlacement::kSessionAffinity}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ShardedEngine with_traffic(PlacementOptions(placement));
      ShardedEngine without_traffic(PlacementOptions(placement));
      EPL_ASSERT_OK(with_traffic.Start());
      EPL_ASSERT_OK(without_traffic.Start());
      PlacementScript pushing(&with_traffic, seed);
      PlacementScript idle(&without_traffic, seed, /*push_events=*/false);
      for (int step = 0; step < 40; ++step) {
        const std::string op = pushing.Step();
        ASSERT_EQ(idle.Step(), op);
        ASSERT_EQ(idle.live_ids(), pushing.live_ids());
        for (int id : pushing.live_ids()) {
          ASSERT_EQ(without_traffic.shard_of(id), with_traffic.shard_of(id))
              << "seed " << seed << " step " << step << " (" << op
              << ") query " << id;
        }
        ASSERT_EQ(without_traffic.shard_weights(), with_traffic.shard_weights())
            << "seed " << seed << " step " << step << " (" << op << ")";
      }
      EPL_ASSERT_OK(with_traffic.Stop());
      EPL_ASSERT_OK(without_traffic.Stop());
    }
  }
}

// Composite queries live off-shard: deploying a ladder of them must not
// move the skew budget, so a base fleet places exactly as without it.
TEST(ShardedEngineTest, CompositesDoNotChangeBasePlacement) {
  for (ShardPlacement placement :
       {ShardPlacement::kBalanced, ShardPlacement::kSessionAffinity}) {
    const auto place = [placement](bool with_ladder) {
      ShardedEngine engine(PlacementOptions(placement));
      if (with_ladder) {
        const std::vector<std::string> inputs(7, "placed");
        engine.AddQuery(CompositeSpec("ladder_1", 1, inputs, nullptr));
        engine.AddQuery(CompositeSpec("ladder_2", 2, {"ladder_1"}, nullptr));
      }
      std::vector<int> ids;
      for (int q = 0; q < 12; ++q) {
        PlacementQuery query;
        query.session = q % 4;
        query.states = 2 + (q * 5) % 5;
        query.center = 1.0;
        query.width = 1.0;
        ids.push_back(engine.AddQuery(PlacementSpec(query)));
      }
      std::vector<int> shards;
      for (int id : ids) {
        shards.push_back(engine.shard_of(id));
      }
      return std::make_pair(shards, engine.shard_weights());
    };
    EXPECT_EQ(place(false), place(true))
        << "placement " << static_cast<int>(placement);
  }
}

}  // namespace
}  // namespace epl::cep
