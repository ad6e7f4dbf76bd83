// Properties of runtime query exchange (paper: "exchange gestures during
// runtime"), for the fused single-threaded operator and the sharded
// engine:
//
//  1. Replay equivalence: after an interleaved Add/Remove script, resetting
//     run state and replaying the stream yields bit-identical detections to
//     a fresh deploy of the final query set -- the exchange leaves no
//     residue in the bank, id routing, or callback dispatch.
//  2. Survivor independence: a query deployed from the start and never
//     removed produces bit-identical detections during the churn itself as
//     a standalone deployment -- neighbours being exchanged (and, for the
//     sharded engine, the query being rebalanced to another shard
//     mid-stream) never perturb its partial runs.
//  3. A query added mid-stream behaves exactly like a fresh deployment fed
//     the stream suffix.
//
// Exchanges requested from inside a detection callback are GestureRuntime's
// to defer (tests/workflow_durability_test.cc); the operator itself dies
// on them (tests/cep_batched_execution_test.cc).

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cep/multi_match_operator.h"
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

/// Churn script over 10 definitions: initial set {0..5}, two exchanges
/// mid-stream, final set {1,4,5,6,7,8,9} (by definition index).
struct ChurnStep {
  size_t event_index;
  std::vector<int> add;     // definition indices
  std::vector<int> remove;  // definition indices
};

const std::vector<ChurnStep>& Script() {
  static const std::vector<ChurnStep>* script = new std::vector<ChurnStep>{
      {40, {6, 7}, {2, 3}},
      {120, {8, 9}, {0}},
  };
  return *script;
}

std::vector<int> InitialSet() { return {0, 1, 2, 3, 4, 5}; }

std::vector<int> FinalSet() { return {1, 4, 5, 6, 7, 8, 9}; }

query::CompiledQuery Compile(const core::GestureDefinition& definition) {
  std::vector<query::CompiledQuery> one =
      CompileDefinitions({definition});
  return std::move(one[0]);
}

/// Detections of a fused deployment of `set` (definition indices, in
/// order) over `events` -- the ground truth for every comparison.
std::vector<DetectionRecord> FreshFused(
    const std::vector<core::GestureDefinition>& definitions,
    const std::vector<int>& set, const std::vector<Event>& events,
    MatcherOptions options) {
  MultiMatchOperator op(options);
  std::vector<DetectionRecord> records;
  for (int index : set) {
    op.AddQuery(MakeSpec(Compile(definitions[index]), Recorder(&records)));
  }
  for (const Event& event : events) {
    EPL_EXPECT_OK(op.Process(event));
  }
  return records;
}

class DynamicQueryModes : public ::testing::TestWithParam<int> {
 protected:
  MatcherOptions Options() const {
    MatcherOptions options;
    options.mode = GetParam() != 0 ? MatcherOptions::Mode::kExhaustive
                                   : MatcherOptions::Mode::kDominant;
    return options;
  }
};

TEST_P(DynamicQueryModes, FusedChurnThenReplayEqualsFreshDeploy) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(10);
  std::vector<Event> events = Workload(3);

  MultiMatchOperator op(Options());
  std::vector<DetectionRecord> churn_records;
  std::vector<int> live_ids(definitions.size(), -1);
  for (int index : InitialSet()) {
    live_ids[index] =
        op.AddQuery(MakeSpec(Compile(definitions[index]),
                             Recorder(&churn_records)));
  }
  size_t step = 0;
  uint64_t generation_before = op.matcher().bank_generation();
  for (size_t i = 0; i < events.size(); ++i) {
    if (step < Script().size() && Script()[step].event_index == i) {
      for (int index : Script()[step].add) {
        live_ids[index] =
            op.AddQuery(MakeSpec(Compile(definitions[index]),
                                 Recorder(&churn_records)));
      }
      for (int index : Script()[step].remove) {
        EPL_ASSERT_OK(op.RemoveQuery(live_ids[index]));
        live_ids[index] = -1;
      }
      ++step;
    }
    EPL_ASSERT_OK(op.Process(events[i]));
  }
  ASSERT_EQ(step, Script().size());
  // Each mutation batch costs exactly one lazy bank rebuild.
  EXPECT_EQ(op.matcher().bank_generation(),
            generation_before + Script().size());
  EXPECT_FALSE(churn_records.empty());

  // Replay from clean run state: the exchanged operator must be
  // indistinguishable from a fresh deploy of the final set.
  op.ResetMatchers();
  std::vector<DetectionRecord> replay_records;
  size_t churn_size = churn_records.size();
  for (const Event& event : events) {
    EPL_ASSERT_OK(op.Process(event));
  }
  replay_records.assign(churn_records.begin() +
                            static_cast<ptrdiff_t>(churn_size),
                        churn_records.end());

  std::vector<DetectionRecord> fresh =
      FreshFused(definitions, FinalSet(), events, Options());
  ASSERT_FALSE(fresh.empty());
  ASSERT_TRUE(replay_records == fresh)
      << replay_records.size() << " vs " << fresh.size() << " detections";
}

class ShardedDynamicQueries
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShardedDynamicQueries, ChurnThenReplayEqualsFreshDeploy) {
  const int num_shards = std::get<0>(GetParam());
  MatcherOptions matcher_options;
  matcher_options.mode = std::get<1>(GetParam()) != 0
                             ? MatcherOptions::Mode::kExhaustive
                             : MatcherOptions::Mode::kDominant;
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(10);
  std::vector<Event> events = Workload(3);

  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.batch_size = 16;
  options.matcher = matcher_options;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> records;
  std::vector<int> live_ids(definitions.size(), -1);
  for (int index : InitialSet()) {
    live_ids[index] = sharded.AddQuery(
        MakeSpec(Compile(definitions[index]), Recorder(&records)));
  }
  EPL_ASSERT_OK(sharded.Start());
  size_t step = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (step < Script().size() && Script()[step].event_index == i) {
      for (int index : Script()[step].add) {
        live_ids[index] = sharded.AddQuery(
            MakeSpec(Compile(definitions[index]), Recorder(&records)));
      }
      for (int index : Script()[step].remove) {
        EPL_ASSERT_OK(sharded.RemoveQuery(live_ids[index]));
        live_ids[index] = -1;
      }
      ++step;
    }
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Flush());
  EXPECT_FALSE(records.empty());

  // Replay from clean run state against a fresh single-threaded fused
  // deploy of the final set: same detections, same total order.
  sharded.ResetMatchers();
  size_t churn_size = records.size();
  for (const Event& event : events) {
    ASSERT_TRUE(sharded.Push(event));
  }
  EPL_ASSERT_OK(sharded.Stop());
  std::vector<DetectionRecord> replay_records(
      records.begin() + static_cast<ptrdiff_t>(churn_size), records.end());

  std::vector<DetectionRecord> fresh =
      FreshFused(definitions, FinalSet(), events, matcher_options);
  ASSERT_FALSE(fresh.empty());
  ASSERT_TRUE(replay_records == fresh)
      << replay_records.size() << " vs " << fresh.size() << " detections at "
      << num_shards << " shards";
}

INSTANTIATE_TEST_SUITE_P(ShardsAndModes, ShardedDynamicQueries,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Values(0, 1)));

TEST_P(DynamicQueryModes, FusedSurvivorUnaffectedByChurn) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(10);
  std::vector<Event> events = Workload(3);

  MultiMatchOperator op(Options());
  std::vector<DetectionRecord> records;
  std::vector<int> live_ids(definitions.size(), -1);
  for (int index : InitialSet()) {
    live_ids[index] =
        op.AddQuery(MakeSpec(Compile(definitions[index]), Recorder(&records)));
  }
  size_t step = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (step < Script().size() && Script()[step].event_index == i) {
      for (int index : Script()[step].add) {
        live_ids[index] = op.AddQuery(
            MakeSpec(Compile(definitions[index]), Recorder(&records)));
      }
      for (int index : Script()[step].remove) {
        EPL_ASSERT_OK(op.RemoveQuery(live_ids[index]));
      }
      ++step;
    }
    EPL_ASSERT_OK(op.Process(events[i]));
  }

  // Queries 1, 4, 5 lived through the whole stream: their detections must
  // be exactly those of a standalone deployment, despite five neighbours
  // being exchanged around them (partial runs survive the bank swaps).
  for (int survivor : {1, 4, 5}) {
    std::vector<DetectionRecord> expected =
        FreshFused(definitions, {survivor}, events, Options());
    ASSERT_FALSE(expected.empty()) << "survivor " << survivor;
    std::vector<DetectionRecord> actual;
    for (const DetectionRecord& record : records) {
      if (record.name == definitions[static_cast<size_t>(survivor)].name) {
        actual.push_back(record);
      }
    }
    ASSERT_TRUE(actual == expected) << "survivor " << survivor;
  }
}

TEST(ShardedDynamicTest, SurvivorSurvivesRebalanceMidGesture) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(4);
  std::vector<Event> events = Workload(3);

  // Two shards: ids 0,2 land on shard 0; ids 1,3 on shard 1. Removing
  // both queries of shard 1 mid-stream forces the rebalancer to move a
  // survivor across shards while it may hold partial runs.
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
  ASSERT_EQ(sharded.shard_of(ids[1]), 1);
  EPL_ASSERT_OK(sharded.Start());
  const size_t churn_at = events.size() / 2;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == churn_at) {
      EPL_ASSERT_OK(sharded.RemoveQuery(ids[1]));
      EPL_ASSERT_OK(sharded.RemoveQuery(ids[3]));
    }
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  EPL_ASSERT_OK(sharded.Stop());
  EXPECT_GT(sharded.rebalanced_queries(), 0u);

  // Each survivor's detections equal a standalone deployment's.
  for (int survivor : {0, 2}) {
    std::vector<DetectionRecord> expected =
        FreshFused(definitions, {survivor}, events, MatcherOptions());
    ASSERT_FALSE(expected.empty()) << "survivor " << survivor;
    std::vector<DetectionRecord> actual;
    for (const DetectionRecord& record : records) {
      if (record.name == definitions[static_cast<size_t>(survivor)].name) {
        actual.push_back(record);
      }
    }
    ASSERT_TRUE(actual == expected) << "survivor " << survivor;
  }
}

TEST(ShardedDynamicTest, ChurnWithDynamicFleetSizeMatchesFreshDeploy) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(10);
  std::vector<Event> events = Workload(3);
  ASSERT_GT(events.size(), 250u);

  // The churn script runs against a fleet whose size changes under live
  // traffic: grow 2->4, shrink 4->1 (every query migrates off a doomed
  // shard, partial runs in hand), grow 1->3. Neither the exchanges nor
  // the migrations may perturb a surviving query's detections.
  ShardedEngineOptions options;
  options.num_shards = 2;
  options.batch_size = 8;
  ShardedEngine sharded(options);
  std::vector<DetectionRecord> records;
  std::vector<int> live_ids(definitions.size(), -1);
  for (int index : InitialSet()) {
    live_ids[index] = sharded.AddQuery(
        MakeSpec(Compile(definitions[index]), Recorder(&records)));
  }
  EPL_ASSERT_OK(sharded.Start());
  size_t step = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (step < Script().size() && Script()[step].event_index == i) {
      for (int index : Script()[step].add) {
        live_ids[index] = sharded.AddQuery(
            MakeSpec(Compile(definitions[index]), Recorder(&records)));
      }
      for (int index : Script()[step].remove) {
        EPL_ASSERT_OK(sharded.RemoveQuery(live_ids[index]));
        live_ids[index] = -1;
      }
      ++step;
    }
    if (i == 60) {
      EPL_ASSERT_OK(sharded.Resize(4));
    } else if (i == 140) {
      EPL_ASSERT_OK(sharded.Resize(1));
    } else if (i == 250) {
      EPL_ASSERT_OK(sharded.Resize(3));
    }
    ASSERT_TRUE(sharded.Push(events[i]));
  }
  ASSERT_EQ(step, Script().size());
  EXPECT_EQ(sharded.num_shards(), 3);
  EXPECT_EQ(sharded.resize_count(), 3u);
  EPL_ASSERT_OK(sharded.Flush());

  // Survivor independence across both churn and resizes: queries 1, 4, 5
  // lived through everything; their detections must match a standalone
  // deployment exactly (no partial run lost in any migration).
  for (int survivor : {1, 4, 5}) {
    std::vector<DetectionRecord> expected =
        FreshFused(definitions, {survivor}, events, MatcherOptions());
    ASSERT_FALSE(expected.empty()) << "survivor " << survivor;
    std::vector<DetectionRecord> actual;
    for (const DetectionRecord& record : records) {
      if (record.name == definitions[static_cast<size_t>(survivor)].name) {
        actual.push_back(record);
      }
    }
    ASSERT_TRUE(actual == expected) << "survivor " << survivor;
  }

  // Replay equivalence on the post-resize fleet: reset run state, replay
  // the stream, and the 3-shard fleet must be indistinguishable from a
  // fresh fused deploy of the final query set.
  sharded.ResetMatchers();
  const size_t churn_size = records.size();
  for (const Event& event : events) {
    ASSERT_TRUE(sharded.Push(event));
  }
  EPL_ASSERT_OK(sharded.Stop());
  std::vector<DetectionRecord> replay_records(
      records.begin() + static_cast<ptrdiff_t>(churn_size), records.end());
  std::vector<DetectionRecord> fresh =
      FreshFused(definitions, FinalSet(), events, MatcherOptions());
  ASSERT_FALSE(fresh.empty());
  ASSERT_TRUE(replay_records == fresh)
      << replay_records.size() << " vs " << fresh.size() << " detections";
}

TEST_P(DynamicQueryModes, AddedQueryEqualsFreshDeployOnSuffix) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(3);
  std::vector<Event> events = Workload(5);
  const size_t join_at = events.size() / 3;

  MultiMatchOperator op(Options());
  std::vector<DetectionRecord> records;
  op.AddQuery(MakeSpec(Compile(definitions[0]), Recorder(&records)));
  op.AddQuery(MakeSpec(Compile(definitions[1]), Recorder(&records)));
  std::vector<DetectionRecord> late_records;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i == join_at) {
      op.AddQuery(MakeSpec(Compile(definitions[2]), Recorder(&late_records)));
    }
    EPL_ASSERT_OK(op.Process(events[i]));
  }

  std::vector<Event> suffix(events.begin() + static_cast<ptrdiff_t>(join_at),
                            events.end());
  std::vector<DetectionRecord> expected =
      FreshFused(definitions, {2}, suffix, Options());
  ASSERT_FALSE(expected.empty());
  ASSERT_TRUE(late_records == expected)
      << late_records.size() << " vs " << expected.size();
}

INSTANTIATE_TEST_SUITE_P(Modes, DynamicQueryModes, ::testing::Values(0, 1));

TEST(DynamicQueryTest, AddFusedQueryJoinsLiveDeployment) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(3);
  std::vector<Event> events = Workload(17);

  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  std::vector<DetectionRecord> records;
  std::vector<query::CompiledQuery> compiled = CompileDefinitions(definitions);
  EPL_ASSERT_OK_AND_ASSIGN(query::FusedDeployment deployment,
                           query::DeployFusedOperator(&engine, "kinect"));
  deployment.op->AddQuery(MakeSpec(std::move(compiled[0]), Recorder(&records)));
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    EPL_ASSERT_OK(engine.Push("kinect", events[i]));
  }
  const int added = deployment.op->AddQuery(
      MakeSpec(std::move(compiled[1]), Recorder(&records)));
  EXPECT_EQ(deployment.op->num_queries(), 2u);
  for (size_t i = half; i < events.size(); ++i) {
    EPL_ASSERT_OK(engine.Push("kinect", events[i]));
  }
  EXPECT_FALSE(records.empty());
  EPL_ASSERT_OK(deployment.op->RemoveQuery(added));
  EXPECT_EQ(deployment.op->num_queries(), 1u);
}

}  // namespace
}  // namespace epl::cep
