// Equivalence properties of the shared multi-pattern engine: a
// MultiPatternMatcher / MultiMatchOperator fed a synthesized kinect
// workload must produce exactly the matches of N independent NfaMatchers /
// MatchOperators, in both dominant and exhaustive mode.

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cep/multi_match_operator.h"
#include "cep/multi_matcher.h"
#include "cep_workload_test_util.h"
#include "core/query_gen.h"
#include "kinect/gesture_shapes.h"
#include "kinect/sensor.h"
#include "query/compiler.h"
#include "test_util.h"

namespace epl::cep {
namespace {

using stream::Event;
using testing::CompileDefinitions;
using testing::TrainedDefinitions;
using testing::Workload;


/// A minimal 2-pose definition for deployment plumbing tests (does not
/// need to fire on the workload).
core::GestureDefinition SyntheticDefinition(const std::string& name,
                                            const std::string& source) {
  core::GestureDefinition definition;
  definition.name = name;
  definition.source_stream = source;
  definition.joints = {kinect::JointId::kRightHand};
  for (int i = 0; i < 2; ++i) {
    core::PoseWindow pose;
    core::JointWindow window;
    window.center = Vec3(640.0 * i, 150.0, -150.0);
    window.half_width = Vec3(60, 60, 60);
    pose.joints[kinect::JointId::kRightHand] = window;
    pose.max_gap = i == 0 ? 0 : kSecond;
    definition.poses.push_back(pose);
  }
  return definition;
}

/// A pattern whose first pose is NOT interval-decomposable (a disjunction
/// of two lateral zones), exercising the bank's fallback path.
query::CompiledQuery CompileFancyQuery() {
  ExprPtr zones = Expr::Binary(
      BinaryOp::kOr, Expr::RangePredicate("rHand_x", -300, 150),
      Expr::RangePredicate("rHand_x", 300, 150));
  std::vector<PatternExprPtr> children;
  children.push_back(PatternExpr::Pose("kinect", std::move(zones)));
  children.push_back(PatternExpr::Pose(
      "kinect", Expr::RangePredicate("rHand_y", 150, 120)));
  query::ParsedQuery parsed;
  parsed.name = "fancy";
  parsed.pattern =
      PatternExpr::Sequence(std::move(children), 2 * kSecond);
  Result<query::CompiledQuery> query =
      query::CompileQuery(parsed, kinect::KinectSchema());
  EPL_CHECK(query.ok()) << query.status();
  return std::move(query).value();
}

std::vector<TimePoint> Flatten(const std::vector<PatternMatch>& matches) {
  std::vector<TimePoint> flat;
  for (const PatternMatch& match : matches) {
    flat.insert(flat.end(), match.state_times.begin(),
                match.state_times.end());
    flat.push_back(-1);  // separator
  }
  return flat;
}

class MultiMatcherEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MultiMatcherEquivalence, MatchesIndependentMatchers) {
  const int seed = std::get<0>(GetParam());
  const bool exhaustive = std::get<1>(GetParam()) != 0;

  std::vector<query::CompiledQuery> queries =
      CompileDefinitions(TrainedDefinitions(12));
  queries.push_back(CompileFancyQuery());

  MatcherOptions options;
  options.mode = exhaustive ? MatcherOptions::Mode::kExhaustive
                            : MatcherOptions::Mode::kDominant;
  MultiPatternMatcher multi(options);
  std::vector<std::unique_ptr<NfaMatcher>> independent;
  for (const query::CompiledQuery& query : queries) {
    multi.AddPattern(&query.pattern);
    independent.push_back(
        std::make_unique<NfaMatcher>(&query.pattern, options));
  }

  std::vector<std::vector<PatternMatch>> multi_matches(queries.size());
  std::vector<std::vector<PatternMatch>> independent_matches(queries.size());
  std::vector<MultiPatternMatcher::MultiMatch> scratch;
  for (const Event& event : Workload(static_cast<uint64_t>(seed))) {
    scratch.clear();
    multi.Process(event, &scratch);
    for (MultiPatternMatcher::MultiMatch& match : scratch) {
      multi_matches[match.pattern_index].push_back(std::move(match.match));
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      independent[q]->Process(event, &independent_matches[q]);
    }
  }

  // The chain queries are all served by the interval index; only the
  // disjunction pose of the fancy query falls back to its program.
  EXPECT_EQ(multi.bank().num_fallback(), 1);
  EXPECT_GT(multi.bank().num_decomposable(), 0);

  size_t total = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(Flatten(multi_matches[q]), Flatten(independent_matches[q]))
        << "query " << queries[q].name;
    // The fused matchers never ran an ExprProgram themselves.
    EXPECT_EQ(multi.matcher(static_cast<int>(q)).stats()
                  .predicate_evaluations,
              0u);
    total += multi_matches[q].size();
  }
  // The workload must actually trigger matches for the test to mean
  // anything.
  EXPECT_GT(total, 0u);
}

INSTANTIATE_TEST_SUITE_P(SeedsAndModes, MultiMatcherEquivalence,
                         ::testing::Combine(::testing::Range(0, 3),
                                            ::testing::Values(0, 1)));

// The flattened arena keeps per-pattern MatcherStats faithful: a fused
// pattern reports exactly the run-state statistics of a standalone
// matcher, both through the live accessor and after ExtractPattern (the
// path ShardedEngine rebalancing takes).
TEST(MultiMatcherStatsTest, MirrorsStandaloneMatcherStats) {
  std::vector<query::CompiledQuery> queries =
      CompileDefinitions(TrainedDefinitions(6));

  MultiPatternMatcher multi;
  std::vector<std::unique_ptr<NfaMatcher>> independent;
  for (const query::CompiledQuery& query : queries) {
    multi.AddPattern(&query.pattern);
    independent.push_back(std::make_unique<NfaMatcher>(&query.pattern));
  }

  std::vector<MultiPatternMatcher::MultiMatch> scratch;
  std::vector<PatternMatch> sink;
  for (const Event& event : Workload(21)) {
    multi.Process(event, &scratch);
    for (auto& matcher : independent) {
      matcher->Process(event, &sink);
    }
  }

  for (size_t q = 0; q < queries.size(); ++q) {
    const MatcherStats& expected = independent[q]->stats();
    const MatcherStats& fused = multi.matcher(static_cast<int>(q)).stats();
    EXPECT_EQ(fused.events, expected.events) << queries[q].name;
    EXPECT_EQ(fused.matches, expected.matches) << queries[q].name;
    EXPECT_EQ(fused.peak_runs, expected.peak_runs) << queries[q].name;
    // Every predicate read the standalone matcher performs (programs plus
    // per-event memo hits) is a shared-bank hit in the fused runtime.
    EXPECT_EQ(fused.predicate_cache_hits,
              expected.predicate_evaluations + expected.predicate_cache_hits)
        << queries[q].name;
    EXPECT_EQ(fused.predicate_evaluations, 0u) << queries[q].name;
  }

  // Extraction (how rebalancing moves a query between shards) carries the
  // same numbers out with the matcher.
  std::unique_ptr<NfaMatcher> extracted = multi.ExtractPattern(2);
  EXPECT_EQ(extracted->stats().events, independent[2]->stats().events);
  EXPECT_EQ(extracted->stats().matches, independent[2]->stats().matches);
  EXPECT_EQ(extracted->active_run_count(),
            independent[2]->active_run_count());
}

using testing::DetectionRecord;

TEST(MultiMatchOperatorTest, FusedDeploymentMatchesPerQueryDeployment) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(8);
  std::vector<Event> events = Workload(11);

  std::vector<DetectionRecord> per_query;
  {
    stream::StreamEngine engine;
    EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
    for (const core::GestureDefinition& definition : definitions) {
      EPL_ASSERT_OK(core::DeployGesture(
                        &engine, definition,
                        [&per_query](const Detection& detection) {
                          per_query.push_back({detection.name,
                                               detection.time,
                                               detection.pose_times});
                        })
                        .status());
    }
    EXPECT_EQ(engine.deployment_count(), definitions.size());
    for (const Event& event : events) {
      EPL_ASSERT_OK(engine.Push("kinect", event));
    }
  }

  std::vector<DetectionRecord> fused;
  {
    stream::StreamEngine engine;
    EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
    auto record = [&fused](const Detection& detection) {
      fused.push_back({detection.name, detection.time, detection.pose_times});
    };
    EPL_ASSERT_OK_AND_ASSIGN(query::FusedDeployment deployment,
                             query::DeployFusedOperator(&engine, "kinect"));
    for (const core::GestureDefinition& definition : definitions) {
      EPL_ASSERT_OK_AND_ASSIGN(query::ParsedQuery parsed,
                               core::GenerateQuery(definition));
      EPL_ASSERT_OK_AND_ASSIGN(
          MultiMatchOperator::QuerySpec spec,
          query::CompileQuerySpec(&engine, parsed, record));
      deployment.op->AddQuery(std::move(spec));
    }
    // One subscriber serves all queries.
    EXPECT_EQ(engine.deployment_count(), 1u);
    for (const Event& event : events) {
      EPL_ASSERT_OK(engine.Push("kinect", event));
    }
  }

  EXPECT_GT(per_query.size(), 0u);
  EXPECT_EQ(per_query.size(), fused.size());
  ASSERT_TRUE(per_query == fused);
}

// Gate groups (the multi-session runtime's sub-linear session skip): a
// matcher fed UNCONJOINED patterns plus their session gates must produce
// exactly the matches of the explicitly conjoined patterns run ungated,
// for windows of one and for larger windows, with gated and ungated
// patterns mixed in one matcher.
TEST(MultiPatternMatcherTest, GateGroupsAreOutputExact) {
  // A merged multi-session stream: kinect fields plus a session id that
  // cycles per event, so every gate flips open/shut throughout the run.
  stream::Schema merged = kinect::KinectSchema();
  merged.AddField("session");
  constexpr int kSessions = 3;
  std::vector<Event> events = Workload(123);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].values.push_back(static_cast<double>(i % kSessions));
  }

  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(6);
  std::vector<ExprPtr> gate_exprs;
  std::vector<CompiledPattern> gates;
  for (int k = 0; k < kSessions; ++k) {
    gate_exprs.push_back(
        Expr::RangePredicate("session", static_cast<double>(k), 0.5));
    PatternExprPtr pose =
        PatternExpr::Pose("kinect", gate_exprs.back()->Clone());
    EPL_ASSERT_OK_AND_ASSIGN(CompiledPattern gate,
                             CompiledPattern::Compile(*pose, merged));
    gates.push_back(std::move(gate));
  }
  std::vector<CompiledPattern> conjoined;  // oracle form: gate in the poses
  std::vector<CompiledPattern> bare;       // runtime form: gate separate
  for (size_t q = 0; q < definitions.size(); ++q) {
    EPL_ASSERT_OK_AND_ASSIGN(query::ParsedQuery parsed,
                             core::GenerateQuery(definitions[q]));
    PatternExprPtr scoped = parsed.pattern->Rescope(
        "", gate_exprs[q % kSessions].get());
    EPL_ASSERT_OK_AND_ASSIGN(CompiledPattern pattern,
                             CompiledPattern::Compile(*scoped, merged));
    conjoined.push_back(std::move(pattern));
    EPL_ASSERT_OK_AND_ASSIGN(CompiledPattern plain_pattern,
                             CompiledPattern::Compile(*parsed.pattern,
                                                      merged));
    bare.push_back(std::move(plain_pattern));
  }
  // Half the patterns run as (bare pattern + enforced gate), half run the
  // conjoined form ungated; mixing exercises group-major ordering against
  // the ungated list.
  auto gate_of = [&](size_t q) -> const CompiledPattern* {
    return q % 2 == 0 ? &gates[q % kSessions] : nullptr;
  };
  auto runtime_pattern = [&](size_t q) -> const CompiledPattern* {
    return q % 2 == 0 ? &bare[q] : &conjoined[q];
  };

  size_t total = 0;
  {
    MultiPatternMatcher plain{MatcherOptions()};
    MultiPatternMatcher gated{MatcherOptions()};
    for (size_t q = 0; q < conjoined.size(); ++q) {
      plain.AddPattern(&conjoined[q]);
      gated.AddPattern(runtime_pattern(q), gate_of(q));
    }
    std::vector<MultiPatternMatcher::MultiMatch> expected, actual;
    for (const Event& event : events) {
      expected.clear();
      actual.clear();
      plain.Process(event, &expected);
      gated.Process(event, &actual);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t m = 0; m < expected.size(); ++m) {
        EXPECT_EQ(actual[m].pattern_index, expected[m].pattern_index);
        EXPECT_EQ(actual[m].match.state_times, expected[m].match.state_times);
      }
      total += expected.size();
    }
  }
  {
    // Batched path, uneven chunks spanning gate flips.
    MultiPatternMatcher plain{MatcherOptions()};
    MultiPatternMatcher gated{MatcherOptions()};
    for (size_t q = 0; q < conjoined.size(); ++q) {
      plain.AddPattern(&conjoined[q]);
      gated.AddPattern(runtime_pattern(q), gate_of(q));
    }
    std::vector<MultiPatternMatcher::MultiMatch> expected, actual;
    size_t pos = 0;
    size_t chunk = 1;
    while (pos < events.size()) {
      const size_t n = std::min(chunk, events.size() - pos);
      expected.clear();
      actual.clear();
      plain.ProcessBatch(events.data() + pos, n, &expected);
      gated.ProcessBatch(events.data() + pos, n, &actual);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t m = 0; m < expected.size(); ++m) {
        EXPECT_EQ(actual[m].pattern_index, expected[m].pattern_index);
        EXPECT_EQ(actual[m].batch_index, expected[m].batch_index);
        EXPECT_EQ(actual[m].match.state_times, expected[m].match.state_times);
      }
      pos += n;
      chunk = chunk % 7 + 2;  // 1,3,5,7,2,4,... varied chunking
    }
  }
  // The workload must actually fire through the cycling session ids.
  EXPECT_GT(total, 0u);
}

TEST(MultiMatchOperatorTest, UndeployRemovesAllQueries) {
  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  std::vector<core::GestureDefinition> definitions = {
      SyntheticDefinition("a", "kinect"), SyntheticDefinition("b", "kinect")};
  EPL_ASSERT_OK_AND_ASSIGN(query::FusedDeployment deployment,
                           query::DeployFusedOperator(&engine, "kinect"));
  for (const core::GestureDefinition& definition : definitions) {
    EPL_ASSERT_OK_AND_ASSIGN(query::ParsedQuery parsed,
                             core::GenerateQuery(definition));
    EPL_ASSERT_OK_AND_ASSIGN(MultiMatchOperator::QuerySpec spec,
                             query::CompileQuerySpec(&engine, parsed, nullptr));
    deployment.op->AddQuery(std::move(spec));
  }
  EXPECT_EQ(engine.deployment_count(), 1u);
  EPL_ASSERT_OK(engine.Undeploy(deployment.id));
  EXPECT_EQ(engine.deployment_count(), 0u);
}

}  // namespace
}  // namespace epl::cep
