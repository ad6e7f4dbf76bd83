// Equivalence properties of the shared multi-pattern engine: a
// MultiPatternMatcher / MultiMatchOperator fed a synthesized kinect
// workload must produce exactly the matches of N independent NfaMatchers /
// MatchOperators, in both dominant and exhaustive mode.

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cep/multi_match_operator.h"
#include "cep/multi_matcher.h"
#include "cep/predicate_bank.h"
#include "cep_workload_test_util.h"
#include "common/rng.h"
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

// Key-path property: random gate sets on one matcher -- disjoint
// single-interval key gates, overlapping single-field gates, gates on a
// second field, `or` gates and ungated patterns -- against the oracle, an
// NfaMatcher per pattern running the gate explicitly conjoined into every
// pose. Keys include NaN, +-inf, -0.0, values between and outside the
// intervals and both sides of every refined interval edge; windows run
// from 1 to 130 events, some holding a single key; and one session's gate
// joins and leaves mid-stream.
TEST(MultiPatternMatcherTest, KeyGatesMatchConjoinedOracle) {
  const stream::Schema schema(std::vector<std::string>{"x", "k", "m"});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto compile = [&schema](std::vector<ExprPtr> poses,
                                 std::optional<Duration> within) {
    std::vector<PatternExprPtr> children;
    for (ExprPtr& pose : poses) {
      children.push_back(PatternExpr::Pose("s", std::move(pose)));
    }
    Result<CompiledPattern> compiled = CompiledPattern::Compile(
        *PatternExpr::Sequence(std::move(children), within, WithinMode::kGap),
        schema);
    EPL_CHECK(compiled.ok()) << compiled.status();
    return std::move(compiled).value();
  };
  const auto field_cmp = [](BinaryOp op, const char* field, double bound) {
    return Expr::Binary(op, Expr::Field(field), Expr::Constant(bound));
  };

  struct Query {
    std::vector<ExprPtr> poses;
    std::optional<Duration> within;
    int gate = -1;  // index into the trial's gates, or ungated
  };
  size_t total_matches = 0;
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    Rng rng(9000 + static_cast<uint64_t>(trial));
    const bool exhaustive = trial % 2 == 1;
    const int shape = (trial / 2) % 4;  // 0 key only, 1 +overlap, 2 +m, 3 +or

    // Gates: disjoint key gates on k (two shapes of one interval), then
    // the trial's extras.
    std::vector<ExprPtr> gate_exprs;
    const int num_keys = static_cast<int>(rng.UniformInt(1, 6));
    for (int g = 0; g < num_keys; ++g) {
      const double center = 2.0 * g - 4.0;
      if (g == 3) {
        gate_exprs.push_back(Expr::Binary(
            BinaryOp::kAnd, field_cmp(BinaryOp::kGe, "k", center - 0.75),
            field_cmp(BinaryOp::kLe, "k", center + 0.75)));
      } else {
        gate_exprs.push_back(
            Expr::RangePredicate("k", center, g % 2 == 0 ? 0.5 : 0.25));
      }
    }
    gate_exprs.push_back(field_cmp(BinaryOp::kGt, "k", 20.0));  // to +inf
    if (shape == 1) {
      gate_exprs.push_back(Expr::RangePredicate("k", -3.7, 0.5));
    } else if (shape == 2) {
      gate_exprs.push_back(Expr::RangePredicate("m", 0, 0.5));
      gate_exprs.push_back(Expr::RangePredicate("m", 1, 0.5));
    } else if (shape == 3) {
      gate_exprs.push_back(Expr::Binary(BinaryOp::kOr,
                                        Expr::RangePredicate("k", -4, 0.5),
                                        Expr::RangePredicate("k", 30, 0.5)));
    }
    // The session that joins mid-stream: a key gate disjoint from all.
    gate_exprs.push_back(Expr::RangePredicate("k", 11, 0.5));
    const size_t late_gate = gate_exprs.size() - 1;
    std::vector<CompiledPattern> gates;
    for (const ExprPtr& expr : gate_exprs) {
      std::vector<ExprPtr> pose;
      pose.push_back(expr->Clone());
      gates.push_back(compile(std::move(pose), std::nullopt));
    }

    // Key values: the interval edges and their outer neighbours, centers,
    // gaps between intervals, and the special doubles.
    std::vector<double> keys = {std::numeric_limits<double>::quiet_NaN(),
                                kInf, -kInf, -0.0, 0.0, -100.0, 7.0,
                                25.0, 30.0};
    for (const CompiledPattern& gate : gates) {
      std::map<int, PredicateBank::Interval> intervals;
      if (!PredicateBank::Decompose(gate.predicate_expr(0), &intervals)) {
        continue;
      }
      for (const auto& [field, interval] : intervals) {
        for (double edge : {interval.lo, interval.hi}) {
          if (std::isfinite(edge)) {
            keys.insert(keys.end(), {edge, std::nextafter(edge, -kInf),
                                     std::nextafter(edge, kInf)});
          }
        }
        if (std::isfinite(interval.lo) && std::isfinite(interval.hi)) {
          keys.push_back((interval.lo + interval.hi) / 2);
        }
      }
    }
    const double m_values[] = {0.0, 1.0, 0.5, -0.0, 3.0,
                               std::numeric_limits<double>::quiet_NaN()};

    // Queries: short chains over x, each gated by a random gate or none.
    std::vector<Query> queries;
    const int num_queries = static_cast<int>(rng.UniformInt(6, 14));
    for (int q = 0; q < num_queries; ++q) {
      Query query;
      const int states = static_cast<int>(rng.UniformInt(1, 3));
      for (int s = 0; s < states; ++s) {
        query.poses.push_back(Expr::RangePredicate(
            "x", rng.Uniform(-40, 40), rng.Uniform(10, 40)));
      }
      if (rng.Bernoulli(0.5)) {
        query.within = DurationFromMillis(rng.Uniform(60, 400));
      }
      query.gate = rng.Bernoulli(0.15)
                       ? -1
                       : static_cast<int>(rng.UniformInt(
                             0, static_cast<int64_t>(late_gate) - 1));
      queries.push_back(std::move(query));
    }
    if (shape != 0) {
      // The trial's extra gate is live from the start, beside a key gate.
      queries[0].gate = static_cast<int>(late_gate) - 1;
      queries[1].gate = 0;
    }
    Query late;
    late.poses.push_back(Expr::RangePredicate("x", 0, 30));
    late.poses.push_back(Expr::RangePredicate("x", 20, 30));
    late.gate = static_cast<int>(late_gate);
    queries.push_back(std::move(late));

    std::vector<CompiledPattern> bare, conjoined;
    for (const Query& query : queries) {
      std::vector<ExprPtr> plain, gated;
      for (const ExprPtr& pose : query.poses) {
        plain.push_back(pose->Clone());
        gated.push_back(
            query.gate < 0
                ? pose->Clone()
                : Expr::Binary(BinaryOp::kAnd, pose->Clone(),
                               gate_exprs[static_cast<size_t>(query.gate)]
                                   ->Clone()));
      }
      bare.push_back(compile(std::move(plain), query.within));
      conjoined.push_back(compile(std::move(gated), query.within));
    }

    // The stream: sticky keys so gated chains complete, and windows of
    // 1-130 events, every fourth pinned to one key.
    std::vector<Event> events;
    std::vector<size_t> window_ends;
    double t_ms = 0, x = 0, key = keys[0], m = 0;
    while (events.size() < 2400) {
      const size_t size = static_cast<size_t>(rng.UniformInt(1, 130));
      const bool single_key = window_ends.size() % 4 == 3;
      for (size_t i = 0; i < size; ++i) {
        t_ms += rng.Bernoulli(0.02) ? 900 : 33;
        x = std::clamp(x + rng.Uniform(-12, 12), -60.0, 60.0);
        if (!single_key && rng.Bernoulli(0.3)) {
          key = keys[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(keys.size()) - 1))];
        }
        if (rng.Bernoulli(0.3)) {
          m = m_values[rng.UniformInt(0, 5)];
        }
        events.push_back(Event(DurationFromMillis(t_ms), {x, key, m}));
      }
      window_ends.push_back(events.size());
    }
    const size_t late_query = queries.size() - 1;
    const size_t join_window = window_ends.size() / 3;
    const size_t leave_window = 2 * window_ends.size() / 3;

    MatcherOptions options;
    options.mode = exhaustive ? MatcherOptions::Mode::kExhaustive
                              : MatcherOptions::Mode::kDominant;
    MultiPatternMatcher multi(options);
    std::vector<std::unique_ptr<NfaMatcher>> oracles;
    std::vector<size_t> live;  // query per matcher index
    for (size_t q = 0; q < late_query; ++q) {
      multi.AddPattern(&bare[q], queries[q].gate < 0
                                     ? nullptr
                                     : &gates[static_cast<size_t>(
                                           queries[q].gate)]);
      live.push_back(q);
    }
    oracles.resize(queries.size());
    for (size_t q = 0; q < late_query; ++q) {
      oracles[q] = std::make_unique<NfaMatcher>(&conjoined[q], options);
    }

    size_t begin = 0;
    std::vector<MultiPatternMatcher::MultiMatch> actual;
    std::vector<PatternMatch> oracle_out;
    for (size_t w = 0; w < window_ends.size(); ++w) {
      if (w == join_window) {
        multi.AddPattern(&bare[late_query], &gates[late_gate]);
        live.push_back(late_query);
        oracles[late_query] =
            std::make_unique<NfaMatcher>(&conjoined[late_query], options);
      } else if (w == leave_window) {
        multi.RemovePattern(static_cast<int>(live.size()) - 1);
        live.pop_back();
      }
      const size_t end = window_ends[w];
      actual.clear();
      multi.ProcessBatch(events.data() + begin, end - begin, &actual);
      size_t next = 0;
      for (size_t b = begin; b < end; ++b) {
        for (size_t index = 0; index < live.size(); ++index) {
          oracle_out.clear();
          oracles[live[index]]->Process(events[b], &oracle_out);
          for (const PatternMatch& match : oracle_out) {
            ASSERT_LT(next, actual.size()) << "window " << w;
            EXPECT_EQ(actual[next].pattern_index, static_cast<int>(index));
            EXPECT_EQ(actual[next].batch_index, static_cast<int>(b - begin));
            EXPECT_EQ(actual[next].match.state_times, match.state_times);
            ++next;
          }
        }
      }
      ASSERT_EQ(next, actual.size()) << "window " << w;
      total_matches += next;
      begin = end;
    }
    if (!exhaustive) {
      // Disjoint single-interval gates on k leave no general-path group;
      // an overlapping gate sends every k gate back to the bank.
      if (shape == 0) {
        EXPECT_EQ(multi.general_gate_groups(), 0u);
      } else if (shape == 1) {
        EXPECT_GT(multi.general_gate_groups(), 0u);
      }
    }
  }
  EXPECT_GT(total_matches, 0u);
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
