// Run-state round-trip property: a query split-resumed THROUGH THE
// DURABILITY CODEC -- run the prefix of a workload, export its live NFA
// runs (both the checkpoint-path ExportQueryRunState and the
// rebalancing-path ExtractQuery), serialize with EncodeRunState, decode,
// and seed a fresh operator and a fresh ShardedEngine that run the
// suffix -- produces detections bit-identical to the query running the
// whole workload uninterrupted. Exercised in dominant and exhaustive
// mode, ungated and with active session gate groups, per-event and
// batched, with a composite query over the base detections, at several
// cut points. Cut 0 restores every query from empty run state, which
// must behave exactly like adding it.

#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cep/composite.h"
#include "cep/multi_match_operator.h"
#include "cep/sharded_engine.h"
#include "cep_workload_test_util.h"
#include "core/query_gen.h"
#include "durability/codec.h"
#include "durability/snapshot.h"
#include "kinect/sensor.h"
#include "query/compiler.h"
#include "test_util.h"

namespace epl::cep {
namespace {

using stream::Event;
using testing::DetectionRecord;
using testing::MakeSpec;
using testing::Recorder;
using testing::TrainedDefinitions;
using testing::Workload;

constexpr int kSessions = 3;

struct WorkloadCase {
  stream::Schema schema;
  std::vector<Event> events;
  std::vector<core::GestureDefinition> definitions;
  /// Per-session gates (empty when ungated); kept alive for the specs
  /// sharing them.
  std::vector<std::shared_ptr<const CompiledPattern>> gates;
};

WorkloadCase MakeSetup(bool gated) {
  WorkloadCase setup;
  setup.schema = kinect::KinectSchema();
  setup.events = Workload(7);
  setup.definitions = TrainedDefinitions(6);
  if (gated) {
    // Multi-session form: a trailing session id cycling per event, one
    // gate per session, so every gate flips open/shut throughout the run.
    setup.schema.AddField("session");
    for (size_t i = 0; i < setup.events.size(); ++i) {
      setup.events[i].values.push_back(
          static_cast<double>(i % kSessions));
    }
    for (int k = 0; k < kSessions; ++k) {
      ExprPtr expr =
          Expr::RangePredicate("session", static_cast<double>(k), 0.5);
      PatternExprPtr pose = PatternExpr::Pose("kinect", std::move(expr));
      Result<CompiledPattern> gate =
          CompiledPattern::Compile(*pose, setup.schema);
      EPL_CHECK(gate.ok()) << gate.status();
      setup.gates.push_back(std::make_shared<const CompiledPattern>(
          std::move(gate).value()));
    }
  }
  return setup;
}

/// Number of queries of a setup: one per definition, plus a level-1
/// composite sequencing the detections of the first two.
size_t NumQueries(const WorkloadCase& setup) {
  return setup.definitions.size() + 1;
}

/// Compiles query `q` fresh (every deployment gets its own compiled
/// body) with its session gate when gated. Base queries
/// carry their derived-event tag; the last query is the composite.
MultiMatchOperator::QuerySpec BuildSpec(const WorkloadCase& setup, size_t q,
                                        DetectionCallback callback) {
  if (q == setup.definitions.size()) {
    std::vector<PatternExprPtr> poses;
    for (size_t input = 0; input < 2; ++input) {
      const double tag = GestureTag(setup.definitions[input].name);
      poses.push_back(PatternExpr::Pose(
          kDetectionStreamName,
          Expr::RangePredicate(kDetectionGestureField, tag, 0.5)));
    }
    Result<CompiledPattern> compiled = CompiledPattern::Compile(
        *PatternExpr::Sequence(std::move(poses), std::nullopt,
                               WithinMode::kSpan),
        DetectionSchema());
    EPL_CHECK(compiled.ok()) << compiled.status();
    MultiMatchOperator::QuerySpec spec;
    spec.output_name = "composite";
    spec.pattern = std::move(compiled).value();
    spec.callback = std::move(callback);
    spec.level = 1;
    return spec;
  }
  Result<query::ParsedQuery> parsed =
      core::GenerateQuery(setup.definitions[q]);
  EPL_CHECK(parsed.ok()) << parsed.status();
  Result<query::CompiledQuery> compiled =
      query::CompileQuery(*parsed, setup.schema);
  EPL_CHECK(compiled.ok()) << compiled.status();
  MultiMatchOperator::QuerySpec spec =
      MakeSpec(std::move(compiled).value(), std::move(callback));
  spec.tag = GestureTag(setup.definitions[q].name);
  if (!setup.gates.empty()) {
    spec.gate = setup.gates[q % kSessions];
  }
  return spec;
}

/// One EncodeRunState -> bytes -> DecodeRunState pass; every checkpoint
/// and recovery crosses exactly this boundary.
NfaRunState ThroughCodec(const NfaRunState& state) {
  durability::ByteWriter out;
  durability::EncodeRunState(state, &out);
  durability::ByteReader in(out.str());
  Result<NfaRunState> decoded = durability::DecodeRunState(&in);
  EPL_CHECK(decoded.ok()) << decoded.status();
  EPL_CHECK(in.done());
  return std::move(decoded).value();
}

class RunStateRoundTripTest
    : public ::testing::TestWithParam<std::tuple<MatcherOptions::Mode, bool>> {
};

TEST_P(RunStateRoundTripTest, SplitResumeIsBitIdentical) {
  MatcherOptions options;
  options.mode = std::get<0>(GetParam());
  const bool gated = std::get<1>(GetParam());
  const WorkloadCase setup = MakeSetup(gated);
  const size_t n = setup.events.size();

  for (size_t batch_size : {size_t{1}, size_t{5}}) {
    // Continuous reference.
    std::vector<DetectionRecord> reference;
    {
      MultiMatchOperator op(options, batch_size);
      for (size_t q = 0; q < NumQueries(setup); ++q) {
        op.AddQuery(BuildSpec(setup, q, Recorder(&reference)));
      }
      for (const Event& event : setup.events) {
        EPL_ASSERT_OK(op.Process(event));
      }
      op.FlushBatchedEvents();
    }
    ASSERT_FALSE(reference.empty());
    size_t composite_detections = 0;
    for (const DetectionRecord& record : reference) {
      composite_detections += record.name == "composite";
    }
    ASSERT_GT(composite_detections, 0u);

    for (size_t cut : {size_t{0}, n / 4, n / 2, 3 * n / 4}) {
      SCOPED_TRACE("batch " + std::to_string(batch_size) + " cut " +
                   std::to_string(cut));
      std::vector<DetectionRecord> detections;  // prefix + suffix combined
      MultiMatchOperator a(options, batch_size);
      std::vector<int> ids;
      for (size_t q = 0; q < NumQueries(setup); ++q) {
        ids.push_back(a.AddQuery(BuildSpec(setup, q, Recorder(&detections))));
      }
      for (size_t i = 0; i < cut; ++i) {
        EPL_ASSERT_OK(a.Process(setup.events[i]));
      }

      // Move every query across the codec boundary into a fresh operator
      // and a fresh two-shard engine: even ids (and the composite, which
      // never migrates) via the non-destructive checkpoint export, odd
      // ids via destructive extraction (the detached matcher serializes
      // the same way).
      MultiMatchOperator b(options, batch_size);
      ShardedEngineOptions sharded_options;
      sharded_options.num_shards = 2;
      sharded_options.batch_size = batch_size;
      sharded_options.matcher = options;
      ShardedEngine c(sharded_options);
      std::vector<DetectionRecord> sharded_detections;
      for (size_t q = 0; q < NumQueries(setup); ++q) {
        NfaRunState state;
        if (q % 2 == 0 || q == setup.definitions.size()) {
          EPL_ASSERT_OK_AND_ASSIGN(state, a.ExportQueryRunState(ids[q]));
        } else {
          EPL_ASSERT_OK_AND_ASSIGN(MultiMatchOperator::DetachedQuery detached,
                                   a.ExtractQuery(ids[q]));
          state = detached.matcher->ExportRunState();
        }
        const NfaRunState decoded = ThroughCodec(state);
        EPL_ASSERT_OK_AND_ASSIGN(
            int new_id,
            b.RestoreQuery(BuildSpec(setup, q, Recorder(&detections)),
                           decoded));
        // The restored query re-exports exactly what was imported.
        EPL_ASSERT_OK_AND_ASSIGN(NfaRunState reexported,
                                 b.ExportQueryRunState(new_id));
        ASSERT_EQ(reexported.runs.size(), decoded.runs.size());
        for (size_t r = 0; r < reexported.runs.size(); ++r) {
          EXPECT_EQ(reexported.runs[r].state, decoded.runs[r].state);
          EXPECT_EQ(reexported.runs[r].times, decoded.runs[r].times);
        }
        EXPECT_EQ(reexported.stats.events, decoded.stats.events);
        EXPECT_EQ(reexported.stats.matches, decoded.stats.matches);
        Result<int> sharded_id =
            c.RestoreQuery(BuildSpec(setup, q, Recorder(&sharded_detections)),
                           decoded);
        EPL_ASSERT_OK(sharded_id.status());
      }
      // Both destinations resume from the same delivered prefix.
      sharded_detections = detections;

      for (size_t i = cut; i < n; ++i) {
        EPL_ASSERT_OK(b.Process(setup.events[i]));
      }
      b.FlushBatchedEvents();
      ASSERT_EQ(detections, reference);

      EPL_ASSERT_OK(c.Start());
      for (size_t i = cut; i < n; ++i) {
        ASSERT_TRUE(c.Push(setup.events[i]));
      }
      EPL_ASSERT_OK(c.Stop());
      ASSERT_EQ(sharded_detections, reference);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RunStateRoundTripTest,
    ::testing::Combine(::testing::Values(MatcherOptions::Mode::kDominant,
                                         MatcherOptions::Mode::kExhaustive),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<MatcherOptions::Mode, bool>>&
           info) {
      std::string name = std::get<0>(info.param) ==
                                 MatcherOptions::Mode::kDominant
                             ? "Dominant"
                             : "Exhaustive";
      name += std::get<1>(info.param) ? "Gated" : "Ungated";
      return name;
    });

// Invalid run states must be rejected without adding the query.

TEST(RunStateRoundTripTest, RejectsOutOfBoundsStateIndex) {
  const WorkloadCase setup = MakeSetup(false);
  MultiMatchOperator op{MatcherOptions()};
  NfaRunState bogus;
  bogus.runs.resize(1);
  bogus.runs[0].state = 1000;  // far past the pattern's last state
  bogus.runs[0].times = {1, 2, 3};
  Result<int> restored =
      op.RestoreQuery(BuildSpec(setup, 0, [](const Detection&) {}), bogus);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(op.num_queries(), 0u);
}

TEST(RunStateRoundTripTest, RejectsWrongTimesArity) {
  const WorkloadCase setup = MakeSetup(false);
  MultiMatchOperator op{MatcherOptions()};
  NfaRunState bogus;
  bogus.runs.resize(1);
  bogus.runs[0].state = 1;
  bogus.runs[0].times = {1, 2, 3, 4, 5};  // arity must be state + 1
  Result<int> restored =
      op.RestoreQuery(BuildSpec(setup, 0, [](const Detection&) {}), bogus);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(op.num_queries(), 0u);
}

TEST(RunStateRoundTripTest, RejectsRunCountPastExhaustiveCap) {
  const WorkloadCase setup = MakeSetup(false);
  MatcherOptions options;
  options.mode = MatcherOptions::Mode::kExhaustive;
  options.max_runs = 4;
  MultiMatchOperator op(options);
  NfaRunState bogus;
  bogus.runs.resize(5);  // one past the cap
  for (auto& run : bogus.runs) {
    run.state = 0;
    run.times = {1};
  }
  Result<int> restored =
      op.RestoreQuery(BuildSpec(setup, 0, [](const Detection&) {}), bogus);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(op.num_queries(), 0u);
}

}  // namespace
}  // namespace epl::cep
