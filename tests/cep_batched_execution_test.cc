// Batch-boundary behavior of the flat runtime, end to end: matcher-level
// chunking equivalence (per-event Process is a window of one, so every
// chunk size must agree with it), the counters of windows of one,
// partial runs spanning batch edges, MultiMatchOperator window
// accumulation (control operations flush first; feeding events or
// adding/removing queries from a callback dies), and ShardedEngine workers
// executing whole fan-out batches as one matcher sweep without perturbing
// the deterministic merge order.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cep/multi_match_operator.h"
#include "cep/multi_matcher.h"
#include "cep/pattern.h"
#include "cep/sharded_engine.h"
#include "cep_workload_test_util.h"
#include "common/rng.h"
#include "query/compiler.h"
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

const stream::Schema& XSchema() {
  static const stream::Schema* schema =
      new stream::Schema(std::vector<std::string>{"x"});
  return *schema;
}

/// A chain pattern over field x: one pose per (center, width) range.
CompiledPattern CompileChain(
    const std::vector<std::pair<double, double>>& ranges,
    std::optional<Duration> within = std::nullopt) {
  std::vector<PatternExprPtr> poses;
  poses.reserve(ranges.size());
  for (const auto& [center, width] : ranges) {
    poses.push_back(
        PatternExpr::Pose("s", Expr::RangePredicate("x", center, width)));
  }
  Result<CompiledPattern> compiled = CompiledPattern::Compile(
      *PatternExpr::Sequence(std::move(poses), within, WithinMode::kGap),
      XSchema());
  EPL_CHECK(compiled.ok()) << compiled.status();
  return std::move(compiled).value();
}

Event XEvent(double t_ms, double x) {
  return Event(DurationFromMillis(t_ms), {x});
}

MultiMatchOperator::QuerySpec ChainSpec(
    const std::string& name,
    const std::vector<std::pair<double, double>>& ranges,
    DetectionCallback callback) {
  MultiMatchOperator::QuerySpec spec;
  spec.output_name = name;
  spec.pattern = CompileChain(ranges);
  spec.callback = std::move(callback);
  return spec;
}

/// Per-pattern match streams of a kinect workload under a fixed chunking.
std::vector<std::vector<PatternMatch>> ChunkedMatches(
    const std::vector<query::CompiledQuery>& queries,
    const std::vector<Event>& events, size_t chunk_size,
    MatcherOptions options) {
  MultiPatternMatcher multi(options);
  for (const query::CompiledQuery& query : queries) {
    multi.AddPattern(&query.pattern);
  }
  std::vector<std::vector<PatternMatch>> matches(queries.size());
  std::vector<MultiPatternMatcher::MultiMatch> scratch;
  size_t pos = 0;
  while (pos < events.size()) {
    const size_t chunk = std::min(chunk_size, events.size() - pos);
    scratch.clear();
    if (chunk_size == 0) {  // sentinel: per-event Process reference
      multi.Process(events[pos], &scratch);
      pos += 1;
    } else {
      multi.ProcessBatch(events.data() + pos, chunk, &scratch);
      pos += chunk;
    }
    for (MultiPatternMatcher::MultiMatch& match : scratch) {
      matches[static_cast<size_t>(match.pattern_index)].push_back(
          std::move(match.match));
    }
  }
  return matches;
}

TEST(BatchedExecutionTest, ChunkingIsEquivalentToPerEventProcessing) {
  std::vector<query::CompiledQuery> queries =
      CompileDefinitions(TrainedDefinitions(6));
  std::vector<Event> events = Workload(21);
  for (MatcherOptions::Mode mode : {MatcherOptions::Mode::kDominant,
                                    MatcherOptions::Mode::kExhaustive}) {
    MatcherOptions options;
    options.mode = mode;
    std::vector<std::vector<PatternMatch>> reference =
        ChunkedMatches(queries, events, 0, options);
    size_t total = 0;
    for (const std::vector<PatternMatch>& matches : reference) {
      total += matches.size();
    }
    ASSERT_GT(total, 0u);
    // Chunk 1 exercises ProcessFlatBatch's B=1 degenerate case; the rest
    // place batch edges at varying offsets relative to the matches.
    for (size_t chunk : {size_t{1}, size_t{3}, size_t{7}, size_t{16},
                         size_t{64}, events.size()}) {
      std::vector<std::vector<PatternMatch>> batched =
          ChunkedMatches(queries, events, chunk, options);
      for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(batched[q].size(), reference[q].size())
            << "mode " << static_cast<int>(mode) << " chunk " << chunk
            << " query " << q;
        for (size_t m = 0; m < batched[q].size(); ++m) {
          ASSERT_EQ(batched[q][m].state_times, reference[q][m].state_times)
              << "mode " << static_cast<int>(mode) << " chunk " << chunk
              << " query " << q << " match " << m;
        }
      }
    }
  }
}

TEST(BatchedExecutionTest, PartialRunSpansBatchEdge) {
  CompiledPattern pattern =
      CompileChain({{1.0, 0.4}, {2.0, 0.4}, {3.0, 0.4}}, kSecond);
  MultiPatternMatcher multi;
  multi.AddPattern(&pattern);

  // The run seeds and advances inside the first batch and completes in
  // the second: its entry timestamps must carry across the edge.
  std::vector<Event> events = {XEvent(0, 1.0), XEvent(100, 2.0),
                               XEvent(200, 3.0)};
  std::vector<MultiPatternMatcher::MultiMatch> matches;
  multi.ProcessBatch(events.data(), 2, &matches);
  EXPECT_TRUE(matches.empty());
  multi.ProcessBatch(events.data() + 2, 1, &matches);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].batch_index, 0);
  EXPECT_EQ(matches[0].match.state_times,
            (std::vector<TimePoint>{DurationFromMillis(0),
                                    DurationFromMillis(100),
                                    DurationFromMillis(200)}));
}

const stream::Schema& XgSchema() {
  static const stream::Schema* schema =
      new stream::Schema(std::vector<std::string>{"x", "g"});
  return *schema;
}

template <typename... Predicates>
std::vector<ExprPtr> PredicateList(Predicates... predicates) {
  std::vector<ExprPtr> list;
  (list.push_back(std::move(predicates)), ...);
  return list;
}

/// A pattern over XgSchema: one pose per predicate, gap-bounded.
CompiledPattern CompileXgChain(std::vector<ExprPtr> predicates,
                               std::optional<Duration> within) {
  std::vector<PatternExprPtr> poses;
  for (ExprPtr& predicate : predicates) {
    poses.push_back(PatternExpr::Pose("s", std::move(predicate)));
  }
  Result<CompiledPattern> compiled = CompiledPattern::Compile(
      *PatternExpr::Sequence(std::move(poses), within, WithinMode::kGap),
      XgSchema());
  EPL_CHECK(compiled.ok()) << compiled.status();
  return std::move(compiled).value();
}

/// Figures of one golden configuration: per pattern {events,
/// predicate_cache_hits, matches, peak_runs}, then the bank's {events,
/// region_memo_hits, region_searches, program_evaluations}.
struct CounterGolden {
  std::vector<std::vector<uint64_t>> patterns;
  std::vector<uint64_t> bank;
};

CounterGolden RunCounterWorkload(MatcherOptions::Mode mode, bool gated) {
  std::vector<CompiledPattern> patterns;
  patterns.push_back(CompileXgChain(
      PredicateList(Expr::RangePredicate("x", -20, 15),
                    Expr::RangePredicate("x", 10, 15),
                    Expr::RangePredicate("x", 40, 15)),
      2 * kSecond));
  patterns.push_back(CompileXgChain(
      PredicateList(Expr::RangePredicate("x", 0, 30),
                    Expr::RangePredicate("x", 50, 20)),
      std::nullopt));
  patterns.push_back(CompileXgChain(
      PredicateList(Expr::RangePredicate("x", 60, 10)), std::nullopt));
  // A disjunction is not decomposable: the bank interprets its program.
  patterns.push_back(CompileXgChain(
      PredicateList(Expr::Binary(BinaryOp::kOr,
                                 Expr::RangePredicate("x", -60, 10),
                                 Expr::RangePredicate("x", 80, 10)),
                    Expr::RangePredicate("x", 0, 20)),
      kSecond));
  // Pattern 0 again: identical states share their bank predicates.
  patterns.push_back(CompileXgChain(
      PredicateList(Expr::RangePredicate("x", -20, 15),
                    Expr::RangePredicate("x", 10, 15),
                    Expr::RangePredicate("x", 40, 15)),
      2 * kSecond));

  // One decomposable and one fallback gate over the session-like field g.
  CompiledPattern open_at_one = CompileXgChain(
      PredicateList(Expr::RangePredicate("g", 1, 0.5)), std::nullopt);
  CompiledPattern open_far = CompileXgChain(
      PredicateList(Expr::Binary(BinaryOp::kOr,
                                 Expr::RangePredicate("g", 2, 0.25),
                                 Expr::RangePredicate("g", -2, 0.25))),
      std::nullopt);
  const CompiledPattern* gates[] = {&open_at_one, &open_far, &open_at_one,
                                    nullptr, &open_far};

  MatcherOptions options;
  options.mode = mode;
  MultiPatternMatcher multi(options);
  for (size_t p = 0; p < patterns.size(); ++p) {
    multi.AddPattern(&patterns[p], gated ? gates[p] : nullptr);
  }

  Rng rng(1515);
  double t_ms = 0;
  double x = 0;
  double g = 1;
  std::vector<MultiPatternMatcher::MultiMatch> matches;
  for (int e = 0; e < 3000; ++e) {
    t_ms += rng.Bernoulli(0.01) ? 3000 : 33;
    x = rng.Bernoulli(0.02) ? rng.Uniform(-100, 100)
                            : std::clamp(x + rng.Uniform(-8, 8), -100.0,
                                         100.0);
    if (rng.Bernoulli(0.02)) {
      const double kGateValues[] = {0, 1, 2, -2};
      g = kGateValues[rng.UniformInt(0, 3)];
    }
    const double value =
        rng.Bernoulli(0.005) ? std::numeric_limits<double>::quiet_NaN() : x;
    multi.Process(Event(DurationFromMillis(t_ms), {value, g}), &matches);
  }

  CounterGolden golden;
  for (size_t p = 0; p < patterns.size(); ++p) {
    const MatcherStats& stats = multi.stats(static_cast<int>(p));
    golden.patterns.push_back({stats.events, stats.predicate_cache_hits,
                               stats.matches, stats.peak_runs});
  }
  const PredicateBankStats& bank = multi.bank().stats();
  golden.bank = {bank.events, bank.region_memo_hits, bank.region_searches,
                 bank.program_evaluations};
  return golden;
}

// Per-event Process is a window of one. Its counters must stay exactly
// those the dedicated per-event path (bank Evaluate + per-event flat loop)
// reported; the ungated figures were recorded from that implementation.
TEST(BatchedExecutionTest, WindowOfOneKeepsPerEventCounters) {
  struct Case {
    MatcherOptions::Mode mode;
    bool gated;
    CounterGolden want;
  };
  const Case cases[] = {
      {MatcherOptions::Mode::kDominant,
       false,
       {{{3000, 6574, 6, 2},
         {3000, 4634, 31, 1},
         {3000, 3000, 349, 0},
         {3000, 5493, 9, 1},
         {3000, 6574, 6, 2}},
        {3000, 2468, 520, 2991}}},
      // Gated rows count only the events a gate admits: each equals a
      // standalone NfaMatcher fed just those events (events, evaluations
      // plus cache hits, matches, peak runs), so `events` matches the
      // exhaustive-gated rows. The g == 1 gate takes the key path and
      // leaves the bank, so the bank's memo figures are the ungated ones
      // (field x alone); the `or` gate still costs one program run per
      // event.
      {MatcherOptions::Mode::kDominant,
       true,
       {{{1107, 2369, 3, 2},
         {1245, 1965, 17, 1},
         {1107, 1107, 148, 0},
         {3000, 5493, 9, 1},
         {1245, 2511, 2, 2}},
        {3000, 2468, 520, 5991}}},
      {MatcherOptions::Mode::kExhaustive,
       false,
       {{{3000, 240314, 6, 1771},
         {3000, 61710, 31, 155},
         {3000, 3000, 349, 0},
         {3000, 151561, 9, 153},
         {3000, 240314, 6, 1771}},
        {3000, 2468, 520, 3000}}},
      {MatcherOptions::Mode::kExhaustive,
       true,
       {{{1107, 55291, 3, 223},
         {1245, 16825, 17, 72},
         {1107, 1107, 148, 0},
         {3000, 151561, 9, 153},
         {1245, 73222, 2, 411}},
        {3000, 2468, 520, 6000}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << (c.mode == MatcherOptions::Mode::kDominant ? "dominant"
                                                               : "exhaustive")
                 << (c.gated ? " gated" : " ungated"));
    const CounterGolden got = RunCounterWorkload(c.mode, c.gated);
    EXPECT_EQ(got.patterns, c.want.patterns);
    EXPECT_EQ(got.bank, c.want.bank);
  }
}

TEST(BatchedExecutionTest, OperatorBatchSizeOneKeepsPerEventBehavior) {
  // batch_size 1 (the default) must not accumulate: detections fire
  // inside Process, before the call returns.
  MultiMatchOperator op(MatcherOptions(), /*batch_size=*/1);
  std::vector<DetectionRecord> records;
  op.AddQuery(ChainSpec("every", {{1.0, 0.5}}, Recorder(&records)));
  EPL_ASSERT_OK(op.Process(XEvent(0, 1.0)));
  EXPECT_EQ(records.size(), 1u);
  EPL_ASSERT_OK(op.Process(XEvent(10, 1.0)));
  EXPECT_EQ(records.size(), 2u);
}

TEST(BatchedExecutionTest, ControlOperationsFlushTheAccumulatedWindow) {
  MultiMatchOperator op(MatcherOptions(), /*batch_size=*/100);
  std::vector<DetectionRecord> first_records;
  std::vector<DetectionRecord> second_records;
  const int first_id =
      op.AddQuery(ChainSpec("first", {{1.0, 0.5}}, Recorder(&first_records)));

  // Three events accumulate: nothing is dispatched yet.
  for (int i = 0; i < 3; ++i) {
    EPL_ASSERT_OK(op.Process(XEvent(10.0 * i, 1.0)));
  }
  EXPECT_TRUE(first_records.empty());

  // AddQuery flushes the window first: the buffered events are delivered
  // to the old query set and the new query sees none of them.
  op.AddQuery(ChainSpec("second", {{1.0, 0.5}}, Recorder(&second_records)));
  EXPECT_EQ(first_records.size(), 3u);
  EXPECT_TRUE(second_records.empty());

  // Two more accumulate; RemoveQuery flushes first, so the removed query
  // still sees them.
  for (int i = 3; i < 5; ++i) {
    EPL_ASSERT_OK(op.Process(XEvent(10.0 * i, 1.0)));
  }
  EXPECT_EQ(first_records.size(), 3u);
  EPL_ASSERT_OK(op.RemoveQuery(first_id));
  EXPECT_EQ(first_records.size(), 5u);
  EXPECT_EQ(second_records.size(), 2u);

  // Close flushes the tail; the removed query is gone.
  for (int i = 5; i < 7; ++i) {
    EPL_ASSERT_OK(op.Process(XEvent(10.0 * i, 1.0)));
  }
  EPL_ASSERT_OK(op.Close());
  EXPECT_EQ(first_records.size(), 5u);
  EXPECT_EQ(second_records.size(), 4u);
}

TEST(BatchedExecutionTest, ResetMatchersFlushesTheAccumulatedWindow) {
  MultiMatchOperator op(MatcherOptions(), /*batch_size=*/100);
  std::vector<DetectionRecord> records;
  // 2-state chain: the first event seeds, the second completes.
  op.AddQuery(ChainSpec("pair", {{1.0, 0.5}, {2.0, 0.5}}, Recorder(&records)));
  EPL_ASSERT_OK(op.Process(XEvent(0, 1.0)));
  EPL_ASSERT_OK(op.Process(XEvent(10, 2.0)));
  // The buffered pair must complete BEFORE the reset discards runs; the
  // seed event after it must not pair with pre-reset state.
  op.ResetMatchers();
  EXPECT_EQ(records.size(), 1u);
  EPL_ASSERT_OK(op.Process(XEvent(20, 2.0)));
  EPL_ASSERT_OK(op.Close());
  EXPECT_EQ(records.size(), 1u);  // no seed survived the reset
}

TEST(BatchedExecutionTest, CloseFromInsideACallbackDoesNotRerunTheWindow) {
  auto op = std::make_unique<MultiMatchOperator>(MatcherOptions(),
                                                /*batch_size=*/4);
  std::vector<DetectionRecord> records;
  MultiMatchOperator::QuerySpec spec =
      ChainSpec("every", {{1.0, 0.5}}, nullptr);
  MultiMatchOperator* raw = op.get();
  spec.callback = [&records, raw](const Detection& detection) {
    records.push_back(DetectionRecord{detection.name, detection.time,
                                      detection.pose_times});
    // A re-entrant flush mid-sweep must not process the window twice.
    EPL_EXPECT_OK(raw->Close());
  };
  op->AddQuery(std::move(spec));
  for (int i = 0; i < 4; ++i) {
    EPL_ASSERT_OK(op->Process(XEvent(10.0 * i, 1.0)));
  }
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].time, DurationFromMillis(10.0 * i));
  }
}

// Feeding the operator from inside a detection callback is a contract
// violation at every batch size: at batch_size 1 the nested sweep would
// clear the outer sweep's undispatched matches, at batch_size > 1 it would
// refill the window being dispatched. Both entry points fail loudly.
TEST(BatchedExecutionDeathTest, FeedingFromInsideACallbackDies) {
  for (size_t batch_size : {size_t{1}, size_t{4}}) {
    for (bool via_batch : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "batch_size " << batch_size
                                        << (via_batch ? " ProcessBatch"
                                                      : " Process"));
      EXPECT_DEATH(
          {
            MultiMatchOperator op(MatcherOptions(), batch_size);
            MultiMatchOperator* raw = &op;
            const Event nested = XEvent(1000, 1.0);
            op.AddQuery(ChainSpec(
                "every", {{1.0, 0.5}},
                [raw, &nested, via_batch](const Detection&) {
                  if (via_batch) {
                    (void)raw->ProcessBatch(&nested, 1);
                  } else {
                    (void)raw->Process(nested);
                  }
                }));
            for (int i = 0; i < 4; ++i) {
              (void)op.Process(XEvent(10.0 * i, 1.0));
            }
            (void)op.Close();
          },
          via_batch ? "ProcessBatch from inside a detection callback"
                    : "Process from inside a detection callback");
    }
  }
}

// Mutating the query set from inside a detection callback is a contract
// violation at every batch size: the sweep has already matched the
// window's remaining events against the current queries. Callers defer
// such mutations themselves (GestureRuntime applies them at the next
// PushFrame/Flush boundary).
TEST(BatchedExecutionDeathTest, MutatingQueriesFromInsideACallbackDies) {
  for (size_t batch_size : {size_t{1}, size_t{4}}) {
    for (bool add : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "batch_size " << batch_size
                   << (add ? " AddQuery" : " RemoveQuery"));
      EXPECT_DEATH(
          {
            MultiMatchOperator op(MatcherOptions(), batch_size);
            MultiMatchOperator* raw = &op;
            op.AddQuery(ChainSpec(
                "every", {{1.0, 0.5}}, [raw, add](const Detection&) {
                  if (add) {
                    raw->AddQuery(ChainSpec("late", {{1.0, 0.5}}, nullptr));
                  } else {
                    (void)raw->RemoveQuery(0);
                  }
                }));
            for (int i = 0; i < 4; ++i) {
              (void)op.Process(XEvent(10.0 * i, 1.0));
            }
            (void)op.Close();
          },
          add ? "adding a query from inside a detection callback"
              : "RemoveQuery from inside a detection callback");
    }
  }
}

TEST(BatchedExecutionTest, ShardedBatchedWorkersStayDeterministic) {
  std::vector<core::GestureDefinition> definitions = TrainedDefinitions(5);
  std::vector<Event> events = Workload(29);
  const size_t join_at = events.size() / 2;

  // Reference: unbatched fused operator for the initial four queries over
  // the full stream, and for the late query over the suffix.
  std::vector<DetectionRecord> fused_records;
  {
    MultiMatchOperator op;
    std::vector<query::CompiledQuery> compiled = CompileDefinitions(
        {definitions[0], definitions[1], definitions[2], definitions[3]});
    for (query::CompiledQuery& query : compiled) {
      op.AddQuery(MakeSpec(std::move(query), Recorder(&fused_records)));
    }
    for (const Event& event : events) {
      EPL_ASSERT_OK(op.Process(event));
    }
  }
  std::vector<DetectionRecord> fused_late_records;
  {
    MultiMatchOperator op;
    op.AddQuery(MakeSpec(std::move(CompileDefinitions({definitions[4]})[0]),
                         Recorder(&fused_late_records)));
    for (size_t i = join_at; i < events.size(); ++i) {
      EPL_ASSERT_OK(op.Process(events[i]));
    }
  }
  ASSERT_FALSE(fused_records.empty());
  ASSERT_FALSE(fused_late_records.empty());

  // Engine batch sizes chosen so the mid-stream AddQuery lands inside an
  // accumulating batch (join_at is not a multiple of 5 or 32): the
  // quiesce must flush the partial window before the query set changes.
  for (size_t batch_size : {size_t{1}, size_t{5}, size_t{32}}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    ShardedEngineOptions options;
    options.num_shards = 3;
    options.batch_size = batch_size;
    ShardedEngine sharded(options);
    std::vector<DetectionRecord> records;
    std::vector<DetectionRecord> late_records;
    std::vector<query::CompiledQuery> compiled = CompileDefinitions(
        {definitions[0], definitions[1], definitions[2], definitions[3]});
    for (query::CompiledQuery& query : compiled) {
      sharded.AddQuery(MakeSpec(std::move(query), Recorder(&records)));
    }
    EPL_ASSERT_OK(sharded.Start());
    for (size_t i = 0; i < join_at; ++i) {
      ASSERT_TRUE(sharded.Push(events[i]));
    }
    sharded.AddQuery(
        MakeSpec(std::move(CompileDefinitions({definitions[4]})[0]),
                 Recorder(&late_records)));
    for (size_t i = join_at; i < events.size(); ++i) {
      ASSERT_TRUE(sharded.Push(events[i]));
    }
    EPL_ASSERT_OK(sharded.Stop());
    ASSERT_TRUE(records == fused_records)
        << records.size() << " vs " << fused_records.size() << " records";
    ASSERT_TRUE(late_records == fused_late_records)
        << late_records.size() << " vs " << fused_late_records.size()
        << " late records";
  }
}

}  // namespace
}  // namespace epl::cep
