// Flattened multi-pattern runtime benchmarks: events/s of the columnar
// arena (MultiPatternMatcher) at 16/64/256 concurrent learned queries,
// and PredicateBank build cost at 2.5k / 10k distinct predicates (the
// checkpoint+delta region index is O(P^2/stride + P log P), a
// stride-factor cut over the dense O(P^2) index; compare the two build
// times in BENCH_flat_runtime.json).
//
// Program startup first runs a fused-vs-flattened cross-check: the
// flattened runtime must produce bit-identical matches to standalone
// NfaMatchers (the behavioral oracle) in both dominant and exhaustive
// mode, so the CI bench smoke doubles as an equivalence gate (it aborts
// before any benchmark runs, regardless of --benchmark_filter).

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "cep/multi_matcher.h"
#include "cep/pattern.h"
#include "cep/predicate_bank.h"
#include "cep/simd.h"
#include "core/query_gen.h"
#include "exp_util.h"
#include "query/compiler.h"
#include "stream/schema.h"

namespace epl {
namespace {

std::vector<query::CompiledQuery> CompiledVariants(int count) {
  std::vector<query::CompiledQuery> compiled;
  compiled.reserve(static_cast<size_t>(count));
  for (const core::GestureDefinition& definition :
       bench::LearnedVariants(count)) {
    Result<query::ParsedQuery> parsed = core::GenerateQuery(definition);
    EPL_CHECK(parsed.ok()) << parsed.status();
    Result<query::CompiledQuery> query =
        query::CompileQuery(*parsed, kinect::KinectSchema());
    EPL_CHECK(query.ok()) << query.status();
    compiled.push_back(std::move(query).value());
  }
  return compiled;
}

/// The flattened runtime against the standalone per-query oracle: every
/// pattern's match stream must be bit-identical, whether events are fed
/// one at a time (windows of one) or in larger ProcessBatch windows.
void VerifyFlatEquivalence(cep::MatcherOptions::Mode mode,
                           size_t batch_size) {
  std::vector<query::CompiledQuery> queries = CompiledVariants(16);
  cep::MatcherOptions options;
  options.mode = mode;
  cep::MultiPatternMatcher multi(options);
  std::vector<std::unique_ptr<cep::NfaMatcher>> oracle;
  for (const query::CompiledQuery& query : queries) {
    multi.AddPattern(&query.pattern);
    oracle.push_back(
        std::make_unique<cep::NfaMatcher>(&query.pattern, options));
  }

  const std::vector<stream::Event>& events = bench::MatchWorkload();
  std::vector<std::vector<cep::PatternMatch>> flat(queries.size());
  std::vector<std::vector<cep::PatternMatch>> reference(queries.size());
  std::vector<cep::MultiPatternMatcher::MultiMatch> scratch;
  size_t pos = 0;
  while (pos < events.size()) {
    const size_t chunk = std::min(batch_size, events.size() - pos);
    scratch.clear();
    if (batch_size <= 1) {
      multi.Process(events[pos], &scratch);
    } else {
      multi.ProcessBatch(events.data() + pos, chunk, &scratch);
    }
    for (cep::MultiPatternMatcher::MultiMatch& match : scratch) {
      flat[static_cast<size_t>(match.pattern_index)].push_back(
          std::move(match.match));
    }
    pos += chunk;
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const stream::Event& event : events) {
      oracle[q]->Process(event, &reference[q]);
    }
  }

  size_t total = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    EPL_CHECK(flat[q].size() == reference[q].size())
        << queries[q].name << ": " << flat[q].size() << " vs "
        << reference[q].size() << " matches (batch " << batch_size << ")";
    for (size_t m = 0; m < flat[q].size(); ++m) {
      EPL_CHECK(flat[q][m].state_times == reference[q][m].state_times)
          << queries[q].name << " match " << m
          << " diverged from the NfaMatcher oracle (batch " << batch_size
          << ")";
    }
    total += flat[q].size();
  }
  EPL_CHECK(total > 0) << "equivalence workload produced no matches";
}

/// Batched-vs-per-event dominance: ProcessBatch at B=32 must not be
/// slower than per-event Process (windows of one) on the same 256-query
/// workload (the regression the SIMD gate grid fixed). Wall-clock best-of-N with a
/// noise slack, so a CI-runner hiccup cannot flake the gate while a real
/// return of the regression (batched 2x slower pre-fix) still trips it.
void VerifyBatchedDominance() {
  constexpr int kQueries = 256;
  constexpr size_t kBatch = 32;
  constexpr int kPasses = 3;
  constexpr double kSlack = 0.85;  // batched >= 85% of per-event events/s
  std::vector<query::CompiledQuery> queries = CompiledVariants(kQueries);
  const std::vector<stream::Event>& events = bench::MatchWorkload();
  std::vector<cep::MultiPatternMatcher::MultiMatch> scratch;

  auto time_once = [&](auto&& run) {
    cep::MultiPatternMatcher multi;
    for (const query::CompiledQuery& query : queries) {
      multi.AddPattern(&query.pattern);
    }
    const auto start = std::chrono::steady_clock::now();
    run(multi);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  auto run_per_event = [&](cep::MultiPatternMatcher& multi) {
    for (const stream::Event& event : events) {
      scratch.clear();
      multi.Process(event, &scratch);
      benchmark::DoNotOptimize(scratch.size());
    }
  };
  auto run_batched = [&](cep::MultiPatternMatcher& multi) {
    size_t pos = 0;
    while (pos < events.size()) {
      const size_t chunk = std::min(kBatch, events.size() - pos);
      scratch.clear();
      multi.ProcessBatch(events.data() + pos, chunk, &scratch);
      benchmark::DoNotOptimize(scratch.size());
      pos += chunk;
    }
  };
  // Passes ALTERNATE modes so slow drift of the machine (frequency,
  // cache, a co-tenant ramping up) hits both sides alike instead of
  // biasing whichever mode happened to be timed second.
  double per_event = std::numeric_limits<double>::infinity();
  double batched = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < kPasses; ++pass) {
    per_event = std::min(per_event, time_once(run_per_event));
    batched = std::min(batched, time_once(run_batched));
  }
  EPL_CHECK(batched <= per_event / kSlack)
      << "batched (B=" << kBatch << ") slower than per-event at " << kQueries
      << " queries: " << batched << "s vs " << per_event
      << "s (dispatch: " << cep::simd::DispatchName() << ")";
}

/// Run the cross-check at program start, not lazily inside a benchmark:
/// the gate must hold even when a --benchmark_filter skips every
/// benchmark that would have tripped it. The legs cover window sizes 1, 8
/// and 64 of the one sweep path both benchmarks below measure.
const bool kFlatEquivalenceVerified = [] {
  VerifyFlatEquivalence(cep::MatcherOptions::Mode::kDominant, 1);
  VerifyFlatEquivalence(cep::MatcherOptions::Mode::kDominant, 8);
  VerifyFlatEquivalence(cep::MatcherOptions::Mode::kDominant, 64);
  VerifyFlatEquivalence(cep::MatcherOptions::Mode::kExhaustive, 1);
  VerifyFlatEquivalence(cep::MatcherOptions::Mode::kExhaustive, 8);
  VerifyBatchedDominance();
  // Which kernel table served this run, recorded into the JSON context
  // block so artifact diffs across machines are attributable.
  benchmark::AddCustomContext("simd_dispatch", cep::simd::DispatchName());
  return true;
}();

/// The columnar arena end to end: one MultiPatternMatcher serving N
/// distinct learned queries that all fire on the workload.
void BM_FlatRuntimeConcurrentQueries(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));
  std::vector<query::CompiledQuery> queries = CompiledVariants(num_queries);
  cep::MultiPatternMatcher multi;
  for (const query::CompiledQuery& query : queries) {
    multi.AddPattern(&query.pattern);
  }
  const std::vector<stream::Event>& events = bench::MatchWorkload();
  std::vector<cep::MultiPatternMatcher::MultiMatch> scratch;
  uint64_t matches = 0;
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      scratch.clear();
      multi.Process(event, &scratch);
      matches += scratch.size();
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["queries"] = num_queries;
  state.counters["bank_predicates"] = multi.bank().num_predicates();
  const cep::PredicateBankStats& bank_stats = multi.bank().stats();
  const double stabs = static_cast<double>(bank_stats.region_memo_hits +
                                           bank_stats.region_searches);
  state.counters["memo_hit_rate"] =
      stabs > 0 ? static_cast<double>(bank_stats.region_memo_hits) / stabs
                : 0.0;
}
BENCHMARK(BM_FlatRuntimeConcurrentQueries)->Arg(16)->Arg(64)->Arg(256);

/// The batch sweep: events/s of ProcessBatch at window size B (range 0)
/// under N concurrent queries (range 1). B = 1 is
/// BM_FlatRuntimeConcurrentQueries (Process is a window of one); rising B
/// amortizes the per-pattern sweep setup and the bank's per-field walk.
void BM_FlatRuntimeBatched(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  const int num_queries = static_cast<int>(state.range(1));
  std::vector<query::CompiledQuery> queries = CompiledVariants(num_queries);
  cep::MultiPatternMatcher multi;
  for (const query::CompiledQuery& query : queries) {
    multi.AddPattern(&query.pattern);
  }
  const std::vector<stream::Event>& events = bench::MatchWorkload();
  std::vector<cep::MultiPatternMatcher::MultiMatch> scratch;
  uint64_t matches = 0;
  for (auto _ : state) {
    size_t pos = 0;
    while (pos < events.size()) {
      const size_t chunk = std::min(batch_size, events.size() - pos);
      scratch.clear();
      multi.ProcessBatch(events.data() + pos, chunk, &scratch);
      matches += scratch.size();
      pos += chunk;
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["queries"] = num_queries;
}
BENCHMARK(BM_FlatRuntimeBatched)
    ->Args({8, 16})
    ->Args({32, 16})
    ->Args({128, 16})
    ->Args({8, 64})
    ->Args({32, 64})
    ->Args({128, 64})
    ->Args({8, 256})
    ->Args({32, 256})
    ->Args({128, 256});

/// Bank construction at paper-scale predicate counts. The checkpoint+delta
/// region index cuts build time and index_bytes by the stride factor:
/// compare the 2500 and 10000 rows (a dense per-region bitset index grows
/// ~16x from 2500 to 10000; this one grows ~5x).
void BM_BankBuildManyPredicates(benchmark::State& state) {
  const int num_predicates = static_cast<int>(state.range(0));
  const stream::Schema schema(std::vector<std::string>{"x", "y", "z"});
  const char* kFields[] = {"x", "y", "z"};
  std::vector<cep::CompiledPattern> patterns;
  patterns.reserve(static_cast<size_t>(num_predicates));
  for (int i = 0; i < num_predicates; ++i) {
    // Distinct center per predicate => no dedup; ~P/3 intervals per field.
    cep::PatternExprPtr pose = cep::PatternExpr::Pose(
        "s", cep::Expr::RangePredicate(kFields[i % 3], -2500.0 + 0.5 * i,
                                       5.0 + 3.0 * (i % 7)));
    Result<cep::CompiledPattern> compiled =
        cep::CompiledPattern::Compile(*pose, schema);
    EPL_CHECK(compiled.ok()) << compiled.status();
    patterns.push_back(std::move(compiled).value());
  }

  size_t index_bytes = 0;
  for (auto _ : state) {
    cep::PredicateBank bank;
    for (const cep::CompiledPattern& pattern : patterns) {
      benchmark::DoNotOptimize(bank.RegisterPattern(pattern));
    }
    bank.Build();
    EPL_CHECK(bank.num_decomposable() == num_predicates);
    index_bytes = bank.index_bytes();
    benchmark::DoNotOptimize(index_bytes);
  }
  state.counters["predicates"] = num_predicates;
  state.counters["index_bytes"] = static_cast<double>(index_bytes);
}
BENCHMARK(BM_BankBuildManyPredicates)
    ->Arg(2500)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace epl
