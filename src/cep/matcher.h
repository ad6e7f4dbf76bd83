// NfaMatcher: runs a CompiledPattern over an event stream.
//
// Two execution modes (DESIGN.md 2.4, experiment E10):
//
//  * kDominant (default): keeps exactly one run per NFA state. Because all
//    temporal constraints are upper bounds of the form
//    t[to] - t[from] <= max_gap and predicates are history-free, a run whose
//    entry timestamps are componentwise later satisfies every constraint an
//    older run would. The run produced by always advancing the dominant run
//    of the previous state is itself dominant, so match *existence* is
//    detected exactly. O(num_states) memory, at most one predicate
//    evaluation per state per event.
//
//  * kExhaustive: keeps every partial run and branches on each possible
//    advance (skip-till-any-match semantics). Enumerates all match
//    combinations, which `select all` needs; also the ground truth oracle
//    for the dominance property tests. Run count is capped; overflow drops
//    the oldest run and increments a statistic.
//
// Sequence semantics: states are matched by strictly later events (one
// event advances a given run by at most one state). Events that match no
// predicate are skipped (skip-till-next-match), which is what gesture
// detection over a 30 Hz sensor stream requires.

#ifndef EPL_CEP_MATCHER_H_
#define EPL_CEP_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "cep/nfa.h"
#include "stream/event.h"

namespace epl::cep {

class PredicateBank;

/// One completed match: entry timestamp of every state.
struct PatternMatch {
  std::vector<TimePoint> state_times;

  TimePoint start_time() const { return state_times.front(); }
  TimePoint end_time() const { return state_times.back(); }
};

struct MatcherOptions {
  enum class Mode { kDominant, kExhaustive };

  Mode mode = Mode::kDominant;
  /// Maximum live runs in exhaustive mode.
  size_t max_runs = 65536;
};

struct MatcherStats {
  uint64_t events = 0;
  uint64_t predicate_evaluations = 0;
  /// Predicate lookups answered without running an ExprProgram: per-event
  /// memoization hits (states sharing a distinct predicate) and values
  /// served by a shared PredicateBank via ProcessShared.
  uint64_t predicate_cache_hits = 0;
  uint64_t matches = 0;
  uint64_t dropped_runs = 0;
  size_t peak_runs = 0;
};

/// Externalized live run state of one matcher: every partial run plus the
/// accumulated statistics, detached from any matcher instance. This is the
/// unit a checkpoint serializes (durability::Snapshot) and a recovered
/// matcher is reseeded from; ExportRunState/ImportRunState round-trip it
/// exactly.
struct NfaRunState {
  struct Run {
    int state = 0;                 // highest matched state index
    std::vector<TimePoint> times;  // entry timestamps of states 0..state
  };
  /// Dominant mode: at most one run per state. Exhaustive mode: runs in
  /// creation order (ordering is observable through `select all` output).
  std::vector<Run> runs;
  MatcherStats stats;
};

class NfaMatcher {
 public:
  /// `pattern` must outlive the matcher.
  explicit NfaMatcher(const CompiledPattern* pattern,
                      MatcherOptions options = MatcherOptions());

  NfaMatcher(const NfaMatcher&) = delete;
  NfaMatcher& operator=(const NfaMatcher&) = delete;
  NfaMatcher(NfaMatcher&&) = default;

  /// Feeds one event; appends completed matches to `out` (not cleared).
  /// Events must arrive in non-decreasing timestamp order.
  void Process(const stream::Event& event, std::vector<PatternMatch>* out);

  /// Like Process, but predicate truth is read from `bank` instead of
  /// evaluated here: `event` is in-window event `batch_index` of the
  /// bank's last EvaluateBatch, and `bank_ids[i]` is the bank predicate id
  /// of distinct predicate `i` (see CompiledPattern::predicate_id), with
  /// num_distinct_predicates() entries. Lookups stay lazy -- only
  /// predicates the NFA actually consults are read -- and count as
  /// predicate_cache_hits. Used by MultiPatternMatcher, which evaluates one
  /// shared PredicateBank per window for all deployed patterns.
  void ProcessShared(const stream::Event& event, size_t batch_index,
                     const PredicateBank& bank, const int* bank_ids,
                     std::vector<PatternMatch>* out);

  /// Discards all partial runs.
  void Reset();

  /// Externalizes every partial run and the statistics (non-destructive).
  NfaRunState ExportRunState() const;

  /// Replaces the matcher's run state and statistics with a previously
  /// exported one. Validates `state` against the pattern (state bounds,
  /// times arity, one-run-per-state in dominant mode, the exhaustive run
  /// cap); an invalid import leaves the matcher reset.
  Status ImportRunState(const NfaRunState& state);

  const MatcherStats& stats() const { return stats_; }
  size_t active_run_count() const;
  const CompiledPattern& pattern() const { return *pattern_; }

 private:
  // The flattened multi-pattern runtime externalizes a fused pattern's
  // dominant-mode run state (dominant_runs_/dominant_active_) and
  // statistics into its columnar arena; Extract/Adopt move them back and
  // forth so a standalone NfaMatcher stays the behavioral oracle.
  friend class MultiPatternMatcher;

  struct Run {
    int state = 0;  // highest matched state index
    std::vector<TimePoint> times;
  };

  void ProcessDominant(const stream::Event& event,
                       std::vector<PatternMatch>* out);
  void ProcessExhaustive(const stream::Event& event,
                         std::vector<PatternMatch>* out);

  bool EvalPredicate(int state, const stream::Event& event);
  bool ConstraintsSatisfied(int state, const std::vector<TimePoint>& times,
                            TimePoint now) const;

  const CompiledPattern* pattern_;
  MatcherOptions options_;
  MatcherStats stats_;

  // Shared-bank evaluation context, set for the duration of ProcessShared.
  const PredicateBank* shared_bank_ = nullptr;
  const int* shared_bank_ids_ = nullptr;
  size_t shared_batch_index_ = 0;

  // Dominant mode: one run per state (runs_[k] holds entries 0..k).
  std::vector<std::vector<TimePoint>> dominant_runs_;
  std::vector<bool> dominant_active_;

  // Exhaustive mode.
  std::deque<Run> runs_;

  // Per-event predicate memoization, indexed by distinct predicate id
  // (CompiledPattern::predicate_id): -1 unknown, 0 false, 1 true.
  std::vector<int8_t> predicate_cache_;
};

}  // namespace epl::cep

#endif  // EPL_CEP_MATCHER_H_
