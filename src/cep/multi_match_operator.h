// MultiMatchOperator: one fused stream operator serving many gesture
// queries, exchangeable at runtime.
//
// Deploying N gesture queries as N MatchOperator subscribers costs
// O(N x states) predicate evaluations per event. This operator subscribes
// once and routes every event through a MultiPatternMatcher, so all queries
// share one PredicateBank evaluation; detections are dispatched to each
// query's callback exactly as MatchOperator would.
//
// Queries can be added and removed while the stream is live (the paper's
// "exchange gestures during runtime" demo): AddQuery/RemoveQuery between
// events take effect immediately (the shared bank is rebuilt lazily by the
// next event, see MultiPatternMatcher). Calling them -- or any other
// mutating entry point -- from inside a detection callback is an
// EPL_CHECK failure: the sweep has already matched the window's remaining
// events against the current query set. Callers that mutate from a
// callback defer the change themselves: GestureRuntime applies it at the
// next PushFrame/Flush boundary on every backend -- with batch_size > 1,
// after the window whose delivery issued it, which is where its WAL
// records it.
//
// Batched execution: with batch_size > 1 the operator accumulates incoming
// events and runs them through MultiPatternMatcher::ProcessBatch in one
// sweep, which amortizes the per-pattern loop overhead of the flattened
// runtime (detection callbacks then fire at flush boundaries, still in
// exact per-event order). Every control operation -- AddQuery /
// RemoveQuery / Extract / Adopt / ResetMatchers / Close -- flushes the
// accumulated window first, so query membership boundaries are untouched
// by batching: a query added (removed) between two Process calls sees
// exactly the events pushed after (before) the call. ProcessBatch(span)
// is the zero-accumulation entry point used by ShardedEngine workers,
// which already receive events in fan-out batches.
//
// Threading contract: this operator is single-threaded like the
// StreamEngine that owns it -- AddQuery/RemoveQuery must be serialized
// with event processing (call them on the dispatch thread between
// pushes; another thread must not mutate a live operator directly). For
// exchanges from arbitrary threads use cep::ShardedEngine, whose control
// operations are internally synchronized.

#ifndef EPL_CEP_MULTI_MATCH_OPERATOR_H_
#define EPL_CEP_MULTI_MATCH_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cep/composite.h"
#include "cep/detection.h"
#include "cep/multi_matcher.h"
#include "common/logging.h"
#include "common/result.h"
#include "stream/operator.h"

namespace epl::cep {

class MultiMatchOperator : public stream::Operator {
 public:
  /// `batch_size` events are accumulated per matcher sweep (1 = process
  /// every event immediately, as a window of one).
  explicit MultiMatchOperator(MatcherOptions options = MatcherOptions(),
                              size_t batch_size = 1);

  /// One gesture query: compiled pattern, optional output measures
  /// (evaluated on the completing event), and the detection callback.
  /// `gate` (optional) is a single-state pattern implied by every state
  /// predicate of `pattern` (see MultiPatternMatcher::AddPattern); queries
  /// sharing a gate form a group the flat runtime can skip with one
  /// predicate read per event. Shared ownership lets many queries of one
  /// session reference a single compiled gate.
  struct QuerySpec {
    std::string output_name;
    CompiledPattern pattern;
    std::vector<ExprProgram> measures;
    DetectionCallback callback;
    std::shared_ptr<const CompiledPattern> gate;
    /// Composite level (see cep/composite.h). 0 = base query matching the
    /// operator's input stream. Level >= 1 queries match over derived
    /// detection events instead: their pattern must be compiled against
    /// DetectionSchema(), `gate` must be null, and each source event's
    /// base detections are fed to them within the same timestamp epoch
    /// in the documented (event-seq, level, query-id) order.
    int level = 0;
    /// Derived-event identity of this query's detections (see
    /// GestureTag); feeds composite levels above this query's own.
    double tag = 0;
    double session_tag = 0;
    /// True when `gate` restricts this query to events whose session
    /// field equals `session_tag` (GestureRuntime's per-session gates).
    /// ShardedEngine uses it to build per-shard interest filters: events
    /// of other sessions are provably no-ops for this query, so routed
    /// fan-out may skip shards hosting only foreign-session queries.
    bool session_scoped = false;
  };

  /// RestoreQuery from empty run state: adds a query and returns its
  /// stable id (monotonic, never reused). Must not be called from inside a
  /// detection callback (EPL_CHECK).
  int AddQuery(QuerySpec spec);

  /// Removes the query with stable id `query_id`, discarding its partial
  /// matches. Must not be called from inside a detection callback
  /// (EPL_CHECK).
  Status RemoveQuery(int query_id);

  /// A query together with the matcher holding its run state: what
  /// ExtractQuery detaches for adoption by another MultiMatchOperator
  /// (ShardedEngine rebalancing), and what MakeQuery builds from a spec.
  struct DetachedQuery {
    InstalledQuery query;
    std::unique_ptr<NfaMatcher> matcher;
  };

  /// The one QuerySpec conversion: the record stored for `spec` plus a
  /// fresh matcher over its pattern built with `options`, for the caller
  /// to seed with NfaMatcher::ImportRunState (level >= 1 specs must not
  /// be gated). The id is left for the installing owner to assign.
  static DetachedQuery MakeQuery(QuerySpec spec, const MatcherOptions& options);

  /// Detaches the query with stable id `query_id` without destroying its
  /// run state. Must not be called from inside a detection callback.
  /// Composite (level >= 1) queries cannot be extracted -- they never
  /// migrate between shards (FailedPrecondition).
  Result<DetachedQuery> ExtractQuery(int query_id);

  /// Installs `detached` -- a query detached from another
  /// MultiMatchOperator, or built by MakeQuery -- with its run state;
  /// returns the query's new stable id here. Must not be called from
  /// inside a detection callback (EPL_CHECK).
  int AdoptQuery(DetachedQuery detached);

  /// Externalizes the live run state and statistics of the query with
  /// stable id `query_id` WITHOUT detaching it (the checkpoint path: the
  /// query keeps running). Flushes the accumulated window first so the
  /// state sits at an exact event boundary. Must not be called from
  /// inside a detection callback.
  Result<NfaRunState> ExportQueryRunState(int query_id);

  /// Adds a query whose matcher is seeded with `runs` (previously
  /// exported run state on checkpoint recovery; empty for AddQuery):
  /// MakeQuery, then AdoptQuery. Returns the query's stable id here;
  /// fails without adding the query when `runs` does not fit the spec's
  /// pattern. Must not be called from inside a detection callback.
  Result<int> RestoreQuery(QuerySpec spec, const NfaRunState& runs);

  /// Feeds one event (buffered into the window when batch_size > 1).
  /// Must not be called from inside a detection callback (EPL_CHECK).
  Status Process(const stream::Event& event) override;

  /// Runs `count` events through the matcher as ONE batch (flushing any
  /// accumulated window first so stream order is kept), then forwards
  /// them downstream. This is the ShardedEngine worker entry point: the
  /// engine's fan-out batches map 1:1 onto matcher sweeps, with no
  /// operator-side accumulation.
  Status ProcessBatch(const stream::Event* events, size_t count);

  /// Processes any accumulated events now. No-op when the window is empty
  /// (always, with batch_size == 1).
  void FlushBatchedEvents();

  /// Called with the in-window event index right before that event's
  /// detections are dispatched during a batch sweep (including
  /// single-event processing, with index 0). ShardedEngine uses it to
  /// stamp recorded matches with exact event sequence numbers.
  using BatchEventHook = std::function<void(size_t)>;
  void set_batch_event_hook(BatchEventHook hook) {
    batch_event_hook_ = std::move(hook);
  }

  /// Flushes the accumulated window so no buffered event outlives the
  /// stream.
  Status Close() override;

  std::string name() const override {
    return "multi_match[" + std::to_string(queries_.size()) + " queries]";
  }

  size_t batch_size() const { return batch_size_; }

  /// Base (level-0) queries only; composite queries live in the runner.
  size_t num_queries() const { return queries_.size(); }
  size_t num_composite_queries() const {
    return composite_ == nullptr ? 0 : composite_->num_queries();
  }
  /// Live matcher statistics of the composite query with stable id
  /// `query_id` (base queries use matcher_stats()).
  Result<MatcherStats> CompositeQueryStats(int query_id) const {
    if (composite_ == nullptr) {
      return NotFoundError("no composite queries");
    }
    return composite_->QueryStats(query_id);
  }
  /// Stable id of the query at `query_index` (registration order).
  int query_id(int query_index) const { return queries_[query_index].id; }
  /// Index of the query with stable id `query_id`, or -1.
  int FindQuery(int query_id) const;
  const std::string& output_name(int query_index) const {
    return queries_[query_index].output_name;
  }
  /// Live statistics of the query at `query_index` (counters only: no
  /// arena run-state copy).
  const MatcherStats& matcher_stats(int query_index) const {
    return matcher_.stats(query_index);
  }
  /// The shared bank's evaluation counters (memo hit rates, batch
  /// broadcast vs recomputed rows) for this operator's matcher.
  const PredicateBankStats& bank_stats() const {
    return matcher_.bank().stats();
  }
  const MultiPatternMatcher& matcher() const { return matcher_; }

  /// Discards partial matches of every query (flushing the accumulated
  /// window first, so events pushed before the call are fully processed).
  /// Must not be called from inside a detection callback: a batched sweep
  /// has already matched the window's remaining events against the
  /// pre-reset runs.
  void ResetMatchers() {
    EPL_CHECK(!processing_) << "ResetMatchers from inside a detection "
                               "callback";
    FlushBatchedEvents();
    matcher_.Reset();
    if (composite_ != nullptr) {
      composite_->Reset();
    }
  }

 private:
  /// The one install routine every add, restore and adoption ends in:
  /// hands a composite to the runner, registers a base query with the
  /// matcher.
  void Install(DetachedQuery query);
  /// The lazily created composite runner (first level >= 1 AddQuery).
  CompositeRunner& EnsureComposite();
  /// Runs `events` through the matcher as one sweep and dispatches each
  /// event's detections in order.
  void RunBatch(const stream::Event* events, size_t count);
  /// Builds and delivers the detection of one completed match.
  void DispatchToQuery(const InstalledQuery& query, const PatternMatch& match,
                       const stream::Event& event);

  MultiPatternMatcher matcher_;
  // Index-aligned with matcher_, and sorted by id (see FindQuery).
  std::vector<InstalledQuery> queries_;
  // Composite (level >= 1) queries; null until the first one is added.
  // queries_ holds base queries only, so the flat path never pays for
  // the feedback machinery beyond one null/active check per sweep.
  std::unique_ptr<CompositeRunner> composite_;
  std::vector<MultiPatternMatcher::MultiMatch> scratch_matches_;
  int next_query_id_ = 0;
  bool processing_ = false;

  size_t batch_size_ = 1;
  // window_[0, window_count_) holds the buffered events; slots past the
  // count are stale Events kept only for their values capacity (slots are
  // recycled so steady-state buffering never allocates).
  std::vector<stream::Event> window_;
  size_t window_count_ = 0;
  BatchEventHook batch_event_hook_;
};

}  // namespace epl::cep

#endif  // EPL_CEP_MULTI_MATCH_OPERATOR_H_
