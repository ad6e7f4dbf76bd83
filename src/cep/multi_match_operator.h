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
// next event, see MultiPatternMatcher); calls made from inside a detection
// callback are deferred until the current event finishes on the old query
// set, then applied in call order.
//
// Batched execution: with batch_size > 1 the operator accumulates incoming
// events and runs them through MultiPatternMatcher::ProcessBatch in one
// sweep, which amortizes the per-pattern loop overhead of the flattened
// runtime (detection callbacks then fire at flush boundaries, still in
// exact per-event order). Every control operation -- AddQuery /
// RemoveQuery / Extract / Adopt / ResetMatchers / Close -- flushes the
// accumulated window first, so query membership boundaries are untouched
// by batching: a query added (removed) between two Process calls sees
// exactly the events pushed after (before) the call. Mutations requested
// from inside a detection callback keep their per-event semantics even
// mid-batch: they apply before the next event of the window, removed
// queries' remaining matches are dropped, and added queries catch up on
// the window's remaining events (MultiPatternMatcher::CatchUpPattern) --
// bit-identical to unbatched processing. ProcessBatch(span) is the
// zero-accumulation entry point used by ShardedEngine workers, which
// already receive events in fan-out batches.
//
// Threading contract: this operator is single-threaded like the
// StreamEngine that owns it -- AddQuery/RemoveQuery must be serialized
// with event processing (call them on the dispatch thread, e.g. from a
// detection callback or between EngineRunner batches; an EngineRunner
// producer thread must not mutate a live operator directly). For
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

  /// Adds a query and returns its stable id (monotonic, never reused).
  /// Callable at any time, including from a detection callback (applied
  /// after the current event).
  int AddQuery(QuerySpec spec);

  /// Removes the query with stable id `query_id`, discarding its partial
  /// matches. Callable at any time, including from a detection callback
  /// (applied after the current event, which still sees the query).
  Status RemoveQuery(int query_id);

  /// A query detached together with its live matcher state, for adoption
  /// by another MultiMatchOperator (ShardedEngine rebalancing). The
  /// detached matcher keeps its partial runs and statistics.
  struct DetachedQuery {
    int id = 0;
    std::string output_name;
    std::unique_ptr<CompiledPattern> pattern;
    std::vector<ExprProgram> measures;
    DetectionCallback callback;
    std::unique_ptr<NfaMatcher> matcher;
    std::shared_ptr<const CompiledPattern> gate;
    double tag = 0;
    double session_tag = 0;
    bool session_scoped = false;
  };

  /// Detaches the query with stable id `query_id` without destroying its
  /// run state. Must not be called from inside a detection callback.
  /// Composite (level >= 1) queries cannot be extracted -- they never
  /// migrate between shards (FailedPrecondition).
  Result<DetachedQuery> ExtractQuery(int query_id);

  /// Adopts a query detached from another MultiMatchOperator, preserving
  /// its partial runs; returns the query's new stable id here.
  int AdoptQuery(DetachedQuery detached);

  /// Externalizes the live run state and statistics of the query with
  /// stable id `query_id` WITHOUT detaching it (the checkpoint path: the
  /// query keeps running). Flushes the accumulated window first so the
  /// state sits at an exact event boundary. Must not be called from
  /// inside a detection callback.
  Result<NfaRunState> ExportQueryRunState(int query_id);

  /// AddQuery, but the new query's matcher is seeded with previously
  /// exported run state (checkpoint recovery) instead of starting empty.
  /// Returns the query's stable id here; fails without adding the query
  /// when `runs` does not fit the spec's pattern.
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
  /// pre-reset runs, so a mid-dispatch reset could not keep the
  /// batched == per-event guarantee (use a deferred RemoveQuery/AddQuery
  /// pair instead).
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
  struct Query {
    int id = 0;
    std::string output_name;
    // The NFA matcher holds a pointer to the pattern, so the pattern is
    // owned by a stable unique_ptr.
    std::unique_ptr<CompiledPattern> pattern;
    std::vector<ExprProgram> measures;
    DetectionCallback callback;
    std::shared_ptr<const CompiledPattern> gate;
    int level = 0;
    double tag = 0;
    double session_tag = 0;
    bool session_scoped = false;
  };

  /// One deferred mutation queued from inside a detection callback.
  struct PendingOp {
    bool is_add = false;
    int query_id = 0;   // remove target, or the id pre-assigned to the add
    Query query;        // add payload
  };

  void ApplyAdd(Query query);
  void ApplyRemove(int query_id);
  /// The lazily created composite runner (first level >= 1 AddQuery).
  CompositeRunner& EnsureComposite();
  /// Applies pending ops; queries added are also appended to
  /// `catchup_ids_` so an in-flight batch replays its remaining events
  /// for them.
  void ApplyPendingOps();
  /// Runs `events` through the matcher as one sweep and dispatches each
  /// event's detections in order, applying callback-requested mutations
  /// between events.
  void RunBatch(const stream::Event* events, size_t count);
  /// Builds and delivers the detection of one completed match.
  void DispatchToQuery(const Query& query, const PatternMatch& match,
                       const stream::Event& event);
  /// Dispatch resolving the query by stable id -- the slow path once a
  /// mid-batch mutation shifted indices (a query removed mid-batch
  /// silently drops its remaining matches, exactly as if it had stopped
  /// processing).
  void Dispatch(int query_id, const PatternMatch& match,
                const stream::Event& event);

  MultiPatternMatcher matcher_;
  std::vector<Query> queries_;  // index-aligned with matcher_ entries
  // Composite (level >= 1) queries; null until the first one is added.
  // queries_ holds base queries only, so the flat path never pays for
  // the feedback machinery beyond one null/active check per event.
  std::unique_ptr<CompositeRunner> composite_;
  std::vector<MultiPatternMatcher::MultiMatch> scratch_matches_;
  std::vector<MultiPatternMatcher::MultiMatch> catchup_scratch_;
  std::vector<PendingOp> pending_ops_;
  int next_query_id_ = 0;
  bool processing_ = false;

  // Batched-accumulation state: the buffered window, the stable ids of
  // the sweep's pattern-index space (snapshotted at the first mid-sweep
  // mutation), and the queries added mid-sweep that catch up event by
  // event.
  size_t batch_size_ = 1;
  // window_[0, window_count_) holds the buffered events; slots past the
  // count are stale Events kept only for their values capacity (both
  // vectors recycle slots so steady-state buffering never allocates).
  std::vector<stream::Event> window_;
  size_t window_count_ = 0;
  std::vector<stream::Event> flushing_;  // the window being processed
  std::vector<int> batch_ids_;
  std::vector<int> catchup_ids_;
  BatchEventHook batch_event_hook_;
};

}  // namespace epl::cep

#endif  // EPL_CEP_MULTI_MATCH_OPERATOR_H_
