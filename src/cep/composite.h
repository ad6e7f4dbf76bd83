// CompositeRunner: hierarchical composite queries -- detections re-enter
// the runtime as derived events, so patterns can match over other
// patterns' matches ("one user raises -> a zone sweeps -> the crowd
// erupts", or cross-session aggregates like "50 users swiped right
// within 2 s").
//
// Feedback epochs. Every base query carries a numeric `tag` (a stable
// hash of its gesture name, see GestureTag) and a `session_tag`. When at
// least one composite query is deployed, each source event's detection
// dispatch becomes an EPOCH: the base detections produced by that event
// are converted to derived events on the synthetic `__detections` stream
// (schema: gesture, session, duration; timestamp = the detection time,
// i.e. the source event's timestamp) and collected in epoch order. The
// epoch then runs level by level to a fixed point: level-1 composite
// patterns see every base (level-0) derived event of the epoch, their
// detections become derived events visible to level 2 WITHIN THE SAME
// EPOCH, and so on. A level-k detection at timestamp t is therefore
// visible to level-k+1 patterns at t, not t+1.
//
// Determinism. The total output order of one source event is
// (event-seq, level, query-id): base detections first (they are
// dispatched by the owning operator in stable-id order), then level-1
// composite detections in (derived-event order, query registration
// order), then level 2, ... Because composite levels are evaluated by
// this shared runner in both the fused and the sharded engine -- fed
// with the identical base-detection sequence -- fused, batched, and
// sharded(1, N) executions are bit-identical. Epochs with zero base
// detections are skipped entirely; this is exact because the matcher
// runtime has no eager run expiry (an event satisfying no predicate is a
// pure no-op for every pattern).
//
// Cycles cannot arise here by construction: a composite query's inputs
// must already be deployed when it is added (enforced by the deploy
// layer, see workflow::GestureRuntime::DeployComposite), so the query
// DAG only ever points from older queries to strictly newer ones, and a
// query's level (1 + max over input levels) is fixed at deploy time.
//
// Durability. Derived events are NEVER written to the WAL: recovery
// replays base events and re-derives composite detections through this
// same code path, bit-identical to the uncrashed run. Composite run
// state (partial multi-event composite matches) is checkpointed like any
// other query via ExportRunState/Add.
//
// Threading: single-threaded, owned either by a MultiMatchOperator
// (fused path, driven inside RunBatch) or by a ShardedEngine (driven
// from DrainAndDeliver under the engine's control mutex -- composite
// patterns never run on shard workers).

#ifndef EPL_CEP_COMPOSITE_H_
#define EPL_CEP_COMPOSITE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cep/detection.h"
#include "cep/multi_matcher.h"
#include "common/result.h"
#include "stream/event.h"
#include "stream/schema.h"

namespace epl::cep {

/// Name of the synthetic stream composite patterns match over. The
/// stream exists only for schema resolution (query compilation); derived
/// events are routed inside the engines and never pushed through a
/// StreamEngine.
inline constexpr char kDetectionStreamName[] = "__detections";

/// Field names of the derived-event schema, in index order.
inline constexpr char kDetectionGestureField[] = "gesture";
inline constexpr char kDetectionSessionField[] = "session";
inline constexpr char kDetectionDurationField[] = "duration";

/// The derived-event schema: {gesture, session, duration}.
const stream::Schema& DetectionSchema();

/// Stable numeric tag of a gesture name (FNV-1a, 32 bit) -- exactly
/// representable as a double, identical across processes and platforms,
/// so composite patterns written against it survive hot-swaps of their
/// inputs and crash recovery.
double GestureTag(std::string_view name);

/// Converts one detection of a query tagged (tag, session_tag) into a
/// derived event: timestamp = detection time (the source event's
/// timestamp), values = {tag, session_tag, duration}.
stream::Event MakeDerivedEvent(double tag, double session_tag,
                               const Detection& detection);

/// One installed query, as MultiMatchOperator stores its base queries and
/// CompositeRunner its composite ones. Ids live in the owning
/// operator/engine's stable-id space.
struct InstalledQuery {
  int id = 0;
  /// 0 for a base query; >= 1 for a composite, whose inputs have level
  /// `level - 1` or lower.
  int level = 0;
  std::string output_name;
  // The NFA matcher holds a pointer to the pattern, so it is owned by a
  // stable unique_ptr.
  std::unique_ptr<CompiledPattern> pattern;
  std::vector<ExprProgram> measures;
  DetectionCallback callback;
  /// Base queries only: the group gate (see MultiPatternMatcher::AddPattern).
  std::shared_ptr<const CompiledPattern> gate;
  /// This query's own derived-event identity (tag = GestureTag(name)),
  /// used when ITS detections feed composite levels above its own.
  double tag = 0;
  double session_tag = 0;
  /// Base queries only: see MultiMatchOperator::QuerySpec::session_scoped.
  bool session_scoped = false;
};

class CompositeRunner {
 public:
  explicit CompositeRunner(MatcherOptions options);

  CompositeRunner(const CompositeRunner&) = delete;
  CompositeRunner& operator=(const CompositeRunner&) = delete;

  /// Registers `query` (level >= 1, unused id) at its level, running on
  /// `matcher`: a matcher over query.pattern built with this runner's
  /// options and seeded with the query's run state (empty for a fresh
  /// deploy, imported on checkpoint restore).
  void Add(InstalledQuery query, std::unique_ptr<NfaMatcher> matcher);

  /// Removes the query with stable id `id`, discarding partial runs.
  Status Remove(int id);

  bool Has(int id) const;

  /// True when at least one composite query is registered -- the engines'
  /// per-event epoch hooks are no-ops otherwise (flat-path overhead with
  /// zero composites is one null/empty check per event).
  bool active() const { return num_queries_ > 0; }
  size_t num_queries() const { return num_queries_; }

  /// Externalizes the live run state of query `id` (checkpoint path; the
  /// query keeps running).
  Result<NfaRunState> ExportRunState(int id);

  /// Live matcher statistics of query `id`.
  Result<MatcherStats> QueryStats(int id) const;

  /// Discards every query's partial runs.
  void Reset();

  // --- Epoch API (one epoch per source event) ---

  /// Starts a new epoch: clears the derived-event buffer.
  void BeginEpoch();

  /// Records one base (level-0) detection of the current epoch as a
  /// derived event. Call in base dispatch order. No-op when inactive.
  void CollectBase(double tag, double session_tag,
                   const Detection& detection);

  /// Runs the epoch to its fixed point: for each level in ascending
  /// order, feeds every derived event visible so far to that level's
  /// patterns (per-event, in collection order), dispatches completed
  /// matches (collection order, then registration order) through their
  /// callbacks, and appends the resulting detections as derived events
  /// visible to higher levels. Matcher state persists across epochs, so
  /// composite sequences span source events. Callbacks must not mutate
  /// this runner or its owning operator (an EPL_CHECK failure there, as
  /// for base queries); GestureRuntime applies mutations a callback
  /// requests at the next PushFrame/Flush boundary on every backend.
  void RunEpoch();

 private:
  struct Level {
    explicit Level(const MatcherOptions& options) : matcher(options) {}
    MultiPatternMatcher matcher;
    std::vector<InstalledQuery> queries;  // index-aligned with matcher
  };

  /// The level hosting queries of composite level `level` (1-based),
  /// growing the ladder as needed.
  Level& LevelFor(int level);
  /// Locates `id`: fills (level index, query index) and returns true.
  bool Find(int id, size_t* level_index, size_t* query_index) const;

  MatcherOptions options_;
  std::vector<std::unique_ptr<Level>> levels_;  // levels_[k] = level k+1
  size_t num_queries_ = 0;
  std::vector<stream::Event> epoch_;  // derived events of this epoch
  std::vector<stream::Event> spill_;  // one level's new derived events
  std::vector<MultiPatternMatcher::MultiMatch> scratch_;
};

}  // namespace epl::cep

#endif  // EPL_CEP_COMPOSITE_H_
