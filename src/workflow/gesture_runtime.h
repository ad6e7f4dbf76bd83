// GestureRuntime: the session layer between the learning workflow and the
// shared matching runtime.
//
// The paper's learn -> deploy -> test loop (Sec. 3.1 / Fig. 2) used to
// deploy every gesture -- including the built-in control gestures --
// as its own per-query match operator. This layer multiplexes all of them
// over the shared runtime instead (SASE+/ZStream-style multi-query
// sharing): ONE fused MultiMatchOperator (or ShardedEngine, selectable)
// per source stream hosts every deployed gesture, and gestures are
// deployed, undeployed, and re-deployed BY NAME via runtime
// AddQuery/RemoveQuery hot-swap. Re-learning a live gesture is an atomic
// swap at an exact event boundary: the retiring query sees every event up
// to the boundary, the replacement sees exactly the events after it -- no
// window where both or neither are live.
//
// Multi-session mode is how "heavy traffic from millions of users" becomes
// an actual code path: every user gets a namespaced stream pair
// ("<user>/kinect" -> "<user>/kinect_t"), all sessions merge into ONE
// shared stream (kSessionStreamName) whose events carry a `session` field,
// and one shared runtime hosts every session's queries. Each deployed
// query reads the merged stream and carries the session's identity
// predicate as its GROUP GATE (MultiPatternMatcher::AddPattern), which the
// matcher enforces as an extra conjunct on every state -- per-session
// isolation by construction.
// Because the gate stays OUT of the pose predicates, identical gestures
// deployed by different sessions dedup to ONE predicate set in the shared
// bank (predicate cost independent of the session count), and the flat
// runtime skips an entire session's patterns with one gate read when an
// event belongs to another session -- per-event cost sub-linear in the
// number of idle sessions.
//
// Gesture templates: the front end ahead of the bank -- generate the
// query onto its stream, compile it and, on durable runtimes, render its
// canonical text and serialize its definition -- runs once per distinct
// gesture, not once per deploy. The runtime keeps a table of templates,
// each keyed by the exact definition (core::SameDefinition, bit for bit)
// and its scope (session stream or local), holding the compiled pattern
// and measures and, when durable, the query text and the definition text.
// A deploy looks its template up, compiles a new one on a miss, and binds
// it: the query it installs shares the template's compiled body
// (cep::CompiledPattern copies share one body) and adds only the
// session's gate, the callback, tags and empty run state. Relearns, WAL
// replay and snapshot restore take the same path, so a relearn of an
// identical definition compiles nothing. A template lives while a query
// binds it. Checkpoints write each template's text once (snapshot version
// 3), and Recover compiles each text once; a recovered template binds only
// the restored queries, so the next deploy of its gesture compiles once.
// The legacy backend compiles every query on its own: it is the reference
// the templated backends are checked against.
//
// Detections route per query: each deploy carries its own callback, so a
// session only ever observes its own gestures (the merge stream never
// leaks detections across sessions).
//
// Differential guarantee (tests/workflow_runtime_test.cc): a full
// controller session -- control gestures, learned gestures, re-learning --
// produces bit-identical detections on the shared runtime (fused, and
// sharded at any shard count with sync_detections) and on the legacy
// per-query deployment (RuntimeBackend::kLegacyPerQuery, kept as the
// differential and benchmark baseline).
//
// Threading / re-entrancy contract: the runtime is single-threaded like
// the StreamEngine it manages. Deploy, DeployComposite, Undeploy and
// CloseSession may be called from inside a detection callback (the
// controller's finish gesture does exactly that). There they are queued
// and applied, in request order, at the next PushFrame/Flush boundary on
// every backend; with batch_size > 1 that is after the window whose
// delivery issued them, which is where the WAL records them. No events
// flow in between, so the swap semantics above hold, and recovery
// replays the mutation at the same point. The request is checked against
// its session at once (a session closed earlier in the same callback is
// NotFound), and IsDeployed reflects the change from the boundary on. Any
// other error of a queued mutation is kept, not raised at the boundary:
// the mutations behind it still apply, a PushFrame still pushes its frame,
// and the first such error since the last Flush is returned, once, by the
// next Flush (and so by Checkpoint, which then writes no snapshot). The calls
// that cannot be queued -- OpenSession, LoadStore, PushFrame, Flush,
// ResizeShards, Checkpoint -- return FailedPrecondition from inside a
// detection callback and leave the runtime untouched. Each session's frames
// must be timestamp-monotonic; ordering ACROSS sessions is by arrival.
// (That suffices because every session query is fully session-scoped: it
// only ever advances on its own session's events, whose timestamps are
// monotonic, and foreign events are no-ops for it.) The runtime must
// outlive all event flow through its engine.

#ifndef EPL_WORKFLOW_GESTURE_RUNTIME_H_
#define EPL_WORKFLOW_GESTURE_RUNTIME_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cep/sharded_engine.h"
#include "core/query_gen.h"
#include "durability/event_log.h"
#include "durability/snapshot.h"
#include "gesturedb/store.h"
#include "kinect/skeleton.h"
#include "query/compiler.h"
#include "stream/engine.h"
#include "transform/transform.h"
#include "workflow/composite.h"

namespace epl::workflow {

enum class RuntimeBackend {
  /// One match operator per gesture query, exactly the pre-runtime
  /// architecture. Kept as the differential-test and benchmark baseline.
  kLegacyPerQuery,
  /// One fused MultiMatchOperator per source stream (default).
  kFused,
  /// One ShardedEngine per source stream (multi-core scaling).
  kSharded,
};

/// Handle of an open user session. kLocalSession addresses the classic
/// single-user pipeline ("kinect" / the definition's own source stream)
/// without any session namespacing.
using SessionId = int;
inline constexpr SessionId kLocalSession = -1;

/// The shared multi-session stream: per-session view events plus a
/// trailing `session` field identifying the originating session.
inline constexpr char kSessionStreamName[] = "gesture_sessions";
inline constexpr char kSessionFieldName[] = "session";

/// Durability knobs. Setting `dir` makes the runtime durable: every frame
/// and deploy/session mutation is appended to an event WAL there before it
/// takes effect, Checkpoint() writes run-state snapshots, and Recover()
/// rebuilds a crashed runtime bit-identically (snapshot + WAL-suffix
/// replay). Requires the fused or sharded backend.
struct DurabilityOptions {
  /// WAL + snapshot directory; empty disables durability entirely.
  std::string dir;
  /// WAL segment rotation size.
  uint64_t segment_bytes = 4ull << 20;
  /// fsync every this many WAL records (0: no count-based group commit).
  uint64_t sync_every_records = 0;
  /// fsync at the first WAL append after this many milliseconds (0: no
  /// time-based group commit). fsync cadence only bounds loss on power
  /// failure: a process crash loses at most the user-space batch buffer
  /// (below), and a SIGKILL after Flush() loses nothing.
  uint64_t sync_interval_ms = 50;
  /// User-space WAL write batching (one write() per this many bytes);
  /// Flush() and every fsync drain it. 0: one write() per record.
  uint64_t buffer_bytes = 64 << 10;
  /// Filesystem to write through (tests inject fault models); null uses
  /// the real one.
  durability::FileSystem* fs = nullptr;
};

struct GestureRuntimeOptions {
  RuntimeBackend backend = RuntimeBackend::kFused;
  cep::MatcherOptions matcher;
  /// Fused backend: events accumulated per matcher sweep; sharded backend:
  /// events per fan-out batch. Interactive sessions (detections steering
  /// the workflow) want 1; offline replays raise it for throughput.
  size_t batch_size = 1;
  /// Sharded backend: worker shard count.
  int num_shards = 1;
  /// Sharded backend: deliver detections synchronously inside each frame's
  /// dispatch (exact event-boundary semantics, what the interactive
  /// controller needs). Off: detections surface at batch boundaries and
  /// Flush(), which is the throughput mode.
  bool sync_detections = true;
  /// Sharded backend: interest-routed fan-out on the merged session
  /// stream. Each session event is fanned out only to the shards hosting
  /// that session's queries (plus shards with unscoped queries), instead
  /// of broadcast to every shard -- the session id the merge tap appends
  /// becomes the engine's routing field (ShardedEngineOptions::
  /// routing_field). Detections are bit-identical either way; off
  /// reverts to broadcast.
  bool route_session_events = true;
  /// Sharded backend: base-query placement. kSessionAffinity (default)
  /// packs each session's queries onto the fewest shards that fit the
  /// skew budget, which is what makes routed fan-out touch ~1 shard per
  /// event; kBalanced spreads purely by weight. Either way each query is
  /// weighted by QueryCostWeight, fixed at deploy.
  cep::ShardPlacement shard_placement = cep::ShardPlacement::kSessionAffinity;
  /// Give every session its own kinect_t transformation view and merge the
  /// transformed events. Off: raw kinect events merge directly (workloads
  /// that are already transformed, e.g. benchmarks).
  bool transform_sessions = true;
  core::QueryGenConfig query;
  transform::TransformConfig transform;
  DurabilityOptions durability;
};

/// Builds the detection callback for one recovered query: Recover() cannot
/// reuse the crashed process's closures, so the caller re-supplies them per
/// (session, gesture name).
using DetectionCallbackFactory =
    std::function<cep::DetectionCallback(SessionId, const std::string&)>;

/// What Recover() reconstructed -- the caller reads `ingested` to know the
/// frame index each session's producer resumes pushing from.
struct RecoverStats {
  /// WAL seq the snapshot covered up to (0: recovered from an empty dir).
  uint64_t snapshot_seq = 0;
  /// WAL records replayed on top of the snapshot.
  uint64_t replayed_records = 0;
  /// Frames durably ingested per session, snapshot + replay combined.
  std::map<SessionId, uint64_t> ingested;
};

class GestureRuntime {
 public:
  /// `engine` must outlive the runtime.
  explicit GestureRuntime(stream::StreamEngine* engine,
                          GestureRuntimeOptions options = {});

  GestureRuntime(const GestureRuntime&) = delete;
  GestureRuntime& operator=(const GestureRuntime&) = delete;

  stream::StreamEngine* engine() const { return engine_; }
  const GestureRuntimeOptions& options() const { return options_; }

  /// Opens a session for `user`: registers "<user>/kinect" (and its
  /// "<user>/kinect_t" view unless transform_sessions is off), ensures the
  /// shared session stream exists, and taps the session's events into it.
  /// FailedPrecondition from inside a detection callback.
  Result<SessionId> OpenSession(const std::string& user);

  /// Undeploys every gesture of the session, detaches its tap, and
  /// unregisters its namespaced streams ("<user>/kinect" and the
  /// "<user>/kinect_t" view), so a close -> reopen cycle leaves no trace
  /// in the engine. Callable from inside a detection callback: the session
  /// refuses further requests immediately (NotFound), and the close itself
  /// is queued like a deploy (see the re-entrancy contract above).
  Status CloseSession(SessionId session);

  /// The stream carrying the session's transformed (or raw) events --
  /// where a controller attaches its recorder tap.
  Result<std::string> SessionViewStream(SessionId session) const;

  /// Fan-out and placement counters summed over every sharded channel
  /// (all zeros under the fused/legacy backends): how many event copies
  /// routing delivered vs skipped, sub-batch enqueues, affinity moves,
  /// worker wakeups. See ShardedEngine::EngineStats.
  cep::ShardedEngine::EngineStats ShardedStats() const;

  /// Deploys (or, if `name` is already live in this session, atomically
  /// re-deploys) the gesture's generated query under its definition name.
  /// Local deploys run on definition.source_stream; session deploys are
  /// rescoped onto the shared session stream with the session's identity
  /// predicate as pose guard and group gate. Detections of this gesture go
  /// to `callback`. Callable from inside a detection callback: the deploy
  /// is then applied at the next PushFrame/Flush boundary on every backend
  /// (see the re-entrancy contract above).
  Status Deploy(SessionId session, const core::GestureDefinition& definition,
                cep::DetectionCallback callback);
  Status Deploy(const core::GestureDefinition& definition,
                cep::DetectionCallback callback) {
    return Deploy(kLocalSession, definition, std::move(callback));
  }

  /// Deploys a COMPOSITE gesture: a pattern over other deployed gestures'
  /// detections (see workflow/composite.h). The inputs named by the
  /// definition's steps must already be deployed (exact-session steps in
  /// their session, kAnySession steps anywhere) and share one source
  /// stream channel; deploying against missing inputs is NotFound. The
  /// composite's level is fixed at deploy time (1 + the highest input
  /// level), which makes query-DAG cycles unrepresentable: deploying a
  /// composite under a name some live composite already consumes -- the
  /// only way an edge could point backwards -- is rejected with
  /// FailedPrecondition (a self-referencing step is InvalidArgument).
  /// Detections of level-k inputs at timestamp t are visible to this
  /// composite AT t (same feedback epoch, not t+1), and the combined
  /// detection order is deterministic: (event-seq, level, query-id),
  /// bit-identical across the fused and sharded backends. Requires the
  /// fused or sharded backend. Callable from inside a detection callback,
  /// applied at the next PushFrame/Flush boundary like Deploy.
  Status DeployComposite(SessionId session,
                         const CompositeDefinition& definition,
                         cep::DetectionCallback callback);
  Status DeployComposite(const CompositeDefinition& definition,
                         cep::DetectionCallback callback) {
    return DeployComposite(kLocalSession, definition, std::move(callback));
  }

  /// Removes the named gesture, discarding its partial matches. A gesture
  /// (base or composite) consumed by a live composite cannot be
  /// undeployed (FailedPrecondition) -- undeploy the consumer first.
  /// Callable from inside a detection callback, applied at the next
  /// PushFrame/Flush boundary like Deploy.
  Status Undeploy(SessionId session, const std::string& name);
  Status Undeploy(const std::string& name) {
    return Undeploy(kLocalSession, name);
  }

  bool IsDeployed(SessionId session, const std::string& name) const;
  bool IsDeployed(const std::string& name) const {
    return IsDeployed(kLocalSession, name);
  }

  /// Names of the session's deployed gestures, sorted.
  std::vector<std::string> DeployedGestures(
      SessionId session = kLocalSession) const;

  /// Boot-time bulk load: deploys every gesture stored in `store` into the
  /// shared bank (one runtime AddQuery each; with the fused/sharded
  /// backends the bank builds once, on the first event). Reserved "__"
  /// names are skipped -- a stored "__control_wave" must not hot-swap a
  /// live control query (see IsReservedGestureName). Detections of all
  /// loaded gestures go to `callback`. Returns the number loaded. A store
  /// record that fails to parse (truncated/corrupt file) does NOT abort
  /// the load: every parseable gesture still deploys, and the first bad
  /// record's error -- naming the offending file -- is returned instead of
  /// the count. FailedPrecondition from inside a detection callback.
  Result<int> LoadStore(SessionId session, const gesturedb::GestureStore& store,
                        cep::DetectionCallback callback);
  Result<int> LoadStore(const gesturedb::GestureStore& store,
                        cep::DetectionCallback callback) {
    return LoadStore(kLocalSession, store, std::move(callback));
  }

  /// Applies deferred mutations, then feeds the frame into the session's
  /// raw stream (kLocalSession: "kinect"). A failing deferred mutation
  /// does not fail the push (see Flush). FailedPrecondition from inside a
  /// detection callback.
  Status PushFrame(SessionId session, const kinect::SkeletonFrame& frame);
  Status PushFrame(const kinect::SkeletonFrame& frame) {
    return PushFrame(kLocalSession, frame);
  }
  Status PushFrames(SessionId session,
                    const std::vector<kinect::SkeletonFrame>& frames);

  /// Applies deferred mutations and flushes every channel: fused batched
  /// windows are swept, sharded engines quiesce and deliver everything
  /// pending. Returns the first error of a deferred mutation applied since
  /// the previous Flush, once, after flushing. FailedPrecondition from
  /// inside a detection callback.
  Status Flush();

  /// Resizes every live sharded channel's worker fleet to `num_shards` at
  /// a quiesced event boundary (run-state preserving; see
  /// cep::ShardedEngine::Resize). Sharded backend only; FailedPrecondition
  /// on other backends and from inside a detection callback.
  Status ResizeShards(int num_shards);

  /// Deployed gestures across all sessions.
  size_t num_deployed() const { return gestures_.size(); }
  /// Live fused/sharded operators (one per source stream in use).
  size_t num_channels() const { return channels_.size(); }
  /// Live gesture templates: distinct compiled gestures bound by at least
  /// one deployed query (always 0 on the legacy backend).
  size_t num_templates() const { return live_templates_; }

  /// Whether this runtime writes a WAL (options.durability.dir set).
  bool durable() const { return !options_.durability.dir.empty(); }

  /// Frames durably ingested for `session` -- after Recover(), the index
  /// the session's producer resumes pushing from.
  uint64_t ingested_events(SessionId session) const;

  /// Writes a run-state snapshot at a quiesced event boundary and prunes
  /// the WAL prefix it covers: Flush, export every deployed query's live
  /// NFA runs, rotate the WAL segment, atomically write
  /// snapshot-<seq>.snap, then drop stale snapshots and covered segments.
  /// Durable runtimes only; FailedPrecondition on a runtime without a
  /// durability dir and from inside a detection callback.
  Status Checkpoint();

  /// Rebuilds a runtime from `options.durability.dir`: restores sessions,
  /// deployed gestures, and mid-gesture partial runs from the newest valid
  /// snapshot, then replays the WAL suffix (seq >= snapshot seq) through
  /// the normal ingest path. Detections for replayed events are
  /// re-delivered (at-least-once past the snapshot cut); the recovered
  /// detection stream is bit-identical to the never-crashed run from the
  /// snapshot cut onward. `factory` supplies the detection callback of
  /// each recovered query. An empty/missing directory recovers to an empty
  /// runtime (fresh start).
  static Result<std::unique_ptr<GestureRuntime>> Recover(
      stream::StreamEngine* engine, GestureRuntimeOptions options,
      const DetectionCallbackFactory& factory, RecoverStats* stats = nullptr);

 private:
  /// The shared operator of one source stream.
  struct Channel {
    query::FusedDeployment fused;      // backend kFused
    query::ShardedDeployment sharded;  // backend kSharded
  };

  struct Session {
    std::string name;
    std::string raw_stream;
    std::string view_stream;
    /// The session's identity predicate compiled as a group gate, shared
    /// by all of the session's query specs and enforced by the matcher on
    /// every state.
    std::shared_ptr<const cep::CompiledPattern> gate;
    stream::DeploymentId tap = 0;
    /// False once a close is requested; the entry goes when it applies.
    bool open = true;
  };

  /// One compiled gesture, shared by every deploy of the same definition
  /// in the same scope (see "Gesture templates" above). Never changed
  /// after it is built; the deleter of its shared_ptr takes it out of the
  /// table when the last binding lets go.
  struct Template : std::enable_shared_from_this<Template> {
    /// The key: the exact definition (unset for a template restored from
    /// a snapshot, which only its restored queries bind), and whether its
    /// queries read the shared session stream.
    std::optional<core::GestureDefinition> definition;
    bool session_scoped = false;
    std::string stream;  // the compiled query's source stream: channel key
    std::string output_name;
    cep::CompiledPattern pattern;
    std::vector<cep::ExprProgram> measures;
    /// Durable runtimes only: the canonical unparser rendering of the
    /// deployed (rescoped) query, which checkpoints serialize, and the
    /// gesturedb text of the definition, which deploy WAL records carry.
    std::string query_text;
    std::string definition_text;
  };
  using TemplatePtr = std::shared_ptr<const Template>;

  struct Gesture {
    std::string stream;               // channel key / legacy deploy stream
    int query_id = -1;                // fused/sharded stable id
    stream::DeploymentId legacy_id = 0;
    /// The template this base query binds (fused/sharded backends). Null
    /// for legacy deploys and for composites, which serialize their
    /// definition instead (gesture tags round-trip exactly through it).
    TemplatePtr tmpl;
    /// Composite level; 0 = base gesture. Level >= 1 gestures keep their
    /// definition for consumed-input checks and checkpointing.
    int level = 0;
    CompositeDefinition composite;
  };

  using GestureKey = std::pair<SessionId, std::string>;

  bool in_dispatch() const { return dispatch_depth_ > 0; }
  /// Opens the WAL on the first durable operation (errors early when the
  /// backend cannot support durability).
  Status EnsureWal();
  /// Appends one typed record to the WAL. No-op when not durable, during
  /// replay, and inside suppressed scopes (CloseSession teardown, whose
  /// undeploys are implied by the kCloseSession record).
  Status LogRecord(const durability::WalRecord& record);
  /// OpenSession core; `forced_id` >= 0 pins the session id (recovery
  /// restores sessions under their original ids, which gates and WAL
  /// records encode).
  Result<SessionId> DoOpenSession(const std::string& user,
                                  SessionId forced_id);
  /// Applies one replayed WAL record through the normal mutation/ingest
  /// paths (logging suppressed via replaying_).
  Status ApplyWalRecord(const durability::WalRecord& record,
                        const DetectionCallbackFactory& factory);
  /// Restores one snapshot query: bind its template (compiled from the
  /// template's text on first use, kept in `restored`) or rebuild its
  /// composite definition, and Install it with its live runs.
  Status RestoreQuery(const durability::QueryState& state,
                      const std::vector<durability::TemplateState>& templates,
                      std::vector<TemplatePtr>* restored,
                      const DetectionCallbackFactory& factory);
  /// Wraps a detection callback so the runtime knows when it is inside a
  /// dispatch (mutations from there are deferred).
  cep::DetectionCallback Guard(cep::DetectionCallback callback);
  /// Runs every deferred mutation in request order, keeping the first
  /// failure in deferred_error_ for the next Flush.
  void Pump();
  /// The one deferral path of Deploy, DeployComposite, Undeploy and
  /// CloseSession: checks that `session` is open, then calls `op` with
  /// `args` (after any earlier deferred mutations) or, inside a dispatch,
  /// queues the call, with copies of `args`, for the next Pump.
  template <typename... Params, typename... Args>
  Status ApplyOrDefer(Status (GestureRuntime::*op)(SessionId, Params...),
                      SessionId session, Args&&... args);
  Result<Session*> FindSession(SessionId session);
  Result<const Session*> FindSession(SessionId session) const;
  /// Registers the shared session stream on first use.
  Status EnsureSessionStream();
  Result<Channel*> EnsureChannel(const std::string& stream);
  /// The gesture's generated query, rescoped for `session` (null = local).
  Result<query::ParsedQuery> BuildQuery(
      const Session* session, const core::GestureDefinition& definition) const;
  /// The live template of (definition, scope `session` != null), or a new
  /// one compiled from the definition's generated query.
  Result<TemplatePtr> FindOrCompileTemplate(
      const Session* session, const core::GestureDefinition& definition);
  /// A keyless template compiled from snapshot text. DataLoss when the
  /// text does not parse.
  Result<TemplatePtr> RestoreTemplate(const durability::TemplateState& state);
  /// Compiles `parsed` into `tmpl` (stream, output name, pattern,
  /// measures) and enters it into the table.
  Result<TemplatePtr> AddTemplate(const query::ParsedQuery& parsed,
                                  Template tmpl);
  /// A deploy of `tmpl` under `key` (`found` its session, null = local):
  /// the template's pattern and measures plus the session's gate, the
  /// callback, and the gesture's derived-event tags.
  cep::MultiMatchOperator::QuerySpec BindTemplate(
      const Template& tmpl, const GestureKey& key, const Session* found,
      cep::DetectionCallback callback);
  /// Registers the synthetic `__detections` stream on first composite use
  /// (schema resolution only -- derived events never flow through the
  /// engine, see cep/composite.h).
  Status EnsureDetectionStream();
  /// Error when a live composite consumes gesture (session, name) -- the
  /// reason both Undeploy of an input and DeployComposite under a
  /// consumed name are rejected.
  Status CheckNotConsumed(SessionId session, const std::string& name) const;
  /// Dispatch-unsafe cores, run through ApplyOrDefer (or by WAL replay).
  Status DoCloseSession(SessionId session);
  Status DoDeploy(SessionId session, const core::GestureDefinition& definition,
                  cep::DetectionCallback callback);
  Status DoDeployComposite(SessionId session,
                           const CompositeDefinition& definition,
                           cep::DetectionCallback callback);
  Status DoUndeploy(SessionId session, const std::string& name);
  /// The one install step of Deploy, DeployComposite and checkpoint
  /// restore (fused/sharded backends): ensures the gesture's channel,
  /// retires any query live under `key`, adds `spec` to the channel seeded
  /// with `runs` (empty for a deploy), and records `gesture` under `key`.
  Status Install(const GestureKey& key, Gesture gesture,
                 cep::MultiMatchOperator::QuerySpec spec,
                 const cep::NfaRunState& runs);
  /// Retires one gesture's query/deployment (map entry already removed).
  Status Retire(const Gesture& gesture);

  stream::StreamEngine* engine_;
  GestureRuntimeOptions options_;

  std::map<std::string, Channel> channels_;
  std::map<SessionId, Session> sessions_;
  /// User name -> id of the session open for that user.
  std::unordered_map<std::string, SessionId> open_users_;
  /// Templates that carry a definition, by HashDefinition and scope.
  /// Declared before gestures_, whose bindings release into it.
  std::unordered_multimap<size_t, const Template*> templates_;
  size_t live_templates_ = 0;
  std::map<GestureKey, Gesture> gestures_;
  /// Keys of the live composites (level >= 1) in gestures_.
  std::set<GestureKey> composites_;
  SessionId next_session_id_ = 0;

  int dispatch_depth_ = 0;
  std::vector<std::function<Status()>> pending_;
  // First failure of a deferred mutation since the last Flush.
  Status deferred_error_;
  /// PushFrame's kEvent record (its event doubles as the non-durable
  /// path's frame event), reused so ingest allocates nothing per frame.
  durability::WalRecord frame_record_;

  // --- Durability state (unused unless options.durability.dir is set) ---
  durability::FileSystem* fs_ = nullptr;
  std::unique_ptr<durability::EventLog> wal_;
  /// Reused across LogRecord calls so the per-event encode allocates
  /// nothing at steady state.
  durability::ByteWriter wal_encode_scratch_;
  /// Frames ingested per session since the beginning of time (survives
  /// checkpoints; the producer resume index).
  std::map<SessionId, uint64_t> ingested_;
  /// True while Recover() replays the WAL suffix: suppresses re-logging.
  bool replaying_ = false;
  /// True while a CloseSession teardown runs: its undeploys are implied
  /// by the kCloseSession record and must not be logged individually.
  bool suppress_wal_ = false;
};

}  // namespace epl::workflow

#endif  // EPL_WORKFLOW_GESTURE_RUNTIME_H_
