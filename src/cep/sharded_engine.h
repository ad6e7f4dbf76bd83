// ShardedEngine: multi-core gesture matching by partitioning queries
// across worker shards.
//
// One fused MultiMatchOperator (PR 1) removes the O(queries x states)
// per-event predicate cost but still runs on a single thread. This layer
// scales it across cores: N shards each own a full matching stack
// (PredicateBank + MultiMatchOperator) and a private FIFO of fan-out
// batches; deployed queries are partitioned across the shards, so each
// shard evaluates a bank that is ~1/N the size and runs ~1/N of the NFAs.
//
// Dataflow (single producer thread, e.g. a StreamEngine dispatch thread):
//
//   Push(event) --copy into a recycled slot--> [window of B events]
//     --fan-out--> shard 0 FIFO --> some worker: bank eval + NFA advance
//     ...          shard N-1 FIFO --> some worker
//
// Every shard that wants the whole window shares that one window; a
// shard that wants only part of it gets a routed sub-batch holding just
// its events. Windows and sub-batches come from one pool of reused
// windows: a window goes back to the pool when its last shard has run
// it, its event slots keep their capacity, and the next fill overwrites
// them in place. In steady state a frame therefore reaches the shard
// sweep without a heap allocation on the producer thread. The pool keeps
// at most as many spare windows as the FIFOs can hold
// (num_shards x (queue_capacity + 1) + 2), so memory stays bounded.
//
// Fan-out is interest-routed when `routing_field` is set: each shard's
// resident queries induce an interest filter (the session keys its
// session-scoped queries can match, plus "everything" for unscoped
// queries), and a fan-out window is split by routing key so a shard only
// receives -- and is only woken for -- the events some resident query
// could match. A skipped shard receives nothing at all: its watermark is
// derived from the windows it still holds (see MinProcessedLocked), so
// the merge, and hence delivery order, is bit-identical to broadcast at
// every shard count. This exactness leans on the gate-group invariant
// (see multi_matcher.cc): an event that satisfies no state predicate of a
// query neither seeds, advances, completes, nor expires anything, so not
// delivering it to that query's shard cannot change any output.
//
// Execution is scheduled from a shared pool: every shard spawns one
// worker, each worker prefers its own shard's FIFO (cache-hot bank and
// arena), and -- with `work_stealing` on -- an idle worker claims the next
// batch of the deepest-backlog shard instead of sleeping, so one skewed
// shard cannot idle the other cores. A shard's batches always execute one
// at a time in FIFO order (its running slot makes the shard a unit of
// mutual exclusion), which is why stealing cannot change any shard's
// event order.
//
// Matches are recorded per shard as (event-seq, query-id, Detection) and
// merged back on the producer thread in deterministic (event-seq,
// query-id) order -- the exact order a single fused operator would emit,
// regardless of shard count, worker timing, stealing, or rebalancing.
// Merging only releases matches up to the fleet-wide watermark (the
// smallest base sequence of any window a shard still runs or queues, or
// every pushed event when no shard holds one), so delivery is
// totally ordered and reproducible; delivery happens during Push (batch
// boundaries), Flush(), Stop(), and control operations.
//
// The query set is dynamic: AddQuery/RemoveQuery work while the stream is
// live. Control operations quiesce the shards at an exact event boundary
// -- holding the control mutex, which keeps the producer out, they wait
// until every shard FIFO is drained and no shard is executing -- deliver
// all pending matches, then mutate and rebalance; the workers simply find
// new work at the next push. Every query thus observes a precise
// prefix/suffix of the stream and surviving queries keep their partial
// runs (rebalancing moves the live NfaMatcher between shards). The same
// mechanism powers Resize(): the worker fleet itself can grow or shrink
// at an event boundary, migrating every doomed shard's queries -- partial
// runs, statistics and all -- onto the survivors. The equivalence
// property tests in tests/cep_dynamic_queries_test.cc pin these semantics
// down.
//
// Threading contract: at most one producer may Push at a time, but
// control operations (AddQuery/RemoveQuery/Flush/Stop/ResetMatchers/
// Resize) may come from ANY thread -- a control mutex serializes them
// against the producer, so an application thread can exchange gestures
// while another thread drives the stream. Detection callbacks run
// on whichever thread performed the delivering call and must not call
// back into the engine.

#ifndef EPL_CEP_SHARDED_ENGINE_H_
#define EPL_CEP_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cep/composite.h"
#include "cep/multi_match_operator.h"
#include "stream/operator.h"

namespace epl::cep {

/// Placement policy for base queries (see ShardedEngine::AddQuery and
/// Rebalance).
enum class ShardPlacement {
  /// Balance query cost across shards, each query weighted by
  /// QueryCostWeight, fixed at deploy (the pre-routing default): queries
  /// of one session spread wherever the weights fall.
  kBalanced,
  /// Pack each session's queries onto the fewest shards that fit under
  /// the skew budget (each query weighted by QueryCostWeight, fixed at
  /// deploy), so interest-routed fan-out has something to exploit: a
  /// session event then touches ~1 shard instead of all of them.
  /// Placement falls back to the least-loaded shard (and rebalancing may
  /// split a session) only when packing would exceed the budget; work
  /// stealing absorbs the residual skew.
  kSessionAffinity,
};

struct ShardedEngineOptions {
  /// Number of worker shards (clamped to >= 1).
  int num_shards = 1;
  /// Events per fan-out batch. Batching amortizes queue locking (one
  /// enqueue per shard per batch, sharing a single window of the events)
  /// AND matcher execution: each worker runs the whole batch as one
  /// MultiPatternMatcher::ProcessBatch sweep -- one bank pass per field
  /// per batch, each pattern advanced across the window in one go.
  /// Larger batches raise throughput, smaller ones lower match delivery
  /// latency (a live 30 Hz stream wants ~1-8, an offline replay 32+).
  size_t batch_size = 32;
  /// Capacity of each shard's input FIFO, in batches. A full FIFO blocks
  /// the producer (backpressure).
  size_t queue_capacity = 64;
  /// Matcher options shared by every shard.
  MatcherOptions matcher;
  /// Work stealing: an idle worker executes the next pending batch of the
  /// deepest-backlog shard instead of parking. Pays off when per-shard
  /// costs are skewed (one hot query set); a perfectly balanced fleet
  /// steals nothing. Output is bit-identical either way -- each shard's
  /// batches still run one at a time in FIFO order and the watermark
  /// merge fixes delivery order.
  bool work_stealing = false;
  /// Pin worker i to the i-th CPU of the process affinity mask (see
  /// stream/thread_affinity.h). Keeps each shard's bank and arena
  /// cache-hot under the OS scheduler's migrations; leave off when the
  /// process shares its cores with other loads. Pin failures are counted
  /// (pin_failures()), never fatal.
  bool pin_workers = false;
  /// Index into stream::Event::values of the routing key (GestureRuntime
  /// points it at the session id appended to merged session streams).
  /// < 0 (default): no event carries a routing key, so every event goes
  /// to every shard (broadcast). >= 0 enables interest-routed fan-out: an
  /// event is delivered only to shards hosting a query that could match
  /// it -- a session-scoped query whose session_tag is BITWISE equal to
  /// the event's routing-field value, or any non-session-scoped query.
  /// Producers must therefore write the routing field exactly (the
  /// runtime's session tap stores exact small integers); an event whose
  /// values do not reach the routing field is conservatively broadcast.
  int routing_field = -1;
  /// Base-query placement policy (see ShardPlacement).
  ShardPlacement placement = ShardPlacement::kBalanced;
};

/// Cost heuristic of one deployed query for shard placement: total NFA
/// states plus distinct bank predicates (the two per-event cost drivers of
/// the flattened runtime). Never returns 0, so an engine that cannot
/// derive costs degenerates to balancing query counts. A query's weight is
/// fixed at deploy, so placement is a pure function of the add / remove /
/// restore / resize history -- never of the traffic.
uint64_t QueryCostWeight(const CompiledPattern& pattern);

/// Pure placement policy behind ShardedEngine::Rebalance, exposed for
/// direct unit testing. `shard_weights` is the total cost per shard;
/// `candidates` lists (query id, weight) of every query on the heaviest
/// shard; `max_skew` is the tolerated heaviest-lightest weight gap.
/// Returns the id of the query to move to the lightest shard, or -1 when
/// the shards are balanced enough or no candidate improves the spread.
/// Deterministic: among the candidates that strictly shrink the gap it
/// picks the one leaving the smallest residual gap, youngest (highest id)
/// on ties -- so every accepted move strictly reduces the sum of squared
/// shard weights and a rebalancing loop terminates.
int PickRebalanceVictim(const std::vector<uint64_t>& shard_weights,
                        const std::vector<std::pair<int, uint64_t>>& candidates,
                        uint64_t max_skew);

/// Pure steal policy behind the worker scheduler, exposed for direct unit
/// testing. `backlogs` is each shard's pending-batch count; `claimable[i]`
/// says shard i may be claimed right now (not busy, not retired). Returns
/// the claimable shard (excluding `self`, the thief's own shard) with the
/// deepest backlog -- the shard most behind the producer is the one
/// gating the fleet watermark -- lowest index on ties, or -1 when no other
/// shard has stealable work.
int PickStealVictim(const std::vector<size_t>& backlogs,
                    const std::vector<uint8_t>& claimable, int self);

class ShardedEngine {
 public:
  using QuerySpec = MultiMatchOperator::QuerySpec;

  explicit ShardedEngine(ShardedEngineOptions options = ShardedEngineOptions());
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Starts the shard workers. Queries may be added before or after.
  Status Start();

  /// Feeds one event (single producer thread). Events reach every
  /// interested shard (every shard, without routing_field); each shard
  /// advances only its own queries. Returns false before Start() and once
  /// stopped.
  /// Completed matches ready for delivery are dispatched from inside Push
  /// at batch boundaries, in (event-seq, query-id) order.
  /// The event's values are copied into a reused window slot, so the
  /// caller keeps ownership of `event`.
  bool Push(const stream::Event& event);

  /// Blocks until every shard has processed everything pushed so far and
  /// delivers all pending matches. Error if not running.
  Status Flush();

  /// Quiesces like Flush (every FIFO drained, every match delivered), then
  /// joins the workers and returns the first shard error (if any). The
  /// engine cannot be restarted.
  Status Stop();

  /// RestoreQuery from empty run state: adds a query (placed by the
  /// placement policy) and returns its stable engine-wide id. Callable
  /// before Start or while live, from any thread; when live, the shards
  /// are quiesced at an event boundary first, so the query sees exactly
  /// the events pushed after this call returns.
  ///
  /// Composite queries (spec.level >= 1, see cep/composite.h) do not live
  /// on a shard: they run in an engine-owned CompositeRunner driven from
  /// the watermark merge, so their inputs may span every shard. Each
  /// event sequence number with at least one base detection becomes one
  /// feedback epoch, delivered in (event-seq, level, query-id) order --
  /// bit-identical to the fused operator regardless of shard count, work
  /// stealing, or rebalancing.
  int AddQuery(QuerySpec spec);

  /// Removes a query (any thread). When live, all of its matches up to
  /// the quiesce boundary are delivered before it is discarded.
  Status RemoveQuery(int query_id);

  /// Discards the partial runs of every query (delivering already
  /// completed matches first when live).
  void ResetMatchers();

  /// Grows or shrinks the worker fleet to `num_shards` (clamped to >= 1)
  /// at a quiesced event boundary. Surviving and migrated queries keep
  /// their partial runs, statistics, and stable ids: shrinking extracts
  /// every query from the doomed shards and adopts it on a survivor
  /// before the doomed workers are joined; growing spawns fresh shards
  /// and rebalances onto them.
  /// Queries observe an exact prefix/suffix of the stream across the
  /// resize, exactly like AddQuery. Callable from any thread (not a
  /// detection callback), before Start or while live; error once stopped.
  Status Resize(int num_shards);

  /// One query's live matcher statistics, as aggregated by QueryStats().
  struct QueryStatsSnapshot {
    int query_id = -1;
    int shard = -1;
    uint64_t weight = 0;
    MatcherStats stats;
    /// Evaluation counters of the query's shard-shared predicate bank
    /// (identical for co-sharded queries): region memo hit rates and the
    /// batch broadcast-vs-recomputed row split that the SIMD row kernel
    /// exploits.
    PredicateBankStats bank;
  };

  /// Quiesces the shards at an exact event boundary, delivers everything
  /// pending, and externalizes every query's live run state and
  /// statistics, keyed by stable query id and ordered by it -- the
  /// consistent cut a checkpoint serializes. Non-destructive: every query
  /// keeps running. Callable from any thread (not a detection callback).
  Result<std::vector<std::pair<int, NfaRunState>>> ExportRunStates();

  /// Adds a query whose matcher is seeded with `runs` (previously
  /// exported run state on checkpoint recovery; empty for AddQuery).
  /// Quiesced like AddQuery; returns the query's stable engine-wide id,
  /// or an error (query not added) when `runs` does not fit the spec's
  /// pattern.
  Result<int> RestoreQuery(QuerySpec spec, const NfaRunState& runs);

  /// Per-query matcher statistics snapshot, ordered by query id, with each
  /// query's placement weight (weighted by QueryCostWeight, fixed at
  /// deploy). A pure read: it changes no placement. Callable from any
  /// thread; when live, the shards are quiesced at an event boundary first
  /// (delivering every pending match, like Flush) so the numbers are
  /// mutually consistent. Counters survive rebalancing: a query's stats
  /// travel with its matcher across shards and are never reset by an
  /// exchange.
  std::vector<QueryStatsSnapshot> QueryStats();
  /// Gate groups on the general path summed over the shards' matchers
  /// (MultiPatternMatcher::general_gate_groups), read quiesced like
  /// QueryStats.
  size_t general_gate_groups();

  int num_shards() const;
  size_t num_queries() const;
  bool running() const;
  /// Events fully processed by every shard.
  uint64_t processed() const;
  /// Shard currently hosting `query_id`, or -1 if unknown.
  int shard_of(int query_id) const;
  /// Queries per shard, in shard order.
  std::vector<size_t> shard_query_counts() const;
  /// Total query cost weight per shard, in shard order.
  std::vector<uint64_t> shard_weights() const;
  /// Queries moved between shards by rebalancing so far.
  uint64_t rebalanced_queries() const;
  /// Batches executed by a worker other than the shard's own (work
  /// stealing). 0 unless options.work_stealing.
  uint64_t stolen_batches() const;
  /// Worker pin attempts that the platform rejected (pin_workers only).
  int pin_failures() const;
  /// Fleet resizes performed by Resize so far.
  uint64_t resize_count() const;
  /// Cumulative batch-execution time per shard, in shard order.
  std::vector<uint64_t> shard_busy_ns() const;
  /// Fan-out windows waiting in the pool for reuse. Never more than
  /// max_spare_windows().
  size_t spare_windows() const;
  /// The pool's bound: num_shards x (queue_capacity + 1) + 2, the most
  /// windows the FIFOs, the executing workers and the producer can hold.
  size_t max_spare_windows() const;

  /// Fan-out and placement counters, cumulative since construction.
  /// Without routing (routing_field < 0) every window is a full
  /// broadcast: events_routed == window size x shard count and
  /// events_skipped_by_filter stays 0.
  struct EngineStats {
    /// Fan-out windows flushed to the fleet.
    uint64_t fanout_batches = 0;
    /// Per-shard enqueues that carried a strict subset of a window (the
    /// routed sub-batches; full-window shares are not counted here).
    uint64_t fanout_subbatches = 0;
    /// Event copies delivered to shards (the fan-out factor numerator:
    /// events_routed / events pushed = copies per event).
    uint64_t events_routed = 0;
    /// (event, shard) pairs the interest filter proved unnecessary.
    uint64_t events_skipped_by_filter = 0;
    /// Queries moved to consolidate a session onto its home shard
    /// (ShardPlacement::kSessionAffinity only).
    uint64_t affinity_moves = 0;
    /// Work-availability wake signals sent to shard workers (excludes the
    /// retire and shutdown wakeups; a quiesce sends none). With routing, a
    /// window only wakes its destination shards.
    uint64_t worker_wakeups = 0;
  };
  EngineStats engine_stats() const;

  /// TEST ONLY: flips one interest bit -- toggles `shard` in the routed
  /// destination set of routing key `key` -- to prove the differential
  /// harness catches a wrong filter. The corruption lasts until the set of
  /// shards hosting that key's queries next changes.
  void TestOnlyFlipInterestBit(double key, int shard);

 private:
  /// One completed match awaiting watermark release. The merge orders by
  /// (seq, level, query_id); shards host only base (level-0) queries, so
  /// recorded matches always carry level 0 -- the level key is what keeps
  /// the order total once composite detections (produced at delivery
  /// time, never enqueued here) are interleaved per epoch.
  struct PendingMatch {
    uint64_t seq = 0;
    int query_id = 0;
    Detection detection;
    int level = 0;
  };

  /// A fan-out unit of the window starting at base_seq, recycled through
  /// the engine's window pool. Slots [0, size) of `events` hold the unit's
  /// events; slots past `size` keep their values capacity for the next
  /// fill. A full window has `seqs` empty (slot i has sequence
  /// base_seq + i) and is shared by every shard that wants all of it. A
  /// routed sub-batch holds the subset of the window its shard is
  /// interested in, with `seqs[i]` carrying each slot's absolute sequence
  /// number; it keeps the window's base_seq, because the events the filter
  /// skipped are exact no-ops for the shard's queries.
  struct Batch {
    uint64_t base_seq = 0;
    size_t size = 0;
    std::vector<stream::Event> events;
    std::vector<uint64_t> seqs;
    /// Holders of an in-flight window (pool_mu_): the FIFO entries and
    /// executing workers that still need it, plus the producer while it
    /// distributes. The last release returns it to the pool.
    size_t refs = 0;
  };

  struct Shard {
    explicit Shard(const MatcherOptions& matcher_options)
        : op(matcher_options) {}

    MultiMatchOperator op;
    std::thread worker;

    // Scheduler state, guarded by the engine's pool_mu_. `queue` is the
    // shard's FIFO of fan-out windows; `running` is the batch a worker is
    // executing on this shard, if any (the shard-level mutual exclusion
    // that makes stealing safe); `retired` tells the shard's own worker to
    // exit (Resize shrink). An empty queue of a shard that is not running
    // is the quiesced state.
    std::deque<Batch*> queue;
    const Batch* running = nullptr;
    bool retired = false;

    // Per-shard wakeup channel: the shard's own worker waits on cv for
    // wake_epoch to move (both guarded by pool_mu_), so waking one shard
    // does not stampede the rest of the fleet -- a window that routing
    // skips for this shard costs it no wakeup at all. Control operations
    // wake no one to quiesce (they wait for the FIFOs to drain); only a
    // retire wakes the doomed shards, and shutdown every shard.
    std::condition_variable cv;
    uint64_t wake_epoch = 0;

    // Executor-only state while processing a batch -- exactly one worker
    // executes a shard at a time (`running`), and the pool lock orders
    // the handoff between consecutive executors. current_seq is stamped
    // per event by the operator's batch-event hook (batch_seqs for a
    // routed sub-batch, else base_seq + in-batch index) so recorded
    // matches carry exact sequence numbers even though the whole batch
    // runs as one matcher sweep.
    uint64_t batch_base_seq = 0;
    uint64_t current_seq = 0;
    const std::vector<uint64_t>* batch_seqs = nullptr;
    std::vector<PendingMatch> local;

    // Published by the executor, under pool_mu_, in the same hold that
    // clears `running`: a batch's matches, its first error, and its
    // execution wall time.
    std::deque<PendingMatch> pending;
    Status status;
    uint64_t busy_ns = 0;
  };

  struct QueryInfo {
    /// Hosting shard, or -1 for composite queries (which live in the
    /// engine-owned CompositeRunner, not on any shard -- every placement
    /// and rebalancing path skips shard < 0).
    int shard = -1;
    int local_id = -1;  // id inside the shard's MultiMatchOperator
    /// Placement weight: the query is weighted by QueryCostWeight, fixed at
    /// deploy.
    uint64_t weight = 1;
    DetectionCallback callback;
    int level = 0;
    /// Derived-event identity feeding composite epochs (base queries).
    double tag = 0;
    double session_tag = 0;
    /// The query provably matches only events whose routing-field value
    /// equals session_tag (see QuerySpec::session_scoped); drives both
    /// the interest filter and kSessionAffinity placement.
    bool session_scoped = false;
  };

  /// One session's slice of the placement index: the weight and number of
  /// its base queries on each shard.
  struct SessionPlacement {
    std::vector<uint64_t> weight;
    std::vector<uint32_t> count;
    /// Shards with count > 0 (0 only transiently: an empty session is
    /// erased).
    size_t shards = 0;
  };

  /// Aggregates of the base (shard >= 0) queries in queries_, kept in step
  /// by IndexQueryLocked / ResizeIndexLocked, so every placement decision
  /// reads O(shards) or O(sessions) state instead of walking all queries.
  /// Composite queries never enter it.
  struct PlacementIndex {
    std::vector<uint64_t> shard_weight;
    /// Non-session-scoped queries per shard (each makes its shard a
    /// wildcard destination of routed fan-out).
    std::vector<uint32_t> wildcard_count;
    /// Keyed by routing key.
    std::map<uint64_t, SessionPlacement> sessions;
    /// Keys of the sessions spread over more than one shard, in the key
    /// order ConsolidateAffinityLocked visits them.
    std::set<uint64_t> split_sessions;
    uint64_t total_weight = 0;
    size_t base_queries = 0;
    size_t scoped_queries = 0;
  };

  /// Creates a shard with its batch-event hook installed.
  std::unique_ptr<Shard> MakeShard();
  void SpawnWorkerLocked(Shard* shard, int worker_index);
  void WorkerLoop(Shard* primary, int worker_index);
  /// Next shard this worker may execute: its own when runnable, else --
  /// work stealing only -- PickStealVictim over the fleet. pool_mu_ held.
  Shard* PickRunnableLocked(Shard* primary);
  /// Runs one fan-out batch on `shard` into shard->local (no engine locks
  /// held; the caller claimed the shard by setting `running`).
  Status ExecuteBatch(Shard* shard, const Batch& batch);
  /// The one control barrier of Flush, Stop and every control operation
  /// (control_mu_ held; a no-op unless running): flushes the partial
  /// batch, waits until every shard FIFO is empty and no shard is running --
  /// all pushed events fully processed -- and delivers every pending
  /// match. The shards stay quiesced until control_mu_ is released.
  void QuiesceLocked();
  /// Routes the pending partial batch: a full-window share to every
  /// interested shard (or a routed sub-batch when only part of the
  /// window is), nothing to the rest.
  void FlushBatch();
  /// Splits the pending window by routing key and enqueues per-shard
  /// work. Computes destinations from the interest index (control_mu_
  /// held), then enqueues and wakes only destination shards, and takes a
  /// fresh pending window from the pool.
  void DistributeBatch();
  /// An empty window (size 0, no seqs): a spare one from the pool, or a
  /// new one while the pool is warming up. pool_mu_ held.
  std::unique_ptr<Batch> TakeWindowLocked();
  /// Drops one holder of `window`; the last one returns it to the pool,
  /// or frees it when the pool is full. pool_mu_ held.
  void ReleaseWindowLocked(Batch* window);
  size_t MaxSpareWindowsLocked() const;
  /// Work-availability wakeup of one shard's worker (pool_mu_ held).
  void WakeShardLocked(Shard* shard);
  /// Wakes every worker (shutdown; not counted in worker_wakeups).
  /// pool_mu_ held.
  void WakeAllWorkersLocked();
  /// Wakes workers whose shard has no queued work -- the candidates
  /// idle with nothing of their own to do; work stealing uses it to
  /// recruit thieves when a destination shard has claimable backlog.
  /// pool_mu_ held.
  void WakeIdleWorkersLocked();
  /// Delivers every merged match below the fleet watermark: reads the
  /// watermark and collects the pending matches in one pool_mu_ hold,
  /// then runs the callbacks with no pool lock held.
  void DrainAndDeliver();
  /// The fleet watermark: every event before it is processed by every
  /// shard and its matches published. A shard has processed everything
  /// before the oldest window it holds -- the batch it is running, else
  /// its FIFO head -- and a shard holding none everything pushed
  /// (next_seq_), since each window routing skipped for it is a no-op for
  /// its queries. control_mu_ and pool_mu_ held.
  uint64_t MinProcessedLocked() const;
  /// Dies when the calling thread is running detection callbacks:
  /// `call` would re-enter the engine ("<call> from inside a detection
  /// callback").
  void CheckNotDelivering(const char* call) const;
  /// The one install routine of AddQuery and RestoreQuery (control_mu_
  /// held, workers quiesced when live): places `query`, whose matcher
  /// already holds its run state, and returns its stable id.
  int InstallLocked(MultiMatchOperator::DetachedQuery query);
  /// Adds (`add`) or removes base query `info`'s weight and count on
  /// `shard` in the placement index, updating the interest index when the
  /// set of shards hosting its session (or any wildcard) changes.
  void IndexQueryLocked(const QueryInfo& info, int shard, bool add);
  /// Resizes the index's per-shard tables to shards_.size(); shards being
  /// dropped must already be empty.
  void ResizeIndexLocked();
  /// Total query cost weight per shard (control_mu_ held).
  const std::vector<uint64_t>& ShardWeightsLocked() const {
    return index_.shard_weight;
  }
  /// Tolerated heaviest-lightest gap: one average weight of the
  /// placement unit -- a base query under kBalanced, a whole session
  /// group under kSessionAffinity (a budget sized to single queries could
  /// never admit packing a multi-query session onto one shard). Composite
  /// queries live off-shard and count for nothing.
  uint64_t SkewBudget() const;
  int LeastLoadedShard() const;
  /// Placement of a new base query: the session's home shard under
  /// kSessionAffinity when the skew budget allows, else least-loaded.
  int PlaceQueryLocked(const QueryInfo& info) const;
  /// Moves one base query (live matcher, partial runs, statistics) to
  /// `destination_index`, rebinding its recorder (control_mu_ held,
  /// workers quiesced when live).
  void MoveQueryLocked(int query_id, int destination_index);
  /// Packs each session split across shards back onto its majority shard
  /// when the move keeps the fleet inside the skew budget
  /// (kSessionAffinity only; increments affinity_moves).
  void ConsolidateAffinityLocked(uint64_t budget);
  void Rebalance();
  DetectionCallback MakeRecorder(Shard* shard, int query_id);
  Status FirstShardError();
  /// The lazily created composite runner (control_mu_ held; only ever
  /// touched under it -- DrainAndDeliver, the sole execution driver, runs
  /// with control_mu_ held, so composite matching never races workers).
  CompositeRunner& EnsureCompositeLocked();

  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Serializes the producer (Push) against control operations
  // (Add/Remove/Flush/Stop/Reset/Resize) and guards all state below it.
  mutable std::mutex control_mu_;
  // The window Push fills; never null.
  std::unique_ptr<Batch> pending_batch_;
  uint64_t next_seq_ = 0;
  std::vector<PendingMatch> merge_scratch_;  // empty between deliveries
  // Id of the thread currently running user callbacks in DrainAndDeliver
  // (default id: none); guards against re-entrant engine calls from
  // inside a callback on that same thread. Checked before control_mu_
  // (held at delivery time), so other threads simply block on the mutex.
  std::atomic<std::thread::id> delivering_thread_{};

  std::map<int, QueryInfo> queries_;
  PlacementIndex index_;
  // Interest index (control_mu_), derived from index_ by IndexQueryLocked:
  // routing key (bitwise session_tag) -> sorted shard ids hosting a
  // session-scoped query for it, plus the shards hosting at least one
  // non-scoped query (which must see every event).
  std::unordered_map<uint64_t, std::vector<int>> interest_;
  std::vector<int> wildcard_shards_;
  // DistributeBatch scratch (control_mu_): per shard, the window indices
  // it is interested in, and the window it is sent (the pending window, a
  // routed sub-batch, or null when routing skips it).
  std::vector<std::vector<uint32_t>> route_scratch_;
  std::vector<Batch*> route_windows_;
  // Fan-out counters (control_mu_; worker_wakeups is counted in
  // wakeups_signaled_ under pool_mu_).
  EngineStats stats_;
  // Composite (level >= 1) queries, keyed by engine query id; null until
  // the first one is deployed (zero flat-path cost without composites).
  std::unique_ptr<CompositeRunner> composite_;
  int next_query_id_ = 0;
  uint64_t rebalanced_queries_ = 0;
  uint64_t resize_count_ = 0;

  bool running_ = false;
  bool stopped_ = false;

  // Shared scheduler pool. pool_mu_ guards every Shard's scheduler state
  // (queue/running/retired/wake_epoch) and published results
  // (pending/status/busy_ns), the shards_ vector shape, shutdown_, the
  // scheduler counters, the window pool and every in-flight window's refs.
  // Worker wakeups are per shard (Shard::cv / Shard::wake_epoch) so a
  // routed window only disturbs the shards it targets; control_cv_ wakes
  // the producer/control side (backpressure space, a shard draining its
  // FIFO or finishing a batch).
  mutable std::mutex pool_mu_;
  std::condition_variable control_cv_;
  bool shutdown_ = false;
  uint64_t stolen_batches_ = 0;
  uint64_t wakeups_signaled_ = 0;
  // Atomic: a worker counts its pin failure before taking pool_mu_.
  std::atomic<int> pin_failures_{0};
  // Windows ready for reuse, at most MaxSpareWindowsLocked(). A window in
  // flight is owned by its holders (Batch::refs).
  std::vector<std::unique_ptr<Batch>> spare_windows_;
  // PickRunnableLocked scratch (pool_mu_ held by every caller).
  std::vector<size_t> steal_backlogs_;
  std::vector<uint8_t> steal_claimable_;
};

/// Stream-operator adapter: deploy a ShardedEngine as a subscriber of a
/// StreamEngine stream, fed fan-out style by whichever thread pushes into
/// that StreamEngine. Open/Close map to Start/Stop; every dispatched event
/// is pushed into the sharded engine and forwarded downstream unchanged.
class ShardedMatchOperator : public stream::Operator {
 public:
  /// `sync_delivery` makes Process Flush() after every pushed event, so
  /// detections are delivered synchronously at the exact event boundary
  /// -- the order a fused single-threaded deployment would produce them
  /// in within the stream dispatch. Interactive workflows (the learning
  /// controller, whose control-gesture detections steer the session) need
  /// this; throughput deployments should leave it off and Flush at
  /// convenient boundaries instead.
  explicit ShardedMatchOperator(
      ShardedEngineOptions options = ShardedEngineOptions(),
      bool sync_delivery = false)
      : engine_(options), sync_delivery_(sync_delivery) {}

  ShardedEngine& engine() { return engine_; }
  const ShardedEngine& engine() const { return engine_; }

  Status Open() override { return engine_.Start(); }
  Status Process(const stream::Event& event) override;
  /// Tolerates an engine the caller already stopped by hand.
  Status Close() override {
    return engine_.running() ? engine_.Stop() : OkStatus();
  }

  std::string name() const override {
    return "sharded_match[" + std::to_string(engine_.num_shards()) +
           " shards, " + std::to_string(engine_.num_queries()) + " queries]";
  }

 private:
  ShardedEngine engine_;
  bool sync_delivery_ = false;
};

}  // namespace epl::cep

#endif  // EPL_CEP_SHARDED_ENGINE_H_
