// MultiPatternMatcher: many concurrent patterns over one shared
// PredicateBank, with runtime add/remove.
//
// There is one execution path: a window of B events. The shared bank
// answers the whole window at once (PredicateBank::EvaluateBatch, one
// satisfied-predicate row per event) and every pattern reads its slice of
// those rows. A single event is a window of one (Process forwards to
// ProcessBatch). In the default dominant mode the per-pattern execution
// layer is FLATTENED into a columnar (struct-of-arrays) runtime owned by
// this class: the dominant run state of all patterns lives in one arena
// -- entry timestamps in a flat `times_` block per (pattern, state) row
// plus one active bitset -- advanced by a single tight loop that reads the
// bank's result rows directly. No per-pattern predicate cache clears, no
// ProcessShared indirection, no per-run heap vectors.
//
// Each registered CompiledPattern still keeps an NfaMatcher object: it is
// the behavioral oracle (the arena loop reproduces ProcessDominant
// bit-exactly; the equivalence property tests in
// tests/cep_multi_matcher_test.cc assert that), it carries the pattern's
// MatcherStats, and it is the vehicle for moving a live pattern between
// matchers -- ExtractPattern materializes the arena rows back into the
// matcher, AdoptPattern ingests them, so ShardedEngine rebalancing never
// loses partial runs. In kExhaustive mode every pattern runs on its own
// NfaMatcher via ProcessShared (run branching is per-pattern by nature),
// which keeps `select all` semantics untouched.
//
// The pattern set is mutable at runtime. Add/Remove/Adopt/Extract mark the
// bank dirty; the next ProcessBatch() swaps in a freshly built bank
// (generation counter incremented) and rebuilds the arena before evaluating
// the window, so the window that is currently in flight -- and any event
// processed before the mutation -- finishes entirely on the old bank.
// Surviving patterns keep their partial runs across rebuilds (their arena
// rows are carried over), which makes a pattern's match stream independent
// of its neighbours being exchanged (the churn property tests in
// tests/cep_dynamic_queries_test.cc assert exactly that).

#ifndef EPL_CEP_MULTI_MATCHER_H_
#define EPL_CEP_MULTI_MATCHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cep/matcher.h"
#include "cep/predicate_bank.h"
#include "stream/event.h"

namespace epl::cep {

class MultiPatternMatcher {
 public:
  explicit MultiPatternMatcher(MatcherOptions options = MatcherOptions());

  MultiPatternMatcher(const MultiPatternMatcher&) = delete;
  MultiPatternMatcher& operator=(const MultiPatternMatcher&) = delete;

  /// Registers `pattern` (must outlive the matcher and share the schema of
  /// every other registered pattern); returns the pattern's index. May be
  /// called at any time between Process() calls; the shared bank and the
  /// run-state arena are rebuilt lazily by the next Process().
  ///
  /// `gate` (optional, caller-owned, must outlive the matcher) is a
  /// single-state pattern whose only predicate the matcher ENFORCES as an
  /// extra conjunct on every state of `pattern`: the gated pattern behaves
  /// exactly as if the gate predicate were conjoined into each pose, i.e.
  /// a transition (or seed) requires gate AND pose predicate. Keeping the
  /// gate OUT of the pattern's own predicates is deliberate: identical
  /// patterns deployed under different gates (the multi-session runtime's
  /// per-session copies of one gesture) then share their pose predicates
  /// in the bank, so predicate evaluation cost does not grow with the
  /// number of sessions.
  ///
  /// Execution: patterns whose gates are open on the same events form a
  /// group, and the dominant flat loop decides a whole group per event --
  /// gate shut skips every member outright (output-exact: this runtime has
  /// no eager run expiry, so an event that can satisfy no effective state
  /// predicate is a pure no-op for the pattern), gate open runs the members
  /// on their pose predicates alone (equivalent, since the gate conjunct is
  /// known true). A gate takes one of two paths, decided from the gate set
  /// the matcher holds when its bank is rebuilt:
  ///  - key path: a gate whose predicate PredicateBank::Decompose()s into
  ///    one interval on one field (the runtime's session gates). When such
  ///    gates share a field and their intervals are pairwise disjoint, they
  ///    stay out of the bank; each window maps every event's key to its
  ///    group with one binary search over the sorted intervals, so only the
  ///    groups whose key occurs in the window are touched at all.
  ///  - general path: every other gate (multi-field, overlapping, or not
  ///    decomposable) is a bank predicate, and its group reads one gate
  ///    column per window from the bank's result rows.
  /// Per-event cost is therefore sub-linear in the number of foreign
  /// sessions. Exhaustive mode checks the gate per (entry, event). A gated
  /// pattern's MatcherStats count only the events its gate admits, the same
  /// in both modes and however the stream was fanned out. The differential
  /// fuzz harness pins gated execution against an NfaMatcher oracle running
  /// the explicitly conjoined pattern.
  int AddPattern(const CompiledPattern* pattern,
                 const CompiledPattern* gate = nullptr);

  /// Removes the pattern at `index`, discarding its partial runs. Indices
  /// of subsequent patterns shift down by one (callers keep their own
  /// stable ids; see MultiMatchOperator).
  void RemovePattern(int index);

  /// Detaches the pattern at `index` together with its live matcher (run
  /// state, statistics), for adoption by another MultiPatternMatcher --
  /// this is how ShardedEngine rebalances queries across shards without
  /// losing partial matches. The pattern's arena rows and accumulated
  /// statistics are materialized back into the matcher first. Indices of
  /// subsequent patterns shift down. The returned matcher still points at
  /// the caller-owned pattern.
  std::unique_ptr<NfaMatcher> ExtractPattern(int index);

  /// Appends a matcher detached from another MultiPatternMatcher (its run
  /// state is preserved and ingested into the arena by the next
  /// Process()); returns the pattern's index here. `gate` as in
  /// AddPattern (a detached query's gate travels with it across shards).
  int AdoptPattern(std::unique_ptr<NfaMatcher> matcher,
                   const CompiledPattern* gate = nullptr);

  /// One completed match of one registered pattern.
  struct MultiMatch {
    int pattern_index = 0;
    PatternMatch match;
    /// Index of the completing event inside the window passed to
    /// ProcessBatch (always 0 for single-event Process), so batched
    /// output can be merged in per-event order.
    int batch_index = 0;
  };

  /// Feeds one event to every pattern: a window of one.
  void Process(const stream::Event& event, std::vector<MultiMatch>* out) {
    ProcessBatch(&event, 1, out);
  }

  /// Feeds the `count` events of `events` (in stream order) to every
  /// pattern and appends completed matches to `out` (not cleared) in
  /// ascending batch_index, and within one event grouped by pattern index
  /// in registration order, each tagged with the in-batch index of its
  /// completing event. The output does not depend on how a stream is cut
  /// into windows. Rebuilds the shared bank and the arena first if the
  /// pattern set changed. The bank answers the whole window in one pass
  /// per field (EvaluateBatch); in dominant mode the flattened loop then
  /// advances each (pattern, state) arena row across all `count` events
  /// before touching the next pattern, so per-pattern loop overhead is paid
  /// once per window instead of once per event.
  /// tests/cep_differential_fuzz_test.cc pins every window size against
  /// the NfaMatcher oracle.
  void ProcessBatch(const stream::Event* events, size_t count,
                    std::vector<MultiMatch>* out);

  /// Discards all partial runs of every pattern.
  void Reset();

  size_t num_patterns() const { return entries_.size(); }
  const MatcherOptions& options() const { return options_; }
  /// The pattern's matcher, with run state and statistics synchronized
  /// from the arena (a fused dominant-mode pattern's live state is
  /// arena-resident between syncs).
  const NfaMatcher& matcher(int pattern_index) const;
  /// The pattern's statistics, synchronized from the arena without the
  /// run-state copy matcher() makes: the cheap read for callers that only
  /// need counters (placement weights, stats snapshots).
  const MatcherStats& stats(int pattern_index) const;
  const PredicateBank& bank() const { return *bank_; }
  /// Number of bank swaps so far. Each mutation batch between two
  /// Process() calls costs exactly one rebuild.
  uint64_t bank_generation() const { return bank_generation_; }
  /// Gate groups of the last dominant-mode window that took the general
  /// (bank predicate, gate column) path rather than the key path; see
  /// AddPattern. 0 before the first window.
  size_t general_gate_groups() const { return groups_.size(); }

 private:
  /// Per-pattern statistic deltas accumulated by the arena loop since the
  /// last sync into the matcher's MatcherStats. A pattern's events are the
  /// events the loop stepped it through, each costing one seed predicate
  /// read: every window event when ungated (derived from the global arena
  /// event counter, so ungated patterns pay no per-window write), else the
  /// events its gate admitted (`gated_events`, added per open window).
  struct ArenaCounters {
    uint64_t events_synced = 0;  // arena_events_ at the last sync
    uint64_t gated_events = 0;
    uint64_t matches = 0;
    /// Bank reads by the advance loop (states with an active predecessor).
    uint64_t advance_reads = 0;
    /// Events whose seed read was skipped (consume-all completion).
    uint64_t seed_skips = 0;
    size_t peak_runs = 0;  // max live rows observed since the last sync
  };

  struct Entry {
    std::unique_ptr<NfaMatcher> matcher;
    /// Local distinct predicate id -> bank predicate id.
    std::vector<int> bank_ids;
    /// Optional group gate (see AddPattern); caller-owned.
    const CompiledPattern* gate = nullptr;
    /// Set by AssignGates, with the bank: a key-path gate's index into
    /// key_groups_, else -1 and a general-path gate's bank predicate id.
    int32_t key_group = -1;
    int gate_bank_id = -1;
    /// Dominant-mode arena residency. While true, the pattern's live run
    /// state is the arena rows below, not the matcher's own buffers.
    bool in_arena = false;
    bool consume_all = false;
    int num_states = 0;
    size_t row_offset = 0;    // first (pattern, state) row / active bit
    size_t times_offset = 0;  // first TimePoint of the n*n times block
    /// Rows currently active (dominant runs alive).
    uint32_t live_rows = 0;
    mutable ArenaCounters counters;
  };

  /// Per-row (pattern, state) predicate access, precomputed against the
  /// current bank: a (word, mask) pair into a bank result row for
  /// decomposable predicates, or the bank id for fallback lookups; plus
  /// this state's slice of the flattened time constraints.
  struct StateRef {
    int32_t word = -1;
    uint64_t mask = 0;
    int32_t fallback_id = -1;
    uint32_t constraint_begin = 0;
    uint32_t constraint_count = 0;
  };

  struct FlatConstraint {
    int32_t from_state = 0;
    Duration max_gap = 0;
  };

  /// General path: patterns sharing one gate bank predicate (same bank
  /// id), skipped together by the flat loop when the gate is unsatisfied.
  /// Rebuilt by BuildArena.
  struct GateGroup {
    StateRef gate;  // constraint fields unused
    std::vector<uint32_t> members;  // entry indices
  };

  /// Key path: patterns whose key gates have one interval [lo, hi] on
  /// key_field_ (lo is key_lo_ at the same index). AssignGates sets the
  /// intervals, BuildArena the members.
  struct KeyGroup {
    double hi = 0;
    std::vector<uint32_t> members;  // entry indices
  };

  /// What a gate's predicate decomposes to, memoized per gate body.
  struct GateShape {
    CompiledPattern gate;  // pins the body, whose address is the memo key
    int field = -1;        // -1: not one interval on one field
    PredicateBank::Interval interval;
  };

  bool RowActive(size_t row) const {
    return (active_[row >> 6] >> (row & 63)) & 1;
  }
  // Callers keep the owning entry's live_rows counter in step.
  void SetRow(size_t row) { active_[row >> 6] |= uint64_t{1} << (row & 63); }
  void ClearRow(size_t row) {
    active_[row >> 6] &= ~(uint64_t{1} << (row & 63));
  }

  /// Re-registers every live pattern into a fresh bank and swaps it in.
  void RebuildBank();
  /// Runs before an unbuilt bank's first window: classifies every live
  /// gate (once per distinct body, see gate_shapes_), picks the key field
  /// and its key gates, and registers the other gates in the bank.
  void AssignGates();
  /// Lays the flat arena out against the current (built) bank, carrying
  /// over arena-resident run state and ingesting matcher-resident state.
  void BuildArena();
  /// The flattened dominant-mode loop: pattern-major over the event
  /// window (the bank must already have EvaluateBatch()d it). Appends
  /// matches sorted by (batch_index, pattern_index). `Count` is size_t,
  /// or std::integral_constant<size_t, 1> for a window of one: the same
  /// loop, instantiated with the window size known at compile time so the
  /// per-event call folds its window addressing without touching the code
  /// of larger windows (measured 6-10% of a per-event call at 64-256
  /// queries on a 4-vCPU Xeon).
  template <typename Count>
  void ProcessFlatBatch(const stream::Event* events, Count count,
                        std::vector<MultiMatch>* out);
  /// The window's key pass: maps each event's key to the one key group
  /// whose interval holds it (binary search over the sorted, disjoint
  /// lower bounds; a run of one session's events reuses the previous
  /// lookup) and sets the event's bit in that group's key_truth_ column.
  /// Lists the groups it opens in key_touched_: only they are swept.
  void OpenKeyGroups(const stream::Event* events, size_t count,
                     size_t gate_words);
  /// Folds the entry's arena counters into its matcher's MatcherStats.
  void SyncStats(const Entry& entry) const;
  /// Copies the entry's arena rows into its matcher's dominant-run
  /// buffers (the arena stays authoritative unless the entry leaves it).
  void SyncRunState(const Entry& entry) const;

  /// Raised for the duration of one Process/ProcessBatch sweep. A matcher
  /// sweep is a single-executor work unit: a ShardedEngine shard's one
  /// worker runs its sweeps back to back, and control operations touch
  /// the matcher only while the shards are quiesced, so two sweeps never
  /// overlap -- this trips immediately if a scheduler bug ever violates
  /// that, instead of silently corrupting the arena.
  std::atomic<bool> sweeping_{false};

  MatcherOptions options_;
  std::unique_ptr<PredicateBank> bank_;
  bool bank_dirty_ = false;
  bool arena_dirty_ = false;
  uint64_t bank_generation_ = 0;
  std::vector<Entry> entries_;
  std::vector<PatternMatch> scratch_matches_;
  std::vector<MultiMatch> batch_scratch_;

  // The dominant-mode arena: row (entry.row_offset + state) is one NFA
  // state of one pattern; its run's entry timestamps for states 0..s live
  // at times_[entry.times_offset + s * n .. + s].
  uint64_t arena_events_ = 0;
  std::vector<TimePoint> times_;
  std::vector<uint64_t> active_;
  std::vector<StateRef> states_;
  std::vector<FlatConstraint> flat_constraints_;

  // Gate classification memo: gate body -> shape. Rebuilt by AssignGates
  // from the live gates only, so it never outgrows the gate set.
  std::unordered_map<const void*, GateShape> gate_shapes_;
  // The key path's field, or -1 when no gate takes the key path.
  int key_field_ = -1;

  // Gate groups (empty unless some pattern registered with a gate).
  std::vector<GateGroup> groups_;
  std::vector<uint32_t> ungated_members_;
  // Key groups sorted by interval: key_lo_ is the binary-search array.
  std::vector<double> key_lo_;
  std::vector<KeyGroup> key_groups_;
  // Per-batch gate truth as bitmask columns of ceil(count / 64) words, bit
  // b of a group's column = gate open for in-batch event b; members then
  // visit only the SET bits (ctz iteration), so a pattern's per-window
  // cost is O(open events), not O(count).
  //  - gate_truth_: one column per general group, extracted from the
  //    bank's result-word rows by the SIMD gate kernel. group_open_ keeps
  //    the per-group any-event-open summary for whole-window skips.
  //  - key_truth_: one column per key group, written by the window's key
  //    pass and cleared on a group's first open event. key_open_ flags the
  //    groups opened in this window (all zero between windows), and
  //    key_touched_ lists them, so only they are swept.
  std::vector<uint64_t> gate_truth_;
  std::vector<uint8_t> group_open_;
  std::vector<uint64_t> key_truth_;
  std::vector<uint8_t> key_open_;
  std::vector<uint32_t> key_touched_;
  // The window's open groups: (gate column, members).
  std::vector<std::pair<const uint64_t*, const std::vector<uint32_t>*>>
      open_groups_;
};

}  // namespace epl::cep

#endif  // EPL_CEP_MULTI_MATCHER_H_
