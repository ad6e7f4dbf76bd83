// PredicateBank: shared predicate evaluation for many patterns, one event
// window at a time.
//
// Deploying hundreds of learned gesture queries naively costs
// O(patterns x states) ExprProgram interpretations per event even though
// learned predicates all share one shape: conjunctions of range predicates
// `abs(field - center) < width` (core/query_gen.h). The bank exploits that:
//
//  1. Dedup: state predicates of every registered CompiledPattern are
//     collected and deduplicated by exact canonical key
//     (CompiledPattern::predicate_key), so structurally identical
//     predicates are evaluated once per event no matter how many patterns
//     and states reference them.
//  2. Interval decomposition: each distinct predicate is decomposed, when
//     possible, into per-field interval constraints (a conjunction of
//     range/comparison atoms has at most one interval per field after
//     intersection). Non-decomposable predicates fall back to their
//     ExprProgram.
//  3. Interval index: per referenced field the bank knows, for every
//     elementary region between sorted interval endpoints, the bitset over
//     decomposable predicates whose constraint on that field holds there.
//     Because every constraint is one interval, a predicate's bit is set on
//     a CONTIGUOUS range of regions, so the index is stored as a
//     delta-vs-neighbor encoding: absolute bitsets only every
//     kCheckpointStride regions, plus per-region on/off transitions (two
//     per predicate in total). Build time and memory are
//     O(P^2 / stride + P log P) per field instead of the dense O(P^2).
//  4. Cross-event region memo: a 30 Hz skeleton field usually stays inside
//     the previous event's elementary region, so each field caches its
//     last region together with the materialized bitset; when the new
//     value still lies inside the region's bounds, both the binary search
//     and the checkpoint+delta replay are skipped and the cached words are
//     ANDed directly.
//
//     Evaluating an event is then, per referenced field, a bounds check
//     (memo hit) or a binary search plus O(D/stride + stride) replay, and
//     one bitset AND -- instead of O(patterns x states) program
//     interpretations. A run of consecutive same-region events in one
//     window shares a single AND broadcast over its result rows.
//
// All registered patterns must be compiled against the same schema (they
// are subscribers of one stream); the canonical-key dedup assumes field
// names resolve to the same indices.
//
// A bank is write-once: registration freezes at Build() (called by the
// first EvaluateBatch()). When
// the deployed pattern set changes at runtime, the owner constructs a
// fresh bank, re-registers the surviving patterns, and swaps it in between
// events (MultiPatternMatcher::bank_generation counts the swaps); the
// retired bank -- including the predicate truth it served for the event in
// flight -- is never mutated by the exchange.

#ifndef EPL_CEP_PREDICATE_BANK_H_
#define EPL_CEP_PREDICATE_BANK_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "cep/nfa.h"
#include "cep/simd.h"
#include "stream/event.h"

namespace epl::cep {

struct PredicateBankStats {
  uint64_t events = 0;
  /// ExprProgram interpretations of fallback (non-decomposable) predicates.
  uint64_t program_evaluations = 0;
  /// Field evaluations answered by the cross-event region memo (no binary
  /// search, no delta replay).
  uint64_t region_memo_hits = 0;
  /// Field evaluations that had to binary-search and replay deltas.
  uint64_t region_searches = 0;
  /// (field, event) rows whose region bitset came straight from the
  /// still-valid cross-event memo, i.e. rows ANDed by broadcasting one
  /// memo word run across the row block. The ~70% memo-hit claim is
  /// batch_broadcast_rows / (batch_broadcast_rows + batch_recomputed_rows).
  /// Since every evaluation is a window, this always equals
  /// region_memo_hits (and batch_recomputed_rows equals region_searches);
  /// both names stay because the end-to-end benchmark reports them.
  uint64_t batch_broadcast_rows = 0;
  /// (field, event) rows whose event left the previous elementary region,
  /// forcing a binary search + delta replay before the broadcast run
  /// restarts.
  uint64_t batch_recomputed_rows = 0;
};

class PredicateBank {
 public:
  PredicateBank() = default;

  PredicateBank(const PredicateBank&) = delete;
  PredicateBank& operator=(const PredicateBank&) = delete;

  /// Registers every state predicate of `pattern` (which must outlive the
  /// bank) and returns the bank predicate id for each distinct predicate
  /// slot of the pattern, i.e. `result[pattern.predicate_id(state)]` is the
  /// bank id of `state`'s predicate. Must not be called after Build().
  /// Copies of one compiled pattern share a body (CompiledPattern::body_id)
  /// and register once: later copies reuse the first registration's ids,
  /// which re-registering would reproduce exactly, so a bank rebuild over
  /// N sessions deploying the same gesture hashes its keys once, not N
  /// times.
  std::vector<int> RegisterPattern(const CompiledPattern& pattern);

  /// Decomposes predicates and builds the per-field interval indexes.
  /// Called automatically by the first EvaluateBatch().
  void Build();
  bool built() const { return built_; }

  /// Answers `count` events (a single event is a window of one) in one
  /// pass per field. Each field performs ONE region-memo walk over the
  /// whole window -- the binary search and checkpoint+delta replay happen
  /// only when an event leaves the previous event's elementary region, so
  /// consecutive same-region events (the common 30 Hz case) cost a bounds
  /// check and a bitset AND each. Results are read back per in-batch
  /// index with batch_result_words(b) / batch_value(b, id). `events` is
  /// borrowed, not copied: it must stay valid until the next
  /// EvaluateBatch (batch_value interprets fallback predicates lazily
  /// against it). Thread-compatible, not thread-safe: the lazy fallback
  /// cache mutates under batch_value().
  void EvaluateBatch(const stream::Event* events, size_t count);

  /// Satisfied-predicate words of in-batch event `b` of the last
  /// EvaluateBatch: bit `slot_of(id)` is the truth of decomposable
  /// predicate `id` (num_decomposable() bits).
  const uint64_t* batch_result_words(size_t b) const {
    return batch_words_.data() + b * words();
  }

  /// Stride, in uint64 words, between consecutive batch_result_words rows.
  /// The flat matcher uses base pointer + b * row_words() arithmetic (and
  /// hands both straight to the SIMD gate kernel) instead of re-calling
  /// batch_result_words per event.
  size_t row_words() const { return words(); }

  /// Truth of bank predicate `id` for in-batch event `b` of the last
  /// EvaluateBatch. Fallback predicates are interpreted lazily, at most
  /// once per (event, predicate) (program_evaluations counts them).
  bool batch_value(size_t b, int id) const;

  /// Columnar read surface for the flattened multi-pattern runtime: a
  /// decomposable predicate is read as bit `slot_of(id)` of a
  /// batch_result_words row; fallback predicates must go through
  /// batch_value().
  bool decomposable(int id) const { return predicates_[id].decomposable; }
  int slot_of(int id) const { return predicates_[id].slot; }

  int num_predicates() const { return static_cast<int>(predicates_.size()); }
  /// Predicates served by the interval index.
  int num_decomposable() const { return num_decomposable_; }
  /// Predicates evaluated via their ExprProgram.
  int num_fallback() const {
    return num_predicates() - num_decomposable_;
  }
  /// Total states registered across all patterns (before dedup).
  size_t registered_states() const { return registered_states_; }
  /// Bytes held by the per-field interval indexes. The checkpoint term is
  /// O(P^2 / kCheckpointStride) in num_decomposable() -- a 1/stride
  /// fraction of the dense per-region index -- plus O(P) deltas/bounds.
  size_t index_bytes() const;

  const PredicateBankStats& stats() const { return stats_; }

  /// One per-field interval constraint: lo <= v <= hi. Bounds are always
  /// inclusive -- refinement stores the exact largest/smallest satisfying
  /// double (see predicate_bank.cc). Exposed for tests.
  struct Interval {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
  };

  /// Decomposes a bound predicate into per-field intervals (field index ->
  /// intersected interval). Returns false when the expression is not a
  /// conjunction of single-field range/comparison atoms. Exposed for tests.
  static bool Decompose(const Expr& expr, std::map<int, Interval>* out);

 private:
  struct Predicate {
    const ExprProgram* program = nullptr;  // owned by a registered pattern
    const Expr* expr = nullptr;            // bound tree, for decomposition
    bool decomposable = false;
    int slot = -1;  // bit index (decomposable) or fallback_programs_ index
    std::map<int, Interval> intervals;     // filled by Build()
  };

  /// Absolute region bitsets are materialized only every this many
  /// elementary regions; the regions in between are reached by replaying
  /// their on/off deltas. Governs the build/memory vs replay trade-off.
  static constexpr size_t kCheckpointStride = 64;

  /// Sorted-endpoint stabbing index for one field over the 2k+1 elementary
  /// regions of k sorted endpoints ((-inf,b0), [b0,b0], (b0,b1), ...). The
  /// region bitset (bit d set iff predicate d has no constraint on the
  /// field or its constraint holds everywhere in the region) is encoded
  /// delta-vs-neighbor: each predicate's constraint holds on a contiguous
  /// region range [on_region, off_region), so neighbouring regions differ
  /// only in the predicates whose range starts or ends between them.
  struct FieldIndex {
    /// One bit transition between region `region - 1` and `region`.
    struct RegionDelta {
      uint32_t region = 0;
      uint32_t bit = 0;
      bool on = false;
    };

    int field = -1;
    std::vector<double> bounds;        // sorted unique finite endpoints
    simd::WordVector constrained;      // bit d: predicate d constrains field
    /// Absolute bitset of region c * kCheckpointStride at
    /// checkpoints[c * words].
    std::vector<uint64_t> checkpoints;
    std::vector<RegionDelta> deltas;   // sorted by region
    /// Per checkpoint, index of the first delta with region beyond it.
    std::vector<uint32_t> checkpoint_delta_begin;

    /// Cross-event memo: the last resolved region and its materialized
    /// bitset. Valid until the field value leaves the region's bounds.
    bool memo_valid = false;
    size_t memo_region = 0;
    simd::WordVector memo_words;
  };

  size_t words() const { return (num_decomposable_ + 63) / 64; }

  /// True when `v` lies inside elementary region `region` of `index`.
  static bool RegionContains(const FieldIndex& index, size_t region,
                             double v);
  /// Materializes `region`'s bitset into the field memo (checkpoint copy
  /// plus delta replay).
  void SeekRegion(FieldIndex* index, size_t region) const;

  std::unordered_map<std::string, int> key_to_id_;
  /// Registered body -> its slot ids (see RegisterPattern). Each entry
  /// keeps a copy of the pattern, which holds the body alive: no other
  /// body can take its address (its key) while the bank lives.
  struct Registered {
    CompiledPattern pattern;
    std::vector<int> slot_ids;
  };
  std::unordered_map<const void*, Registered> body_ids_;
  std::vector<Predicate> predicates_;
  size_t registered_states_ = 0;

  bool built_ = false;
  int num_decomposable_ = 0;
  std::vector<FieldIndex> fields_;
  std::vector<const ExprProgram*> fallback_programs_;

  // Last EvaluateBatch() results: one words()-sized row per in-batch
  // event (32-byte aligned for the SIMD kernels), plus a
  // (event x fallback slot) lazy truth grid over the borrowed window
  // (-1 unknown, 0 false, 1 true).
  simd::WordVector batch_words_;
  mutable std::vector<int8_t> batch_fallback_values_;
  const stream::Event* batch_events_ = nullptr;

  mutable PredicateBankStats stats_;
};

}  // namespace epl::cep

#endif  // EPL_CEP_PREDICATE_BANK_H_
