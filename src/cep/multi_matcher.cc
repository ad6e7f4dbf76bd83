#include "cep/multi_matcher.h"

#include <algorithm>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "cep/simd.h"
#include "common/logging.h"

namespace epl::cep {
namespace {

// RAII wrapper around MultiPatternMatcher::sweeping_ (see its comment):
// asserts that sweeps never overlap across threads.
class ScopedSweep {
 public:
  explicit ScopedSweep(std::atomic<bool>& flag) : flag_(flag) {
    EPL_CHECK(!flag_.exchange(true, std::memory_order_acquire))
        << "concurrent MultiPatternMatcher sweep: a stolen work unit ran "
           "without shard mutual exclusion";
  }
  ~ScopedSweep() { flag_.store(false, std::memory_order_release); }

  ScopedSweep(const ScopedSweep&) = delete;
  ScopedSweep& operator=(const ScopedSweep&) = delete;

 private:
  std::atomic<bool>& flag_;
};

}  // namespace

MultiPatternMatcher::MultiPatternMatcher(MatcherOptions options)
    : options_(options), bank_(std::make_unique<PredicateBank>()) {}

int MultiPatternMatcher::AddPattern(const CompiledPattern* pattern,
                                    const CompiledPattern* gate) {
  EPL_CHECK(pattern != nullptr);
  // A fresh matcher is an adoption from empty run state.
  return AdoptPattern(std::make_unique<NfaMatcher>(pattern, options_), gate);
}

void MultiPatternMatcher::RemovePattern(int index) {
  ExtractPattern(index);
}

std::unique_ptr<NfaMatcher> MultiPatternMatcher::ExtractPattern(int index) {
  EPL_CHECK(index >= 0 && static_cast<size_t>(index) < entries_.size());
  Entry& entry = entries_[static_cast<size_t>(index)];
  if (entry.in_arena) {
    // The live run state and pending statistics move back into the
    // matcher, which again becomes self-contained.
    SyncRunState(entry);
  }
  SyncStats(entry);
  std::unique_ptr<NfaMatcher> matcher = std::move(entry.matcher);
  entries_.erase(entries_.begin() + index);
  // The bank still references the removed pattern's predicates; it must be
  // rebuilt (and the arena with it) before it is consulted again.
  bank_dirty_ = true;
  arena_dirty_ = true;
  return matcher;
}

int MultiPatternMatcher::AdoptPattern(std::unique_ptr<NfaMatcher> matcher,
                                      const CompiledPattern* gate) {
  EPL_CHECK(matcher != nullptr);
  EPL_CHECK(gate == nullptr || gate->num_states() == 1)
      << "a gate is a single-state pattern";
  // The arena would execute the pattern under THIS matcher's mode and read
  // only its dominant-run state; adopting across modes would silently drop
  // exhaustive runs_ and coerce semantics, so fail loudly instead.
  EPL_CHECK(matcher->options_.mode == options_.mode)
      << "adopted matcher's mode differs from this MultiPatternMatcher's";
  Entry entry;
  entry.matcher = std::move(matcher);
  entry.gate = gate;
  if (!bank_->built() && !bank_dirty_) {
    entry.bank_ids = bank_->RegisterPattern(entry.matcher->pattern());
    if (gate != nullptr) {
      entry.gate_bank_id = bank_->RegisterPattern(*gate)[0];
    }
  } else {
    bank_dirty_ = true;
  }
  entry.counters.events_synced = arena_events_;
  arena_dirty_ = true;
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

void MultiPatternMatcher::RebuildBank() {
  auto bank = std::make_unique<PredicateBank>();
  for (Entry& entry : entries_) {
    entry.bank_ids = bank->RegisterPattern(entry.matcher->pattern());
    entry.gate_bank_id =
        entry.gate != nullptr ? bank->RegisterPattern(*entry.gate)[0] : -1;
  }
  // Swap: the old bank (and the predicate truth it served to in-flight
  // events) stays untouched until this point; from the next event on,
  // lookups hit the new generation.
  bank_ = std::move(bank);
  bank_dirty_ = false;
  arena_dirty_ = true;
  ++bank_generation_;
}

void MultiPatternMatcher::BuildArena() {
  EPL_CHECK(bank_->built());
  size_t num_rows = 0;
  size_t num_times = 0;
  size_t num_constraints = 0;
  for (Entry& entry : entries_) {
    const CompiledPattern& pattern = entry.matcher->pattern();
    const size_t n = static_cast<size_t>(pattern.num_states());
    entry.num_states = static_cast<int>(n);
    entry.consume_all = pattern.consume_policy() == ConsumePolicy::kAll;
    num_rows += n;
    num_times += n * n;
    num_constraints += pattern.constraints().size();
  }

  std::vector<TimePoint> times(num_times, 0);
  std::vector<uint64_t> active((num_rows + 63) / 64, 0);
  std::vector<StateRef> states(num_rows);
  std::vector<FlatConstraint> constraints;
  constraints.reserve(num_constraints);

  size_t row = 0;
  size_t times_offset = 0;
  for (Entry& entry : entries_) {
    const CompiledPattern& pattern = entry.matcher->pattern();
    const size_t n = static_cast<size_t>(entry.num_states);
    for (size_t s = 0; s < n; ++s) {
      StateRef& ref = states[row + s];
      const int bank_id = entry.bank_ids[static_cast<size_t>(
          pattern.predicate_id(static_cast<int>(s)))];
      if (bank_->decomposable(bank_id)) {
        const int slot = bank_->slot_of(bank_id);
        ref.word = slot >> 6;
        ref.mask = uint64_t{1} << (slot & 63);
      } else {
        ref.word = -1;
        ref.fallback_id = bank_id;
      }
      ref.constraint_begin = static_cast<uint32_t>(constraints.size());
      for (const TimeConstraint& constraint :
           pattern.constraints_into(static_cast<int>(s))) {
        constraints.push_back(
            FlatConstraint{constraint.from_state, constraint.max_gap});
      }
      ref.constraint_count =
          static_cast<uint32_t>(constraints.size()) - ref.constraint_begin;
    }

    entry.live_rows = 0;
    if (entry.in_arena) {
      // Carry the surviving pattern's rows over from the old arena.
      for (size_t s = 0; s < n; ++s) {
        if (!RowActive(entry.row_offset + s)) {
          continue;
        }
        std::copy_n(times_.begin() +
                        static_cast<ptrdiff_t>(entry.times_offset + s * n),
                    s + 1,
                    times.begin() +
                        static_cast<ptrdiff_t>(times_offset + s * n));
        active[(row + s) >> 6] |= uint64_t{1} << ((row + s) & 63);
        ++entry.live_rows;
      }
    } else {
      // Ingest matcher-resident run state (fresh, adopted, or exhaustive
      // leftovers after a mode is reused); the arena becomes authoritative.
      NfaMatcher* matcher = entry.matcher.get();
      for (size_t s = 0; s < n; ++s) {
        if (!matcher->dominant_active_[s]) {
          continue;
        }
        std::copy_n(matcher->dominant_runs_[s].begin(), s + 1,
                    times.begin() +
                        static_cast<ptrdiff_t>(times_offset + s * n));
        active[(row + s) >> 6] |= uint64_t{1} << ((row + s) & 63);
        ++entry.live_rows;
      }
      std::fill(matcher->dominant_active_.begin(),
                matcher->dominant_active_.end(), false);
      entry.in_arena = true;
    }
    entry.row_offset = row;
    entry.times_offset = times_offset;
    row += n;
    times_offset += n * n;
  }

  times_ = std::move(times);
  active_ = std::move(active);
  states_ = std::move(states);
  flat_constraints_ = std::move(constraints);

  // Gate groups: one per distinct gate bank predicate (the bank dedups by
  // canonical key, so sessions sharing a gate expression group together
  // even across separately compiled gate objects).
  groups_.clear();
  ungated_members_.clear();
  std::unordered_map<int, size_t> group_of;
  for (size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    if (entry.gate == nullptr) {
      entry.gate_group = -1;
      ungated_members_.push_back(static_cast<uint32_t>(i));
      continue;
    }
    auto [it, inserted] = group_of.emplace(entry.gate_bank_id, groups_.size());
    if (inserted) {
      GateGroup group;
      if (bank_->decomposable(entry.gate_bank_id)) {
        const int slot = bank_->slot_of(entry.gate_bank_id);
        group.gate.word = slot >> 6;
        group.gate.mask = uint64_t{1} << (slot & 63);
      } else {
        group.gate.word = -1;
        group.gate.fallback_id = entry.gate_bank_id;
      }
      groups_.push_back(std::move(group));
    }
    entry.gate_group = static_cast<int32_t>(it->second);
    groups_[it->second].members.push_back(static_cast<uint32_t>(i));
  }
  arena_dirty_ = false;
}

template <typename Count>
void MultiPatternMatcher::ProcessFlatBatch(const stream::Event* events,
                                           Count count,
                                           std::vector<MultiMatch>* out) {
  arena_events_ += count;
  batch_scratch_.clear();
  const simd::Kernels& kernels = simd::Active();
  // Base pointer + stride into the bank's batch result rows: event b's
  // satisfied-predicate words are rows + b * stride, and the gate kernel
  // strides over the same grid directly.
  const uint64_t* rows = bank_->batch_result_words(0);
  const size_t stride = bank_->row_words();
  const size_t gate_words = (count + 63) / 64;
  // One gate-column extraction per group for the whole window: the SIMD
  // kernel packs (row word & mask) != 0 into a bitmask column straight
  // from the bank's result rows; members then visit only the set bits (or
  // skip the entire window) without touching their arena rows. Skipping a
  // member on a shut gate is output-exact even while it holds live runs:
  // the gate is conjoined into every member state predicate, and an event
  // that satisfies no state predicate neither seeds, advances, completes,
  // nor expires anything in this runtime (constraints are checked at
  // transition time only).
  gate_truth_.assign(groups_.size() * gate_words, 0);
  group_open_.assign(groups_.size(), 0);
  for (size_t g = 0; g < groups_.size(); ++g) {
    const GateGroup& group = groups_[g];
    uint64_t* column = gate_truth_.data() + g * gate_words;
    if (group.gate.word >= 0) {
      group_open_[g] =
          simd::GateColumn(kernels, rows, stride, count,
                           static_cast<uint32_t>(group.gate.word),
                           group.gate.mask, column)
              ? 1
              : 0;
      continue;
    }
    for (size_t b = 0; b < count; ++b) {
      if (bank_->batch_value(b, group.gate.fallback_id)) {
        column[b >> 6] |= uint64_t{1} << (b & 63);
        group_open_[g] = 1;
      }
    }
  }
  // Group-major sweep: a closed group skips ALL of its member patterns
  // with one flag check. (Iterating entries directly and testing
  // group_open_ per entry kept the sweep O(entries) per window however
  // many sessions were idle -- at 64 mostly-idle sessions that
  // bookkeeping alone outweighed the batch amortization.)
  // always_inline like step below: an outlined entry sweep puts a call on
  // the per-(pattern, window) edge, which B=1 windows cannot amortize
  // (~10% on ProcessBatch(count=1) at small query counts).
  const auto sweep_entry = [&](size_t i, const uint64_t* gate_column)
      __attribute__((always_inline)) {
    Entry& entry = entries_[i];
    const int n = entry.num_states;
    const size_t row0 = entry.row_offset;
    const StateRef* refs = &states_[row0];
    TimePoint* tbase = &times_[entry.times_offset];

    // The whole B-event window for this pattern before the next pattern:
    // its times block, active bits, and state refs stay hot across the
    // window, so the per-pattern setup above is paid once per batch.
    // always_inline: with two call sites (gated ctz walk, ungated loop) the
    // compiler outlines this body, which puts a real call on the innermost
    // per-(pattern, event) edge and costs ~15% of the batched path.
    const auto step = [&](size_t b) __attribute__((always_inline)) {
      const TimePoint now = events[b].timestamp;
      const uint64_t* words = rows + b * stride;
      bool completed = false;
      bool activity = false;

      // Advance existing runs, highest state first so one event advances
      // a given run by at most one state (mirrors
      // NfaMatcher::ProcessDominant, the oracle the differential fuzz
      // harness pins this loop against).
      if (entry.live_rows > 0) {
        for (int s = n - 1; s >= 1; --s) {
          if (!RowActive(row0 + static_cast<size_t>(s) - 1)) {
            continue;
          }
          ++entry.counters.advance_reads;
          const StateRef& ref = refs[s];
          const bool satisfied =
              ref.word >= 0 ? (words[ref.word] & ref.mask) != 0
                            : bank_->batch_value(b, ref.fallback_id);
          if (!satisfied) {
            continue;
          }
          const TimePoint* prev = tbase + (s - 1) * n;
          bool within = true;
          for (uint32_t c = 0; c < ref.constraint_count; ++c) {
            const FlatConstraint& constraint =
                flat_constraints_[ref.constraint_begin + c];
            if (now - prev[constraint.from_state] > constraint.max_gap) {
              within = false;
              break;
            }
          }
          if (!within) {
            continue;
          }
          TimePoint* cur = tbase + s * n;
          std::copy_n(prev, s, cur);
          cur[s] = now;
          const size_t target = row0 + static_cast<size_t>(s);
          if (!RowActive(target)) {
            SetRow(target);
            ++entry.live_rows;
          }
          activity = true;
          if (s == n - 1) {
            completed = true;
          }
        }
      }

      if (completed) {
        PatternMatch match;
        const TimePoint* last = tbase + (n - 1) * n;
        match.state_times = std::vector<TimePoint>(last, last + n);
        batch_scratch_.push_back(MultiMatch{static_cast<int>(i), std::move(match),
                                  static_cast<int>(b)});
        ++entry.counters.matches;
        if (entry.consume_all) {
          // The match consumed every open partial run including the
          // current event; do not re-seed state 0 from this event (the
          // oracle skips its seed predicate read here, so the stats do
          // too).
          for (int s = 0; s < n; ++s) {
            ClearRow(row0 + static_cast<size_t>(s));
          }
          entry.live_rows = 0;
          ++entry.counters.seed_skips;
          return;
        }
        ClearRow(row0 + static_cast<size_t>(n) - 1);
        --entry.live_rows;
      }

      // Seed a fresh run at state 0.
      const StateRef& seed = refs[0];
      const bool seeded = seed.word >= 0
                              ? (words[seed.word] & seed.mask) != 0
                              : bank_->batch_value(b, seed.fallback_id);
      if (seeded) {
        tbase[0] = now;
        if (!RowActive(row0)) {
          SetRow(row0);
          ++entry.live_rows;
        }
        activity = true;
        if (n == 1) {
          PatternMatch match;
          match.state_times.assign(1, now);
          batch_scratch_.push_back(MultiMatch{static_cast<int>(i), std::move(match),
                                    static_cast<int>(b)});
          ++entry.counters.matches;
          ClearRow(row0);
          entry.live_rows = 0;
        }
      }
      if (activity && entry.live_rows > entry.counters.peak_runs) {
        entry.counters.peak_runs = entry.live_rows;
      }
    };

    if (gate_column != nullptr) {
      // Visit only gate-open events: ctz over the bitmask column makes the
      // member cost proportional to open events, not window size (a
      // foreign session's pattern pays ~nothing for a 32-event window).
      for (size_t wi = 0; wi < gate_words; ++wi) {
        uint64_t bits = gate_column[wi];
        while (bits != 0) {
          const size_t b =
              wi * 64 + static_cast<size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          step(b);
        }
      }
    } else {
      for (size_t b = 0; b < count; ++b) {
        step(b);
      }
    }
  };

  for (uint32_t member : ungated_members_) {
    sweep_entry(member, nullptr);
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (!group_open_[g]) {
      continue;  // gate shut for the whole window, for every member
    }
    const uint64_t* column = gate_truth_.data() + g * gate_words;
    for (uint32_t member : groups_[g].members) {
      sweep_entry(member, column);
    }
  }

  // Pattern-major execution produced matches grouped by pattern; the
  // contract is per-event order with registration order within one event
  // (gate groups may visit patterns out of registration order, so the
  // pattern index is part of the key). Dominant mode emits at most one
  // match per pattern per event, so the key is unique and an unstable
  // sort is exact.
  if (batch_scratch_.size() > 1) {
    std::sort(batch_scratch_.begin(), batch_scratch_.end(),
              [](const MultiMatch& a, const MultiMatch& b) {
                return a.batch_index != b.batch_index
                           ? a.batch_index < b.batch_index
                           : a.pattern_index < b.pattern_index;
              });
  }
  for (MultiMatch& match : batch_scratch_) {
    out->push_back(std::move(match));
  }
}

void MultiPatternMatcher::SyncStats(const Entry& entry) const {
  NfaMatcher* matcher = entry.matcher.get();
  ArenaCounters& counters = entry.counters;
  const uint64_t events = arena_events_ - counters.events_synced;
  matcher->stats_.events += events;
  // Every arena bank read is a shared-bank cache hit in oracle terms: one
  // seed read per event (minus consume-all completions that skip it) plus
  // the advance-loop reads.
  matcher->stats_.predicate_cache_hits +=
      events - counters.seed_skips + counters.advance_reads;
  matcher->stats_.matches += counters.matches;
  matcher->stats_.peak_runs =
      std::max(matcher->stats_.peak_runs, counters.peak_runs);
  counters = ArenaCounters{};
  counters.events_synced = arena_events_;
}

void MultiPatternMatcher::SyncRunState(const Entry& entry) const {
  NfaMatcher* matcher = entry.matcher.get();
  const size_t n = static_cast<size_t>(entry.num_states);
  for (size_t s = 0; s < n; ++s) {
    if (RowActive(entry.row_offset + s)) {
      const TimePoint* times =
          times_.data() + entry.times_offset + s * n;
      matcher->dominant_runs_[s].assign(times, times + s + 1);
      matcher->dominant_active_[s] = true;
    } else {
      matcher->dominant_active_[s] = false;
    }
  }
}

const NfaMatcher& MultiPatternMatcher::matcher(int pattern_index) const {
  const Entry& entry = entries_[static_cast<size_t>(pattern_index)];
  if (entry.in_arena) {
    SyncRunState(entry);
  }
  SyncStats(entry);
  return *entry.matcher;
}

const MatcherStats& MultiPatternMatcher::stats(int pattern_index) const {
  const Entry& entry = entries_[static_cast<size_t>(pattern_index)];
  SyncStats(entry);
  return entry.matcher->stats();
}

void MultiPatternMatcher::ProcessBatch(const stream::Event* events,
                                       size_t count,
                                       std::vector<MultiMatch>* out) {
  if (count == 0) {
    return;
  }
  ScopedSweep sweep(sweeping_);
  if (bank_dirty_) {
    RebuildBank();
  }
  bank_->EvaluateBatch(events, count);
  if (options_.mode == MatcherOptions::Mode::kDominant) {
    if (arena_dirty_) {
      BuildArena();
    }
    if (count == 1) {
      ProcessFlatBatch(events, std::integral_constant<size_t, 1>(), out);
    } else {
      ProcessFlatBatch(events, count, out);
    }
    return;
  }
  // Exhaustive mode: runs branch per pattern, so only predicate
  // evaluation is shared; the matchers step through the window event by
  // event. A shut gate makes every effective state predicate (gate AND
  // pose) false, so the entry skips that event whole.
  for (size_t b = 0; b < count; ++b) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      Entry& entry = entries_[i];
      if (entry.gate_bank_id >= 0 &&
          !bank_->batch_value(b, entry.gate_bank_id)) {
        continue;
      }
      scratch_matches_.clear();
      entry.matcher->ProcessShared(events[b], b, *bank_,
                                   entry.bank_ids.data(), &scratch_matches_);
      for (PatternMatch& match : scratch_matches_) {
        out->push_back(MultiMatch{static_cast<int>(i), std::move(match),
                                  static_cast<int>(b)});
      }
    }
  }
}

void MultiPatternMatcher::Reset() {
  for (Entry& entry : entries_) {
    entry.matcher->Reset();
    entry.live_rows = 0;
  }
  std::fill(active_.begin(), active_.end(), 0);
}

}  // namespace epl::cep
