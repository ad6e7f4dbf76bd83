#include "cep/matcher.h"

#include <algorithm>

#include "cep/predicate_bank.h"
#include "common/logging.h"

namespace epl::cep {

NfaMatcher::NfaMatcher(const CompiledPattern* pattern, MatcherOptions options)
    : pattern_(pattern), options_(options) {
  EPL_CHECK(pattern_ != nullptr);
  EPL_CHECK(pattern_->num_states() > 0) << "empty pattern";
  const int n = pattern_->num_states();
  dominant_runs_.resize(n);
  for (std::vector<TimePoint>& run : dominant_runs_) {
    // A run holds at most one entry per state; reserving up front keeps
    // ProcessDominant free of heap allocation.
    run.reserve(n);
  }
  dominant_active_.assign(n, false);
  predicate_cache_.assign(pattern_->num_distinct_predicates(), -1);
}

void NfaMatcher::Process(const stream::Event& event,
                         std::vector<PatternMatch>* out) {
  ++stats_.events;
  std::fill(predicate_cache_.begin(), predicate_cache_.end(), -1);
  if (options_.mode == MatcherOptions::Mode::kDominant) {
    ProcessDominant(event, out);
  } else {
    ProcessExhaustive(event, out);
  }
}

void NfaMatcher::ProcessShared(const stream::Event& event, size_t batch_index,
                               const PredicateBank& bank, const int* bank_ids,
                               std::vector<PatternMatch>* out) {
  shared_bank_ = &bank;
  shared_bank_ids_ = bank_ids;
  shared_batch_index_ = batch_index;
  // Clear the shared context even if Process throws, so a later plain
  // Process does not read stale bank state.
  struct ClearSharedContext {
    NfaMatcher* matcher;
    ~ClearSharedContext() {
      matcher->shared_bank_ = nullptr;
      matcher->shared_bank_ids_ = nullptr;
    }
  } clear{this};
  Process(event, out);
}

void NfaMatcher::Reset() {
  std::fill(dominant_active_.begin(), dominant_active_.end(), false);
  runs_.clear();
}

NfaRunState NfaMatcher::ExportRunState() const {
  NfaRunState out;
  out.stats = stats_;
  if (options_.mode == MatcherOptions::Mode::kDominant) {
    const int n = pattern_->num_states();
    for (int s = 0; s < n; ++s) {
      if (dominant_active_[static_cast<size_t>(s)]) {
        NfaRunState::Run run;
        run.state = s;
        run.times = dominant_runs_[static_cast<size_t>(s)];
        out.runs.push_back(std::move(run));
      }
    }
  } else {
    for (const Run& run : runs_) {
      NfaRunState::Run exported;
      exported.state = run.state;
      exported.times = run.times;
      out.runs.push_back(std::move(exported));
    }
  }
  return out;
}

Status NfaMatcher::ImportRunState(const NfaRunState& state) {
  Reset();
  const int n = pattern_->num_states();
  const bool dominant = options_.mode == MatcherOptions::Mode::kDominant;
  if (!dominant && state.runs.size() > options_.max_runs) {
    return InvalidArgumentError(
        "run state holds " + std::to_string(state.runs.size()) +
        " runs, above the matcher's cap of " +
        std::to_string(options_.max_runs));
  }
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (const NfaRunState::Run& run : state.runs) {
    if (run.state < 0 || run.state >= n) {
      return InvalidArgumentError("run state references state " +
                                  std::to_string(run.state) + " of a " +
                                  std::to_string(n) + "-state pattern");
    }
    if (run.times.size() != static_cast<size_t>(run.state) + 1) {
      return InvalidArgumentError(
          "run at state " + std::to_string(run.state) + " carries " +
          std::to_string(run.times.size()) + " entry times, expected " +
          std::to_string(run.state + 1));
    }
    if (dominant && seen[static_cast<size_t>(run.state)]) {
      return InvalidArgumentError(
          "dominant run state holds two runs at state " +
          std::to_string(run.state));
    }
    seen[static_cast<size_t>(run.state)] = true;
  }
  for (const NfaRunState::Run& run : state.runs) {
    if (dominant) {
      dominant_runs_[static_cast<size_t>(run.state)] = run.times;
      dominant_active_[static_cast<size_t>(run.state)] = true;
    } else {
      Run imported;
      imported.state = run.state;
      imported.times = run.times;
      runs_.push_back(std::move(imported));
    }
  }
  stats_ = state.stats;
  return OkStatus();
}

size_t NfaMatcher::active_run_count() const {
  if (options_.mode == MatcherOptions::Mode::kExhaustive) {
    return runs_.size();
  }
  return static_cast<size_t>(std::count(dominant_active_.begin(),
                                        dominant_active_.end(), true));
}

bool NfaMatcher::EvalPredicate(int state, const stream::Event& event) {
  const int slot = pattern_->predicate_id(state);
  int8_t& cached = predicate_cache_[slot];
  if (cached < 0) {
    if (shared_bank_ != nullptr) {
      ++stats_.predicate_cache_hits;
      cached = shared_bank_->batch_value(shared_batch_index_,
                                         shared_bank_ids_[slot])
                   ? 1
                   : 0;
    } else {
      ++stats_.predicate_evaluations;
      cached = pattern_->predicate(state).EvalBool(event) ? 1 : 0;
    }
  } else {
    ++stats_.predicate_cache_hits;
  }
  return cached == 1;
}

bool NfaMatcher::ConstraintsSatisfied(int state,
                                      const std::vector<TimePoint>& times,
                                      TimePoint now) const {
  for (const TimeConstraint& constraint : pattern_->constraints_into(state)) {
    // `times` holds entries for states 0..state-1; `now` is the candidate
    // entry for `state`. from_state < to_state == state always holds.
    TimePoint from = times[constraint.from_state];
    if (now - from > constraint.max_gap) {
      return false;
    }
  }
  return true;
}

void NfaMatcher::ProcessDominant(const stream::Event& event,
                                 std::vector<PatternMatch>* out) {
  const int n = pattern_->num_states();
  const TimePoint now = event.timestamp;
  bool completed = false;

  // Advance existing runs, highest state first so one event advances a
  // given run by at most one state.
  for (int state = n - 1; state >= 1; --state) {
    if (!dominant_active_[state - 1]) {
      continue;
    }
    if (!EvalPredicate(state, event)) {
      continue;
    }
    if (!ConstraintsSatisfied(state, dominant_runs_[state - 1], now)) {
      continue;
    }
    dominant_runs_[state] = dominant_runs_[state - 1];
    dominant_runs_[state].push_back(now);
    dominant_active_[state] = true;
    if (state == n - 1) {
      completed = true;
    }
  }

  if (completed) {
    PatternMatch match;
    match.state_times.reserve(n);
    match.state_times.assign(dominant_runs_[n - 1].begin(),
                             dominant_runs_[n - 1].end());
    out->push_back(std::move(match));
    ++stats_.matches;
    if (pattern_->consume_policy() == ConsumePolicy::kAll) {
      // The match consumed every open partial run including the current
      // event; do not re-seed state 0 from this event.
      Reset();
      stats_.peak_runs = std::max(stats_.peak_runs, active_run_count());
      return;
    }
    dominant_active_[n - 1] = false;
  }

  // Seed a fresh run at state 0.
  if (EvalPredicate(0, event)) {
    dominant_runs_[0].assign(1, now);
    dominant_active_[0] = true;
    if (n == 1) {
      PatternMatch match;
      match.state_times.assign(1, now);
      out->push_back(std::move(match));
      ++stats_.matches;
      if (pattern_->consume_policy() == ConsumePolicy::kAll) {
        Reset();
      } else {
        dominant_active_[0] = false;
      }
    }
  }
  stats_.peak_runs = std::max(stats_.peak_runs, active_run_count());
}

void NfaMatcher::ProcessExhaustive(const stream::Event& event,
                                   std::vector<PatternMatch>* out) {
  const int n = pattern_->num_states();
  const TimePoint now = event.timestamp;
  std::vector<PatternMatch> completions;

  // Branch: every run may either skip this event (stay) or advance.
  size_t existing = runs_.size();
  for (size_t i = 0; i < existing; ++i) {
    Run& run = runs_[i];
    int next_state = run.state + 1;
    if (next_state >= n) {
      continue;  // completed runs are removed below; defensive
    }
    if (!EvalPredicate(next_state, event)) {
      continue;
    }
    if (!ConstraintsSatisfied(next_state, run.times, now)) {
      continue;
    }
    Run advanced;
    advanced.state = next_state;
    advanced.times.reserve(n);
    advanced.times.assign(run.times.begin(), run.times.end());
    advanced.times.push_back(now);
    if (next_state == n - 1) {
      completions.push_back(PatternMatch{advanced.times});
    } else {
      runs_.push_back(std::move(advanced));
    }
  }

  // Seed a new run for every event matching the first predicate.
  if (EvalPredicate(0, event)) {
    Run seeded;
    seeded.state = 0;
    seeded.times.assign(1, now);
    if (n == 1) {
      completions.push_back(PatternMatch{seeded.times});
    } else {
      runs_.push_back(std::move(seeded));
    }
  }

  // Enforce the run cap by dropping the oldest runs.
  while (runs_.size() > options_.max_runs) {
    runs_.pop_front();
    ++stats_.dropped_runs;
  }
  stats_.peak_runs = std::max(stats_.peak_runs, runs_.size());

  if (completions.empty()) {
    return;
  }
  if (pattern_->select_policy() == SelectPolicy::kFirst) {
    out->push_back(completions.front());
    ++stats_.matches;
  } else {
    for (PatternMatch& match : completions) {
      out->push_back(std::move(match));
      ++stats_.matches;
    }
  }
  if (pattern_->consume_policy() == ConsumePolicy::kAll) {
    runs_.clear();
  }
}

}  // namespace epl::cep
