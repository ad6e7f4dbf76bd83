#include "cep/multi_match_operator.h"

#include <algorithm>

#include "common/logging.h"

namespace epl::cep {

MultiMatchOperator::MultiMatchOperator(MatcherOptions options,
                                      size_t batch_size)
    : matcher_(options), batch_size_(std::max<size_t>(1, batch_size)) {
  window_.reserve(batch_size_);
}

int MultiMatchOperator::FindQuery(int query_id) const {
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].id == query_id) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int MultiMatchOperator::AddQuery(QuerySpec spec) {
  EPL_CHECK(spec.level == 0 || spec.gate == nullptr)
      << "composite queries cannot be gated";
  Query query;
  query.id = next_query_id_++;
  query.output_name = std::move(spec.output_name);
  query.pattern = std::make_unique<CompiledPattern>(std::move(spec.pattern));
  query.measures = std::move(spec.measures);
  query.callback = std::move(spec.callback);
  query.gate = std::move(spec.gate);
  query.level = spec.level;
  query.tag = spec.tag;
  query.session_tag = spec.session_tag;
  query.session_scoped = spec.session_scoped;
  int id = query.id;
  if (processing_) {
    PendingOp op;
    op.is_add = true;
    op.query_id = id;
    op.query = std::move(query);
    pending_ops_.push_back(std::move(op));
  } else {
    // The accumulated window predates this call; the new query must not
    // see it.
    FlushBatchedEvents();
    ApplyAdd(std::move(query));
  }
  return id;
}

Status MultiMatchOperator::RemoveQuery(int query_id) {
  bool known = FindQuery(query_id) >= 0 ||
               (composite_ != nullptr && composite_->Has(query_id));
  if (!known) {
    // The target may be an add deferred earlier in the same callback.
    for (const PendingOp& op : pending_ops_) {
      if (op.is_add && op.query_id == query_id) {
        known = true;
        break;
      }
    }
  }
  if (!known) {
    return NotFoundError("unknown query id " + std::to_string(query_id));
  }
  if (processing_) {
    PendingOp op;
    op.query_id = query_id;
    pending_ops_.push_back(std::move(op));
  } else {
    // The accumulated window predates this call; the query still sees it.
    FlushBatchedEvents();
    ApplyRemove(query_id);
  }
  return OkStatus();
}

Result<MultiMatchOperator::DetachedQuery> MultiMatchOperator::ExtractQuery(
    int query_id) {
  EPL_CHECK(!processing_) << "ExtractQuery from inside a detection callback";
  FlushBatchedEvents();
  int index = FindQuery(query_id);
  if (index < 0) {
    if (composite_ != nullptr && composite_->Has(query_id)) {
      return FailedPreconditionError(
          "composite query " + std::to_string(query_id) +
          " cannot be extracted (composites do not migrate)");
    }
    return NotFoundError("unknown query id " + std::to_string(query_id));
  }
  Query& query = queries_[index];
  DetachedQuery detached;
  detached.id = query.id;
  detached.output_name = std::move(query.output_name);
  detached.pattern = std::move(query.pattern);
  detached.measures = std::move(query.measures);
  detached.callback = std::move(query.callback);
  detached.gate = std::move(query.gate);
  detached.tag = query.tag;
  detached.session_tag = query.session_tag;
  detached.session_scoped = query.session_scoped;
  detached.matcher = matcher_.ExtractPattern(index);
  queries_.erase(queries_.begin() + index);
  return detached;
}

int MultiMatchOperator::AdoptQuery(DetachedQuery detached) {
  EPL_CHECK(!processing_) << "AdoptQuery from inside a detection callback";
  EPL_CHECK(detached.pattern != nullptr && detached.matcher != nullptr);
  FlushBatchedEvents();
  Query query;
  query.id = next_query_id_++;
  query.output_name = std::move(detached.output_name);
  query.pattern = std::move(detached.pattern);
  query.measures = std::move(detached.measures);
  query.callback = std::move(detached.callback);
  query.gate = std::move(detached.gate);
  query.tag = detached.tag;
  query.session_tag = detached.session_tag;
  query.session_scoped = detached.session_scoped;
  int id = query.id;
  matcher_.AdoptPattern(std::move(detached.matcher), query.gate.get());
  queries_.push_back(std::move(query));
  return id;
}

Result<NfaRunState> MultiMatchOperator::ExportQueryRunState(int query_id) {
  EPL_CHECK(!processing_) << "ExportQueryRunState from inside a detection "
                             "callback";
  FlushBatchedEvents();
  const int index = FindQuery(query_id);
  if (index < 0) {
    if (composite_ != nullptr && composite_->Has(query_id)) {
      return composite_->ExportRunState(query_id);
    }
    return NotFoundError("unknown query id " + std::to_string(query_id));
  }
  // matcher(index) synchronizes arena-resident run state and statistics
  // back into the query's NfaMatcher without detaching it.
  return matcher_.matcher(index).ExportRunState();
}

Result<int> MultiMatchOperator::RestoreQuery(QuerySpec spec,
                                             const NfaRunState& runs) {
  EPL_CHECK(!processing_) << "RestoreQuery from inside a detection callback";
  FlushBatchedEvents();
  if (spec.level > 0) {
    CompositeQuery composite;
    composite.level = spec.level;
    composite.output_name = std::move(spec.output_name);
    composite.pattern =
        std::make_unique<CompiledPattern>(std::move(spec.pattern));
    composite.measures = std::move(spec.measures);
    composite.callback = std::move(spec.callback);
    composite.tag = spec.tag;
    composite.session_tag = spec.session_tag;
    composite.id = next_query_id_;
    EPL_RETURN_IF_ERROR(
        EnsureComposite().Restore(std::move(composite), runs));
    return next_query_id_++;
  }
  Query query;
  query.output_name = std::move(spec.output_name);
  query.pattern = std::make_unique<CompiledPattern>(std::move(spec.pattern));
  query.measures = std::move(spec.measures);
  query.callback = std::move(spec.callback);
  query.gate = std::move(spec.gate);
  // Keep the derived-event identity: composites restored from the same
  // snapshot re-derive from this query by its tag.
  query.tag = spec.tag;
  query.session_tag = spec.session_tag;
  query.session_scoped = spec.session_scoped;
  auto matcher =
      std::make_unique<NfaMatcher>(query.pattern.get(), matcher_.options());
  EPL_RETURN_IF_ERROR(matcher->ImportRunState(runs));
  query.id = next_query_id_++;
  const int id = query.id;
  matcher_.AdoptPattern(std::move(matcher), query.gate.get());
  queries_.push_back(std::move(query));
  return id;
}

CompositeRunner& MultiMatchOperator::EnsureComposite() {
  if (composite_ == nullptr) {
    composite_ = std::make_unique<CompositeRunner>(matcher_.options());
  }
  return *composite_;
}

void MultiMatchOperator::ApplyAdd(Query query) {
  if (query.level > 0) {
    CompositeQuery composite;
    composite.id = query.id;
    composite.level = query.level;
    composite.output_name = std::move(query.output_name);
    composite.pattern = std::move(query.pattern);
    composite.measures = std::move(query.measures);
    composite.callback = std::move(query.callback);
    composite.tag = query.tag;
    composite.session_tag = query.session_tag;
    EnsureComposite().Add(std::move(composite));
    return;
  }
  matcher_.AddPattern(query.pattern.get(), query.gate.get());
  queries_.push_back(std::move(query));
}

void MultiMatchOperator::ApplyRemove(int query_id) {
  if (composite_ != nullptr && composite_->Has(query_id)) {
    (void)composite_->Remove(query_id);
    return;
  }
  int index = FindQuery(query_id);
  if (index < 0) {
    return;  // already removed by an earlier deferred op
  }
  matcher_.RemovePattern(index);
  queries_.erase(queries_.begin() + index);
}

void MultiMatchOperator::ApplyPendingOps() {
  for (PendingOp& op : pending_ops_) {
    if (op.is_add) {
      // If a batch sweep is in flight, the new query catches up on the
      // window's remaining events (RunBatch feeds them one by one).
      catchup_ids_.push_back(op.query_id);
      ApplyAdd(std::move(op.query));
    } else {
      ApplyRemove(op.query_id);
    }
  }
  pending_ops_.clear();
}

void MultiMatchOperator::DispatchToQuery(const Query& query,
                                         const PatternMatch& match,
                                         const stream::Event& event) {
  Detection detection;
  detection.name = query.output_name;
  detection.time = match.end_time();
  detection.pose_times = match.state_times;
  detection.measures.reserve(query.measures.size());
  for (const ExprProgram& program : query.measures) {
    detection.measures.push_back(program.Eval(event));
  }
  if (query.callback) {
    query.callback(detection);
  }
  // Base detections feed the composite epoch (see RunBatch) in exactly
  // the order they are dispatched.
  if (composite_ != nullptr) {
    composite_->CollectBase(query.tag, query.session_tag, detection);
  }
}

void MultiMatchOperator::Dispatch(int query_id, const PatternMatch& match,
                                  const stream::Event& event) {
  const int index = FindQuery(query_id);
  if (index < 0) {
    return;  // removed mid-batch: its remaining matches are dropped
  }
  DispatchToQuery(queries_[index], match, event);
}

void MultiMatchOperator::RunBatch(const stream::Event* events, size_t count) {
  if (count == 0) {
    return;
  }
  processing_ = true;
  scratch_matches_.clear();
  matcher_.ProcessBatch(events, count, &scratch_matches_);
  catchup_ids_.clear();
  // Until the first mid-batch mutation, pattern indices are live and
  // dispatch is a direct lookup; afterwards matches resolve through their
  // stable id (dropped if the query was removed).
  bool indices_stale = false;
  size_t next = 0;
  for (size_t b = 0; b < count; ++b) {
    if (batch_event_hook_) {
      batch_event_hook_(b);
    }
    // One composite epoch per source event: base detections collected
    // during dispatch below, then RunEpoch drives the level fixed point
    // before this event's deferred mutations apply. Re-checked per event
    // so a composite added mid-batch sees epochs from the next event on,
    // exactly as in per-event processing.
    const bool epochs = composite_ != nullptr && composite_->active();
    if (epochs) {
      composite_->BeginEpoch();
    }
    // Matches the sweep computed for this event.
    for (; next < scratch_matches_.size() &&
           static_cast<size_t>(scratch_matches_[next].batch_index) == b;
         ++next) {
      const MultiPatternMatcher::MultiMatch& match = scratch_matches_[next];
      if (indices_stale) {
        Dispatch(batch_ids_[match.pattern_index], match.match, events[b]);
      } else {
        DispatchToQuery(queries_[match.pattern_index], match.match,
                        events[b]);
      }
    }
    // Queries added mid-batch replay the window's tail event by event.
    for (size_t c = 0; c < catchup_ids_.size(); ++c) {
      const int index = FindQuery(catchup_ids_[c]);
      if (index < 0) {
        continue;  // removed again before this event
      }
      catchup_scratch_.clear();
      matcher_.CatchUpPattern(index, events[b], &catchup_scratch_);
      for (const MultiPatternMatcher::MultiMatch& match : catchup_scratch_) {
        Dispatch(catchup_ids_[c], match.match, events[b]);
      }
    }
    // Composite levels run after ALL base detections of this event --
    // same timestamp epoch, deterministic (event-seq, level, query-id)
    // order. Composite callbacks may request mutations; processing_ is
    // still set, so they defer like any other callback.
    if (epochs) {
      composite_->RunEpoch();
    }
    // Mutations requested by this event's callbacks take effect before
    // the next event, exactly as in per-event processing.
    if (!pending_ops_.empty()) {
      if (!indices_stale) {
        // First mutation of the sweep: snapshot the stable ids of the
        // sweep's index space (queries_ is still unmutated, so this is
        // the mapping the matches were tagged against) and dispatch by
        // id from here on. Mutation-free sweeps -- the common case --
        // never pay for the snapshot.
        batch_ids_.clear();
        for (const Query& query : queries_) {
          batch_ids_.push_back(query.id);
        }
        indices_stale = true;
      }
      ApplyPendingOps();
    }
  }
  processing_ = false;
}

void MultiMatchOperator::FlushBatchedEvents() {
  // While a sweep runs (processing_), the window is necessarily empty:
  // every RunBatch caller drains it first (Process flushes on overflow
  // before returning, ProcessBatch and the control paths flush before
  // sweeping), and only Process fills it -- never from inside a sweep,
  // which it EPL_CHECKs. The guard therefore never skips
  // real events; it exists so a control call issued from inside a
  // detection callback (e.g. Close on first detection) cannot re-enter
  // RunBatch on the window that is already being dispatched.
  if (window_count_ == 0 || processing_) {
    return;
  }
  // Swap the filled slots out so a detection callback can refill window_
  // while the sweep runs. Neither vector is cleared: slots keep their
  // values capacity and are overwritten in place on the next fill, so the
  // steady state buffers a window with zero allocations.
  flushing_.swap(window_);
  const size_t count = window_count_;
  window_count_ = 0;
  RunBatch(flushing_.data(), count);
}

Status MultiMatchOperator::Process(const stream::Event& event) {
  // Re-entering from a detection callback would either clear the
  // in-flight sweep's matches (batch_size 1) or refill the window that is
  // being dispatched (batch_size > 1); fail loudly like ProcessBatch.
  EPL_CHECK(!processing_) << "Process from inside a detection callback";
  if (batch_size_ <= 1) {
    RunBatch(&event, 1);
    return Forward(event);
  }
  if (window_count_ < window_.size()) {
    stream::Event& slot = window_[window_count_];
    slot.timestamp = event.timestamp;
    slot.values.assign(event.values.begin(), event.values.end());
  } else {
    window_.push_back(event);
  }
  ++window_count_;
  if (window_count_ >= batch_size_) {
    FlushBatchedEvents();
  }
  return Forward(event);
}

Status MultiMatchOperator::ProcessBatch(const stream::Event* events,
                                        size_t count) {
  // Re-entering from a detection callback would clobber the in-flight
  // sweep's scratch state; fail loudly like the other non-deferrable
  // entry points.
  EPL_CHECK(!processing_) << "ProcessBatch from inside a detection callback";
  FlushBatchedEvents();
  RunBatch(events, count);
  Status status = OkStatus();
  for (size_t i = 0; i < count && status.ok(); ++i) {
    status = Forward(events[i]);
  }
  return status;
}

Status MultiMatchOperator::Close() {
  FlushBatchedEvents();
  return OkStatus();
}

}  // namespace epl::cep
