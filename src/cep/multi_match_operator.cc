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
  // Ids are handed out in increasing order and erasure keeps the order, so
  // queries_ is sorted by id.
  const auto it = std::lower_bound(
      queries_.begin(), queries_.end(), query_id,
      [](const InstalledQuery& query, int id) { return query.id < id; });
  return it != queries_.end() && it->id == query_id
             ? static_cast<int>(it - queries_.begin())
             : -1;
}

int MultiMatchOperator::AddQuery(QuerySpec spec) {
  Result<int> id = RestoreQuery(std::move(spec), NfaRunState());
  EPL_CHECK(id.ok()) << id.status();  // empty run state fits any pattern
  return *id;
}

MultiMatchOperator::DetachedQuery MultiMatchOperator::MakeQuery(
    QuerySpec spec, const MatcherOptions& options) {
  EPL_CHECK(spec.level == 0 || spec.gate == nullptr)
      << "composite queries cannot be gated";
  DetachedQuery made;
  InstalledQuery& query = made.query;
  query.level = spec.level;
  query.output_name = std::move(spec.output_name);
  query.pattern = std::make_unique<CompiledPattern>(std::move(spec.pattern));
  query.measures = std::move(spec.measures);
  query.callback = std::move(spec.callback);
  query.gate = std::move(spec.gate);
  // The derived-event identity: composites match this query's detections
  // (and, after a restore, keep re-deriving from it) by these tags.
  query.tag = spec.tag;
  query.session_tag = spec.session_tag;
  query.session_scoped = spec.session_scoped;
  made.matcher = std::make_unique<NfaMatcher>(query.pattern.get(), options);
  return made;
}

Result<int> MultiMatchOperator::RestoreQuery(QuerySpec spec,
                                             const NfaRunState& runs) {
  DetachedQuery query = MakeQuery(std::move(spec), matcher_.options());
  EPL_RETURN_IF_ERROR(query.matcher->ImportRunState(runs));
  return AdoptQuery(std::move(query));
}

int MultiMatchOperator::AdoptQuery(DetachedQuery detached) {
  EPL_CHECK(!processing_) << "adding a query from inside a detection callback";
  EPL_CHECK(detached.query.pattern != nullptr && detached.matcher != nullptr);
  detached.query.id = next_query_id_++;
  const int id = detached.query.id;
  // The accumulated window predates this call; the new query must not see
  // it.
  FlushBatchedEvents();
  Install(std::move(detached));
  return id;
}

Status MultiMatchOperator::RemoveQuery(int query_id) {
  EPL_CHECK(!processing_) << "RemoveQuery from inside a detection callback";
  const int index = FindQuery(query_id);
  const bool composite =
      index < 0 && composite_ != nullptr && composite_->Has(query_id);
  if (index < 0 && !composite) {
    return NotFoundError("unknown query id " + std::to_string(query_id));
  }
  // The accumulated window predates this call; the query still sees it.
  // Its callbacks cannot mutate the query set, so `index` stays valid.
  FlushBatchedEvents();
  if (composite) {
    return composite_->Remove(query_id);
  }
  matcher_.RemovePattern(index);
  queries_.erase(queries_.begin() + index);
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
  DetachedQuery detached;
  detached.query = std::move(queries_[index]);
  detached.matcher = matcher_.ExtractPattern(index);
  queries_.erase(queries_.begin() + index);
  return detached;
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

CompositeRunner& MultiMatchOperator::EnsureComposite() {
  if (composite_ == nullptr) {
    composite_ = std::make_unique<CompositeRunner>(matcher_.options());
  }
  return *composite_;
}

void MultiMatchOperator::Install(DetachedQuery query) {
  if (query.query.level > 0) {
    EnsureComposite().Add(std::move(query.query), std::move(query.matcher));
    return;
  }
  matcher_.AdoptPattern(std::move(query.matcher), query.query.gate.get());
  queries_.push_back(std::move(query.query));
}

void MultiMatchOperator::DispatchToQuery(const InstalledQuery& query,
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

void MultiMatchOperator::RunBatch(const stream::Event* events, size_t count) {
  if (count == 0) {
    return;
  }
  processing_ = true;
  scratch_matches_.clear();
  matcher_.ProcessBatch(events, count, &scratch_matches_);
  // Callbacks cannot change the query set mid-sweep, so whether composite
  // epochs run is fixed for the whole window.
  const bool epochs = composite_ != nullptr && composite_->active();
  size_t next = 0;
  for (size_t b = 0; b < count; ++b) {
    if (batch_event_hook_) {
      batch_event_hook_(b);
    }
    // One composite epoch per source event: base detections collected
    // during dispatch below, then RunEpoch drives the level fixed point.
    if (epochs) {
      composite_->BeginEpoch();
    }
    // Matches the sweep computed for this event.
    for (; next < scratch_matches_.size() &&
           static_cast<size_t>(scratch_matches_[next].batch_index) == b;
         ++next) {
      const MultiPatternMatcher::MultiMatch& match = scratch_matches_[next];
      DispatchToQuery(queries_[match.pattern_index], match.match, events[b]);
    }
    // Composite levels run after ALL base detections of this event --
    // same timestamp epoch, deterministic (event-seq, level, query-id)
    // order.
    if (epochs) {
      composite_->RunEpoch();
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
  // The window is swept in place: no detection callback can refill it
  // while the sweep runs (Process dies inside a callback). It is not
  // cleared either: slots keep their values capacity and are overwritten
  // in place on the next fill, so the steady state buffers a window with
  // zero allocations.
  const size_t count = window_count_;
  window_count_ = 0;
  RunBatch(window_.data(), count);
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
  stream::FillSlot(window_, window_count_, event);
  if (window_count_ >= batch_size_) {
    FlushBatchedEvents();
  }
  return Forward(event);
}

Status MultiMatchOperator::ProcessBatch(const stream::Event* events,
                                        size_t count) {
  // Re-entering from a detection callback would clobber the in-flight
  // sweep's scratch state; fail loudly like the other mutating entry
  // points.
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
