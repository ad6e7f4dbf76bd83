#include "cep/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <tuple>
#include <climits>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "stream/thread_affinity.h"

namespace epl::cep {

namespace {

/// Bitwise routing key of a session-tag / routing-field double. +0.0 and
/// -0.0 compare equal but differ bitwise; canonicalize so a producer
/// writing -0.0 still reaches session 0's shards.
uint64_t RoutingKey(double value) {
  if (value == 0.0) {
    value = 0.0;
  }
  uint64_t key = 0;
  static_assert(sizeof(key) == sizeof(value));
  std::memcpy(&key, &value, sizeof(key));
  return key;
}

}  // namespace

uint64_t QueryCostWeight(const CompiledPattern& pattern) {
  const uint64_t weight =
      static_cast<uint64_t>(pattern.num_states()) +
      static_cast<uint64_t>(pattern.num_distinct_predicates());
  return std::max<uint64_t>(1, weight);
}

int PickRebalanceVictim(
    const std::vector<uint64_t>& shard_weights,
    const std::vector<std::pair<int, uint64_t>>& candidates,
    uint64_t max_skew) {
  if (shard_weights.size() < 2) {
    return -1;
  }
  uint64_t heaviest = shard_weights[0];
  uint64_t lightest = shard_weights[0];
  for (uint64_t weight : shard_weights) {
    heaviest = std::max(heaviest, weight);
    lightest = std::min(lightest, weight);
  }
  const uint64_t gap = heaviest - lightest;
  if (gap <= max_skew) {
    return -1;
  }
  // Moving weight w from the heaviest to the lightest shard leaves a
  // |gap - 2w| pair gap; only w < gap strictly shrinks it (and the sum of
  // squared weights, which is what guarantees loop termination).
  int victim = -1;
  uint64_t best_residual = gap;
  for (const auto& [query_id, weight] : candidates) {
    if (weight == 0 || weight >= gap) {
      continue;  // moving it cannot shrink the gap
    }
    const uint64_t residual =
        2 * weight > gap ? 2 * weight - gap : gap - 2 * weight;
    if (residual < best_residual ||
        (residual == best_residual && query_id > victim)) {
      victim = query_id;
      best_residual = residual;
    }
  }
  return victim;
}

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(options) {
  options_.num_shards = std::max(1, options_.num_shards);
  options_.batch_size = std::max<size_t>(1, options_.batch_size);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(MakeShard());
  }
  ResizeIndexLocked();
  pending_batch_ = std::make_unique<Batch>();
  pending_batch_->events.reserve(options_.batch_size);
}

ShardedEngine::~ShardedEngine() {
  if (running()) {
    Stop().ok();
  }
}

std::unique_ptr<ShardedEngine::Shard> ShardedEngine::MakeShard() {
  auto shard = std::make_unique<Shard>(options_.matcher);
  // The worker runs each fan-out batch as one matcher sweep; the hook
  // stamps current_seq per event so the recorders still tag matches with
  // exact sequence numbers. A routed sub-batch carries its events'
  // absolute sequence numbers explicitly (they are a non-contiguous
  // subset of the window).
  Shard* raw = shard.get();
  raw->op.set_batch_event_hook([raw](size_t index) {
    raw->current_seq = raw->batch_seqs != nullptr
                           ? (*raw->batch_seqs)[index]
                           : raw->batch_base_seq + index;
  });
  return shard;
}

void ShardedEngine::SpawnWorkerLocked(Shard* shard, int worker_index) {
  shard->worker = std::thread(
      [this, shard, worker_index] { WorkerLoop(shard, worker_index); });
}

Status ShardedEngine::Start() {
  std::lock_guard<std::mutex> lock(control_mu_);
  if (running_) {
    return FailedPreconditionError("sharded engine already started");
  }
  if (stopped_) {
    return FailedPreconditionError("sharded engine cannot be restarted");
  }
  running_ = true;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // The affinity slot is the shard's fleet position: shrink always
    // retires from the back, so a surviving shard keeps its slot and a
    // later grow re-fills the freed CPUs.
    SpawnWorkerLocked(shards_[i].get(), static_cast<int>(i));
  }
  return OkStatus();
}

bool ShardedEngine::Push(const stream::Event& event) {
  CheckNotDelivering("Push");
  std::lock_guard<std::mutex> lock(control_mu_);
  if (!running_) {
    return false;
  }
  stream::FillSlot(pending_batch_->events, pending_batch_->size, event);
  if (pending_batch_->size >= options_.batch_size) {
    FlushBatch();
  }
  return true;
}

Status ShardedEngine::Flush() {
  CheckNotDelivering("Flush");
  std::lock_guard<std::mutex> lock(control_mu_);
  if (!running_) {
    return FailedPreconditionError("sharded engine not running");
  }
  QuiesceLocked();
  return FirstShardError();
}

Status ShardedEngine::Stop() {
  CheckNotDelivering("Stop");
  std::lock_guard<std::mutex> lock(control_mu_);
  if (!running_) {
    return FailedPreconditionError("sharded engine not running");
  }
  QuiesceLocked();
  {
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    shutdown_ = true;
    WakeAllWorkersLocked();
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->worker.joinable()) {
      shard->worker.join();
    }
  }
  running_ = false;
  stopped_ = true;
  return FirstShardError();
}

int ShardedEngine::AddQuery(QuerySpec spec) {
  Result<int> id = RestoreQuery(std::move(spec), NfaRunState());
  EPL_CHECK(id.ok()) << id.status();  // empty run state fits any pattern
  return *id;
}

Status ShardedEngine::RemoveQuery(int query_id) {
  CheckNotDelivering("RemoveQuery");
  std::lock_guard<std::mutex> lock(control_mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return NotFoundError("unknown query id " + std::to_string(query_id));
  }
  // Deliver every match the query completed before this boundary.
  QuiesceLocked();
  if (it->second.shard < 0) {
    const Status status = composite_->Remove(query_id);
    queries_.erase(it);
    return status;
  }
  Shard* shard = shards_[static_cast<size_t>(it->second.shard)].get();
  const Status status = shard->op.RemoveQuery(it->second.local_id);
  IndexQueryLocked(it->second, it->second.shard, false);
  queries_.erase(it);
  Rebalance();
  return status;
}

void ShardedEngine::ResetMatchers() {
  CheckNotDelivering("ResetMatchers");
  std::lock_guard<std::mutex> lock(control_mu_);
  QuiesceLocked();
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->op.ResetMatchers();
  }
  if (composite_ != nullptr) {
    composite_->Reset();
  }
}

Status ShardedEngine::Resize(int num_shards) {
  CheckNotDelivering("Resize");
  std::lock_guard<std::mutex> lock(control_mu_);
  if (stopped_) {
    return FailedPreconditionError("sharded engine is stopped");
  }
  const size_t target = static_cast<size_t>(std::max(1, num_shards));
  if (target == shards_.size()) {
    return OkStatus();
  }
  const bool live = running_;
  QuiesceLocked();
  if (target > shards_.size()) {
    // Grow: fresh shards are born at the quiesce boundary holding no
    // window, so they count as having processed every event pushed so far
    // (none of their queries existed earlier).
    const size_t old_count = shards_.size();
    std::vector<std::unique_ptr<Shard>> born;
    while (old_count + born.size() < target) {
      born.push_back(MakeShard());
    }
    {
      std::lock_guard<std::mutex> pool_lock(pool_mu_);
      for (std::unique_ptr<Shard>& shard : born) {
        shards_.push_back(std::move(shard));
      }
    }
    ResizeIndexLocked();
    if (live) {
      for (size_t i = old_count; i < shards_.size(); ++i) {
        SpawnWorkerLocked(shards_[i].get(), static_cast<int>(i));
      }
    }
  } else {
    // Shrink: migrate every query off the doomed shards [target, size)
    // onto a survivor, live matcher and all -- identical mechanics to
    // Rebalance, just with a forced source set. Moves change neither the
    // query set nor any weight, so the budget is fixed for the pass.
    const bool affinity =
        options_.placement == ShardPlacement::kSessionAffinity;
    const uint64_t budget = SkewBudget();
    // Affinity survives the shrink: a migrating session query prefers a
    // surviving shard already hosting its session, budget permitting (the
    // closing Rebalance consolidates whatever this pass leaves split).
    // Among such shards it takes the one whose resident co-session query
    // has the smallest id, so per session and surviving shard this table
    // holds that id (INT_MAX: none), kept current as queries arrive.
    std::unordered_map<uint64_t, std::vector<int>> first_resident;
    const auto note_resident = [&](const QueryInfo& info, int query_id) {
      std::vector<int>& ids = first_resident[RoutingKey(info.session_tag)];
      if (ids.empty()) {
        ids.assign(target, INT_MAX);
      }
      int& first = ids[static_cast<size_t>(info.shard)];
      first = std::min(first, query_id);
    };
    if (affinity) {
      for (const auto& [query_id, info] : queries_) {
        if (info.session_scoped && static_cast<size_t>(info.shard) < target) {
          note_resident(info, query_id);
        }
      }
    }
    Status migrate_status;
    for (auto& [query_id, info] : queries_) {
      if (info.shard < 0 || static_cast<size_t>(info.shard) < target) {
        continue;  // composite queries live off-shard; survivors stay put
      }
      const std::vector<uint64_t>& weights = ShardWeightsLocked();
      uint64_t lightest = UINT64_MAX;
      int destination_index = 0;
      for (size_t s = 0; s < target; ++s) {
        if (weights[s] < lightest) {
          lightest = weights[s];
          destination_index = static_cast<int>(s);
        }
      }
      if (affinity && info.session_scoped) {
        const auto it = first_resident.find(RoutingKey(info.session_tag));
        if (it != first_resident.end()) {
          int first = INT_MAX;
          for (size_t s = 0; s < target; ++s) {
            if (it->second[s] < first &&
                weights[s] + info.weight <= lightest + budget) {
              first = it->second[s];
              destination_index = static_cast<int>(s);
            }
          }
        }
      }
      MoveQueryLocked(query_id, destination_index);
      if (affinity && info.session_scoped) {
        note_resident(info, query_id);
      }
    }
    std::vector<std::unique_ptr<Shard>> doomed;
    {
      std::lock_guard<std::mutex> pool_lock(pool_mu_);
      while (shards_.size() > target) {
        shards_.back()->retired = true;
        doomed.push_back(std::move(shards_.back()));
        shards_.pop_back();
      }
      // Fewer FIFOs hold fewer windows: trim the pool to the new bound.
      if (spare_windows_.size() > MaxSpareWindowsLocked()) {
        spare_windows_.resize(MaxSpareWindowsLocked());
      }
      ResizeIndexLocked();
      for (std::unique_ptr<Shard>& shard : doomed) {
        ++shard->wake_epoch;
        shard->cv.notify_all();
      }
    }
    for (std::unique_ptr<Shard>& shard : doomed) {
      if (shard->worker.joinable()) {
        shard->worker.join();
      }
      // Quiesce delivered everything below the watermark == next_seq_, so
      // a doomed shard can have no match left to lose.
      EPL_CHECK(shard->pending.empty())
          << "retired shard still held undelivered matches";
      if (migrate_status.ok() && !shard->status.ok()) {
        migrate_status = shard->status;
      }
    }
    if (!migrate_status.ok()) {
      if (live) {
        Rebalance();
      }
      return migrate_status;
    }
  }
  ++resize_count_;
  Rebalance();
  return OkStatus();
}

Result<std::vector<std::pair<int, NfaRunState>>>
ShardedEngine::ExportRunStates() {
  CheckNotDelivering("ExportRunStates");
  std::lock_guard<std::mutex> lock(control_mu_);
  // The cut is exactly "all pushed events processed, all their detections
  // delivered".
  QuiesceLocked();
  std::vector<std::pair<int, NfaRunState>> states;
  states.reserve(queries_.size());
  for (const auto& [query_id, info] : queries_) {
    Result<NfaRunState> state =
        info.shard < 0
            ? composite_->ExportRunState(query_id)
            : shards_[static_cast<size_t>(info.shard)]->op.ExportQueryRunState(
                  info.local_id);
    if (!state.ok()) {
      return state.status().WithContext("query " + std::to_string(query_id));
    }
    states.emplace_back(query_id, std::move(*state));
  }
  return states;
}

Result<int> ShardedEngine::RestoreQuery(QuerySpec spec,
                                        const NfaRunState& runs) {
  CheckNotDelivering("AddQuery/RestoreQuery");
  MultiMatchOperator::DetachedQuery query =
      MultiMatchOperator::MakeQuery(std::move(spec), options_.matcher);
  EPL_RETURN_IF_ERROR(query.matcher->ImportRunState(runs));
  std::lock_guard<std::mutex> lock(control_mu_);
  QuiesceLocked();
  return InstallLocked(std::move(query));
}

int ShardedEngine::InstallLocked(MultiMatchOperator::DetachedQuery query) {
  const int id = next_query_id_++;
  InstalledQuery& record = query.query;
  QueryInfo info;
  info.level = record.level;
  info.tag = record.tag;
  info.session_tag = record.session_tag;
  info.session_scoped = record.level == 0 && record.session_scoped;
  info.weight = QueryCostWeight(*record.pattern);
  if (record.level > 0) {
    // Composite queries run in the engine-owned runner, fed from the
    // watermark merge -- no shard, no recorder, and the user callback
    // fires directly from the epoch fixed point (delivery thread).
    record.id = id;
    EnsureCompositeLocked().Add(std::move(record), std::move(query.matcher));
    queries_.emplace(id, std::move(info));
    return id;
  }
  info.callback = std::move(record.callback);
  info.shard = PlaceQueryLocked(info);
  Shard* shard = shards_[static_cast<size_t>(info.shard)].get();
  record.callback = MakeRecorder(shard, id);
  info.local_id = shard->op.AdoptQuery(std::move(query));
  IndexQueryLocked(info, info.shard, true);
  queries_.emplace(id, std::move(info));
  Rebalance();
  return id;
}

std::vector<ShardedEngine::QueryStatsSnapshot> ShardedEngine::QueryStats() {
  CheckNotDelivering("QueryStats");
  std::lock_guard<std::mutex> lock(control_mu_);
  // No worker is mid-event while stats are read.
  QuiesceLocked();
  std::vector<QueryStatsSnapshot> snapshots;
  snapshots.reserve(queries_.size());
  for (const auto& [query_id, info] : queries_) {
    QueryStatsSnapshot snapshot;
    snapshot.query_id = query_id;
    snapshot.shard = info.shard;
    snapshot.weight = info.weight;
    if (info.shard < 0) {
      // Composite queries: matcher stats from the engine-owned runner
      // (bank stats stay default -- composites share no shard bank).
      Result<MatcherStats> stats = composite_->QueryStats(query_id);
      EPL_CHECK(stats.ok()) << stats.status();
      snapshot.stats = *stats;
    } else {
      const MultiMatchOperator& op =
          shards_[static_cast<size_t>(info.shard)]->op;
      snapshot.stats = op.matcher_stats(op.FindQuery(info.local_id));
      snapshot.bank = op.bank_stats();
    }
    snapshots.push_back(snapshot);
  }
  return snapshots;
}

size_t ShardedEngine::general_gate_groups() {
  CheckNotDelivering("general_gate_groups");
  std::lock_guard<std::mutex> lock(control_mu_);
  QuiesceLocked();
  size_t groups = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    groups += shard->op.matcher().general_gate_groups();
  }
  return groups;
}

uint64_t ShardedEngine::processed() const {
  CheckNotDelivering("processed");
  std::lock_guard<std::mutex> lock(control_mu_);
  std::lock_guard<std::mutex> pool_lock(pool_mu_);
  return MinProcessedLocked();
}

size_t ShardedEngine::num_queries() const {
  CheckNotDelivering("num_queries");
  std::lock_guard<std::mutex> lock(control_mu_);
  return queries_.size();
}

bool ShardedEngine::running() const {
  CheckNotDelivering("running");
  std::lock_guard<std::mutex> lock(control_mu_);
  return running_;
}

uint64_t ShardedEngine::rebalanced_queries() const {
  CheckNotDelivering("rebalanced_queries");
  std::lock_guard<std::mutex> lock(control_mu_);
  return rebalanced_queries_;
}

int ShardedEngine::pin_failures() const {
  return pin_failures_.load(std::memory_order_relaxed);
}

uint64_t ShardedEngine::resize_count() const {
  CheckNotDelivering("resize_count");
  std::lock_guard<std::mutex> lock(control_mu_);
  return resize_count_;
}

ShardedEngine::EngineStats ShardedEngine::engine_stats() const {
  CheckNotDelivering("engine_stats");
  std::lock_guard<std::mutex> lock(control_mu_);
  EngineStats stats = stats_;
  std::lock_guard<std::mutex> pool_lock(pool_mu_);
  stats.worker_wakeups = wakeups_signaled_;
  return stats;
}

void ShardedEngine::TestOnlyFlipInterestBit(double key, int shard) {
  CheckNotDelivering("TestOnlyFlipInterestBit");
  std::lock_guard<std::mutex> lock(control_mu_);
  std::vector<int>& shards = interest_[RoutingKey(key)];
  auto it = std::find(shards.begin(), shards.end(), shard);
  if (it == shards.end()) {
    shards.push_back(shard);
    std::sort(shards.begin(), shards.end());
  } else {
    shards.erase(it);
  }
}

int ShardedEngine::num_shards() const {
  // pool_mu_, not control_mu_: the shard vector's shape only changes under
  // both, and pool_mu_ is never held while user callbacks run -- so this
  // stays callable from a detection callback. ShardedMatchOperator::name()
  // is not: it also reads num_queries(), which dies there.
  std::lock_guard<std::mutex> lock(pool_mu_);
  return static_cast<int>(shards_.size());
}

std::vector<uint64_t> ShardedEngine::shard_busy_ns() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  std::vector<uint64_t> busy;
  busy.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    busy.push_back(shard->busy_ns);
  }
  return busy;
}

size_t ShardedEngine::spare_windows() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return spare_windows_.size();
}

size_t ShardedEngine::max_spare_windows() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  return MaxSpareWindowsLocked();
}

int ShardedEngine::shard_of(int query_id) const {
  CheckNotDelivering("shard_of");
  std::lock_guard<std::mutex> lock(control_mu_);
  auto it = queries_.find(query_id);
  return it == queries_.end() ? -1 : it->second.shard;
}

std::vector<uint64_t> ShardedEngine::shard_weights() const {
  CheckNotDelivering("shard_weights");
  std::lock_guard<std::mutex> lock(control_mu_);
  return ShardWeightsLocked();
}

std::vector<size_t> ShardedEngine::shard_query_counts() const {
  CheckNotDelivering("shard_query_counts");
  std::lock_guard<std::mutex> lock(control_mu_);
  std::vector<size_t> counts;
  counts.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    counts.push_back(shard->op.num_queries());
  }
  return counts;
}

void ShardedEngine::WorkerLoop(Shard* shard, int worker_index) {
  if (options_.pin_workers &&
      !stream::PinCurrentThreadToAffinitySlot(worker_index)) {
    pin_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  std::unique_lock<std::mutex> lock(pool_mu_);
  while (true) {
    if (shard->retired) {
      return;
    }
    if (shard->queue.empty()) {
      if (shutdown_) {
        return;
      }
      const uint64_t epoch = shard->wake_epoch;
      shard->cv.wait(lock, [this, shard, epoch] {
        return shard->wake_epoch != epoch || shutdown_ || shard->retired;
      });
      continue;
    }
    Batch* batch = shard->queue.front();
    shard->queue.pop_front();
    shard->running = batch;
    lock.unlock();
    const auto started = std::chrono::steady_clock::now();
    Status status = ExecuteBatch(shard, *batch);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    lock.lock();
    // Publish in the hold that clears `running`, so the watermark never
    // passes a batch whose matches are not yet in `pending`.
    for (PendingMatch& match : shard->local) {
      shard->pending.push_back(std::move(match));
    }
    shard->local.clear();
    if (shard->status.ok()) {
      shard->status = std::move(status);
    }
    shard->busy_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    shard->running = nullptr;
    ReleaseWindowLocked(batch);
    control_cv_.notify_all();
  }
}

void ShardedEngine::WakeShardLocked(Shard* shard) {
  ++shard->wake_epoch;
  shard->cv.notify_one();
  ++wakeups_signaled_;
}

void ShardedEngine::WakeAllWorkersLocked() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    ++shard->wake_epoch;
    shard->cv.notify_all();
  }
}

Status ShardedEngine::ExecuteBatch(Shard* shard, const Batch& batch) {
  // The whole fan-out batch runs as ONE matcher sweep: the shard's bank
  // answers all events in one pass per field and every pattern advances
  // across the window before the next pattern is touched. The operator's
  // batch-event hook keeps current_seq exact per event.
  shard->batch_base_seq = batch.base_seq;
  shard->batch_seqs = batch.seqs.empty() ? nullptr : &batch.seqs;
  Status status = shard->op.ProcessBatch(batch.events.data(), batch.size);
  shard->batch_seqs = nullptr;
  return status;
}

void ShardedEngine::QuiesceLocked() {
  if (!running_) {
    return;
  }
  FlushBatch();
  {
    // control_mu_ keeps the producer out, so once every FIFO is empty and
    // no shard is running, no worker can claim anything until this caller
    // lets go of control_mu_: every pushed event is fully processed and
    // the shards' matchers are the caller's to read and mutate.
    std::unique_lock<std::mutex> lock(pool_mu_);
    control_cv_.wait(lock, [this] {
      for (const std::unique_ptr<Shard>& shard : shards_) {
        if (!shard->queue.empty() || shard->running != nullptr) {
          return false;
        }
      }
      return true;
    });
  }
  DrainAndDeliver();
}

void ShardedEngine::FlushBatch() {
  if (pending_batch_->size == 0) {
    return;
  }
  pending_batch_->base_seq = next_seq_;
  next_seq_ += pending_batch_->size;
  ++stats_.fanout_batches;
  DistributeBatch();
  DrainAndDeliver();
}

std::unique_ptr<ShardedEngine::Batch> ShardedEngine::TakeWindowLocked() {
  if (spare_windows_.empty()) {
    return std::make_unique<Batch>();  // the pool is still warming up
  }
  std::unique_ptr<Batch> window = std::move(spare_windows_.back());
  spare_windows_.pop_back();
  return window;
}

void ShardedEngine::ReleaseWindowLocked(Batch* window) {
  if (--window->refs > 0) {
    return;
  }
  std::unique_ptr<Batch> owned(window);
  if (spare_windows_.size() < MaxSpareWindowsLocked()) {
    owned->size = 0;
    owned->seqs.clear();
    spare_windows_.push_back(std::move(owned));
  }
}

size_t ShardedEngine::MaxSpareWindowsLocked() const {
  // Each FIFO holds at most queue_capacity windows and its worker one
  // more; the producer adds the window it fills and the one it routes.
  return shards_.size() * (options_.queue_capacity + 1) + 2;
}

void ShardedEngine::DistributeBatch() {
  Batch* const window = pending_batch_.release();
  const size_t size = window->size;
  const size_t num_shards = shards_.size();
  // Without a routing field no event carries a key, so every event takes
  // the key-less path to every shard and each shard shares the one window.
  const size_t field = options_.routing_field < 0
                           ? SIZE_MAX
                           : static_cast<size_t>(options_.routing_field);
  route_scratch_.resize(num_shards);
  for (std::vector<uint32_t>& indices : route_scratch_) {
    indices.clear();
  }
  for (size_t i = 0; i < size; ++i) {
    const stream::Event& event = window->events[i];
    if (field >= event.values.size()) {
      // No routing key on this event: conservatively broadcast it.
      for (std::vector<uint32_t>& indices : route_scratch_) {
        indices.push_back(static_cast<uint32_t>(i));
      }
      continue;
    }
    for (int s : wildcard_shards_) {
      route_scratch_[static_cast<size_t>(s)].push_back(
          static_cast<uint32_t>(i));
    }
    const auto it = interest_.find(RoutingKey(event.values[field]));
    if (it == interest_.end()) {
      continue;  // only session-scoped queries of other sessions exist
    }
    for (int s : it->second) {
      std::vector<uint32_t>& indices = route_scratch_[static_cast<size_t>(s)];
      // A shard can be both wildcard and key-interested; indices for
      // one event arrive adjacently, so dedup is a tail check.
      if (indices.empty() || indices.back() != static_cast<uint32_t>(i)) {
        indices.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  route_windows_.assign(num_shards, nullptr);
  size_t subbatches = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t count = route_scratch_[s].size();
    stats_.events_routed += count;
    stats_.events_skipped_by_filter += size - count;
    if (count == size) {
      route_windows_[s] = window;  // full window: share it
    } else if (count > 0) {
      ++subbatches;
    }
  }
  if (subbatches > 0) {
    // Routed sub-batches come from the pool in one pool_mu_ visit and are
    // filled outside it (copying events under the pool lock would stall
    // the workers). Until enqueued below, the producer owns them.
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      for (size_t s = 0; s < num_shards; ++s) {
        if (route_windows_[s] == nullptr && !route_scratch_[s].empty()) {
          route_windows_[s] = TakeWindowLocked().release();
        }
      }
    }
    for (size_t s = 0; s < num_shards; ++s) {
      if (route_windows_[s] == window || route_scratch_[s].empty()) {
        continue;
      }
      Batch* sub = route_windows_[s];
      sub->base_seq = window->base_seq;
      for (uint32_t index : route_scratch_[s]) {
        stream::FillSlot(sub->events, sub->size, window->events[index]);
        sub->seqs.push_back(window->base_seq + index);
      }
    }
    stats_.fanout_subbatches += subbatches;
  }
  {
    std::unique_lock<std::mutex> lock(pool_mu_);
    // Backpressure: block until every destination FIFO has room before
    // enqueueing anywhere. Skipped shards receive nothing, so they need
    // no room.
    control_cv_.wait(lock, [this] {
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (route_windows_[s] != nullptr &&
            shards_[s]->queue.size() >= options_.queue_capacity) {
          return false;
        }
      }
      return true;
    });
    // The producer holds the window until every share is enqueued.
    window->refs = 1;
    for (size_t s = 0; s < num_shards; ++s) {
      Batch* batch = route_windows_[s];
      if (batch == nullptr) {
        continue;
      }
      ++batch->refs;
      shards_[s]->queue.push_back(batch);
      WakeShardLocked(shards_[s].get());
    }
    // Back to the pool now if no shard took the whole window, so it can be
    // the very next pending window.
    ReleaseWindowLocked(window);
    pending_batch_ = TakeWindowLocked();
  }
}

void ShardedEngine::DrainAndDeliver() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    const uint64_t watermark = MinProcessedLocked();
    for (std::unique_ptr<Shard>& shard : shards_) {
      while (!shard->pending.empty() &&
             shard->pending.front().seq < watermark) {
        merge_scratch_.push_back(std::move(shard->pending.front()));
        shard->pending.pop_front();
      }
    }
  }
  if (merge_scratch_.empty()) {
    return;
  }
  // Stable: matches of one query for one event (exhaustive mode can emit
  // several) come from a single shard in emission order. The (seq, level,
  // query_id) key is the documented total order -- shards only record
  // level 0, composite detections are produced below in level order.
  std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                   [](const PendingMatch& a, const PendingMatch& b) {
                     return std::tie(a.seq, a.level, a.query_id) <
                            std::tie(b.seq, b.level, b.query_id);
                   });
  delivering_thread_.store(std::this_thread::get_id(),
                           std::memory_order_relaxed);
  // With composites deployed, each event sequence number with base
  // detections becomes one feedback epoch: base callbacks fire first (in
  // query-id order), their detections re-enter as derived events, and the
  // runner drives the level fixed point before the next sequence number.
  // Sequence numbers without base detections never appear here, and an
  // empty epoch is a no-op for every composite pattern (no eager run
  // expiry), so skipping them is exact.
  const bool feedback = composite_ != nullptr && composite_->active();
  size_t i = 0;
  while (i < merge_scratch_.size()) {
    const uint64_t seq = merge_scratch_[i].seq;
    if (feedback) {
      composite_->BeginEpoch();
    }
    for (; i < merge_scratch_.size() && merge_scratch_[i].seq == seq; ++i) {
      PendingMatch& match = merge_scratch_[i];
      auto it = queries_.find(match.query_id);
      if (it == queries_.end()) {
        continue;
      }
      if (it->second.callback) {
        it->second.callback(match.detection);
      }
      if (feedback) {
        composite_->CollectBase(it->second.tag, it->second.session_tag,
                                match.detection);
      }
    }
    if (feedback) {
      composite_->RunEpoch();
    }
  }
  delivering_thread_.store(std::thread::id(), std::memory_order_relaxed);
  merge_scratch_.clear();
}

uint64_t ShardedEngine::MinProcessedLocked() const {
  uint64_t watermark = next_seq_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->running != nullptr) {
      watermark = std::min(watermark, shard->running->base_seq);
    } else if (!shard->queue.empty()) {
      watermark = std::min(watermark, shard->queue.front()->base_seq);
    }
  }
  return watermark;
}

void ShardedEngine::CheckNotDelivering(const char* call) const {
  EPL_CHECK(delivering_thread_.load(std::memory_order_relaxed) !=
            std::this_thread::get_id())
      << call << " from inside a detection callback";
}

void ShardedEngine::IndexQueryLocked(const QueryInfo& info, int shard,
                                     bool add) {
  const size_t s = static_cast<size_t>(shard);
  const auto apply = [add, &info](uint64_t& weight) {
    weight = add ? weight + info.weight : weight - info.weight;
  };
  // Steps a count; true on a 0 <-> 1 transition -- the only moments the
  // interest index changes (a shard starts or stops hosting a session or
  // any wildcard query).
  const auto step = [add](auto& count) {
    count = add ? count + 1 : count - 1;
    return count == (add ? 1u : 0u);
  };
  apply(index_.shard_weight[s]);
  apply(index_.total_weight);
  step(index_.base_queries);
  if (!info.session_scoped) {
    if (step(index_.wildcard_count[s])) {
      wildcard_shards_.clear();
      for (size_t i = 0; i < index_.wildcard_count.size(); ++i) {
        if (index_.wildcard_count[i] > 0) {
          wildcard_shards_.push_back(static_cast<int>(i));
        }
      }
    }
    return;
  }
  step(index_.scoped_queries);
  const uint64_t key = RoutingKey(info.session_tag);
  SessionPlacement& session = index_.sessions[key];
  if (session.weight.empty()) {
    session.weight.assign(shards_.size(), 0);
    session.count.assign(shards_.size(), 0);
  }
  apply(session.weight[s]);
  if (!step(session.count[s])) {
    return;
  }
  step(session.shards);
  if (add && session.shards == 2) {
    index_.split_sessions.insert(key);
  } else if (!add && session.shards == 1) {
    index_.split_sessions.erase(key);
  }
  if (session.shards == 0) {
    index_.sessions.erase(key);
    interest_.erase(key);
    return;
  }
  std::vector<int>& shards = interest_[key];
  shards.clear();
  for (size_t i = 0; i < session.count.size(); ++i) {
    if (session.count[i] > 0) {
      shards.push_back(static_cast<int>(i));
    }
  }
}

void ShardedEngine::ResizeIndexLocked() {
  const size_t n = shards_.size();
  index_.shard_weight.resize(n, 0);
  index_.wildcard_count.resize(n, 0);
  for (auto& [key, session] : index_.sessions) {
    (void)key;
    session.weight.resize(n, 0);
    session.count.resize(n, 0);
  }
}

uint64_t ShardedEngine::SkewBudget() const {
  if (index_.base_queries == 0) {
    return 1;
  }
  // The budget tolerates one average PLACEMENT UNIT of imbalance. Under
  // kSessionAffinity that unit is a whole session group (unscoped
  // queries stay individual units): sizing it to single queries would
  // forbid ever packing a multi-query session onto its home shard.
  const uint64_t units =
      options_.placement == ShardPlacement::kSessionAffinity
          ? index_.sessions.size() + index_.base_queries -
                index_.scoped_queries
          : index_.base_queries;
  const uint64_t average = (index_.total_weight + units - 1) / units;  // ceil
  return std::max<uint64_t>(1, average);
}

int ShardedEngine::LeastLoadedShard() const {
  const std::vector<uint64_t>& weights = ShardWeightsLocked();
  int best = 0;
  for (size_t i = 1; i < weights.size(); ++i) {
    if (weights[i] < weights[static_cast<size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

int ShardedEngine::PlaceQueryLocked(const QueryInfo& info) const {
  if (options_.placement != ShardPlacement::kSessionAffinity ||
      !info.session_scoped) {
    return LeastLoadedShard();
  }
  // Home shard: the one already hosting the most of this session's
  // weight. Packing there is what lets routed fan-out skip the rest of
  // the fleet -- accept it whenever the result stays inside the skew
  // budget over the lightest shard.
  const auto session = index_.sessions.find(RoutingKey(info.session_tag));
  if (session == index_.sessions.end()) {
    return LeastLoadedShard();  // first query of this session
  }
  const std::vector<uint64_t>& session_weight = session->second.weight;
  const size_t home = static_cast<size_t>(
      std::max_element(session_weight.begin(), session_weight.end()) -
      session_weight.begin());
  const std::vector<uint64_t>& weights = ShardWeightsLocked();
  const uint64_t lightest = *std::min_element(weights.begin(), weights.end());
  if (weights[home] + info.weight <= lightest + SkewBudget()) {
    return static_cast<int>(home);
  }
  return LeastLoadedShard();
}

void ShardedEngine::MoveQueryLocked(int query_id, int destination_index) {
  // The query's live matcher (and partial runs, and statistics) travel
  // with it.
  QueryInfo& info = queries_[query_id];
  Result<MultiMatchOperator::DetachedQuery> detached =
      shards_[static_cast<size_t>(info.shard)]->op.ExtractQuery(
          info.local_id);
  EPL_CHECK(detached.ok()) << detached.status();
  // The recorder points at the old shard's buffers; rebind it.
  Shard* destination = shards_[static_cast<size_t>(destination_index)].get();
  detached->query.callback = MakeRecorder(destination, query_id);
  info.local_id = destination->op.AdoptQuery(std::move(detached).value());
  // Index the arrival before the departure, so a one-query session's
  // entry is not dropped and re-created on the way.
  IndexQueryLocked(info, destination_index, true);
  IndexQueryLocked(info, info.shard, false);
  info.shard = destination_index;
}

void ShardedEngine::Rebalance() {
  const bool affinity =
      options_.placement == ShardPlacement::kSessionAffinity;
  // Loop-invariant: moves change shard assignment, not the query set.
  const uint64_t budget = SkewBudget();
  while (true) {
    const std::vector<uint64_t> weights = ShardWeightsLocked();
    int min_shard = 0;
    int max_shard = 0;
    for (int i = 1; i < static_cast<int>(shards_.size()); ++i) {
      const size_t s = static_cast<size_t>(i);
      if (weights[s] < weights[static_cast<size_t>(min_shard)]) {
        min_shard = i;
      }
      if (weights[s] > weights[static_cast<size_t>(max_shard)]) {
        max_shard = i;
      }
    }
    if (weights[static_cast<size_t>(max_shard)] -
            weights[static_cast<size_t>(min_shard)] <=
        budget) {
      break;  // inside the budget: PickRebalanceVictim would pick nothing
    }
    // Under affinity, a session's queries on the overloaded shard move
    // as one unit (candidate weight = the session's resident total,
    // represented by its smallest query id), so balancing does not split
    // sessions. PickRebalanceVictim's termination argument is unchanged:
    // moving any unit of weight w < gap strictly shrinks the squared
    // weight sum.
    std::vector<std::pair<int, uint64_t>> candidates;
    std::unordered_map<uint64_t, std::pair<int, uint64_t>> groups;
    for (const auto& [query_id, info] : queries_) {
      if (info.shard != max_shard) {
        continue;
      }
      if (affinity && info.session_scoped) {
        auto [it, inserted] = groups.emplace(
            RoutingKey(info.session_tag),
            std::make_pair(query_id, info.weight));
        if (!inserted) {
          it->second.first = std::min(it->second.first, query_id);
          it->second.second += info.weight;
        }
      } else {
        candidates.emplace_back(query_id, info.weight);
      }
    }
    bool group_phase = false;
    if (affinity) {
      group_phase = true;
      for (const auto& [key, group] : groups) {
        (void)key;
        candidates.push_back(group);
      }
    }
    int victim = PickRebalanceVictim(weights, candidates, budget);
    if (victim < 0 && affinity && !groups.empty()) {
      // No whole-session (or unscoped) move fits the gap: fall back to
      // splitting a session query by query, the same policy kBalanced
      // runs -- fewest shards per session SUBJECT TO the skew budget.
      group_phase = false;
      candidates.clear();
      for (const auto& [query_id, info] : queries_) {
        if (info.shard == max_shard) {
          candidates.emplace_back(query_id, info.weight);
        }
      }
      victim = PickRebalanceVictim(weights, candidates, budget);
    }
    if (victim < 0) {
      break;
    }
    const QueryInfo& picked = queries_[victim];
    if (group_phase && picked.session_scoped) {
      // Move the victim's whole session group.
      const uint64_t key = RoutingKey(picked.session_tag);
      std::vector<int> moving;
      for (const auto& [query_id, info] : queries_) {
        if (info.shard == max_shard && info.session_scoped &&
            RoutingKey(info.session_tag) == key) {
          moving.push_back(query_id);
        }
      }
      for (int query_id : moving) {
        MoveQueryLocked(query_id, min_shard);
        ++rebalanced_queries_;
      }
    } else {
      MoveQueryLocked(victim, min_shard);
      ++rebalanced_queries_;
    }
  }
  if (affinity) {
    ConsolidateAffinityLocked(budget);
  }
}

void ShardedEngine::ConsolidateAffinityLocked(uint64_t budget) {
  // Sessions split across shards (by kBalanced history, a Resize, or a
  // budget-forced split that later cheapened) are packed back onto their
  // majority shard whenever the move keeps the fleet inside the skew
  // budget -- so the balance loop above, which only acts beyond the
  // budget, never undoes a consolidation and the pair cannot thrash.
  // Decisions read only the index -- the split sessions in key order,
  // each accepted packing updating the tentative shard weights the next
  // one sees -- so a fleet with no split session costs nothing here.
  std::vector<uint64_t> weights = ShardWeightsLocked();
  std::unordered_map<uint64_t, int> homes;
  for (uint64_t key : index_.split_sessions) {
    const std::vector<uint64_t>& session_weight =
        index_.sessions.at(key).weight;
    const size_t home = static_cast<size_t>(
        std::max_element(session_weight.begin(), session_weight.end()) -
        session_weight.begin());
    std::vector<uint64_t> tentative = weights;
    for (size_t s = 0; s < session_weight.size(); ++s) {
      if (s != home) {
        tentative[s] -= session_weight[s];
        tentative[home] += session_weight[s];
      }
    }
    const uint64_t heaviest =
        *std::max_element(tentative.begin(), tentative.end());
    const uint64_t lightest =
        *std::min_element(tentative.begin(), tentative.end());
    if (heaviest - lightest > budget) {
      continue;  // packing would exceed the budget; stay split
    }
    homes.emplace(key, static_cast<int>(home));
    weights = std::move(tentative);
  }
  if (homes.empty()) {
    return;
  }
  // Move the packed sessions' stray queries, session by session in key
  // order and by id within a session.
  std::map<uint64_t, std::vector<int>> strays;
  for (const auto& [query_id, info] : queries_) {
    if (info.shard < 0 || !info.session_scoped) {
      continue;
    }
    const uint64_t key = RoutingKey(info.session_tag);
    const auto home = homes.find(key);
    if (home != homes.end() && info.shard != home->second) {
      strays[key].push_back(query_id);
    }
  }
  for (const auto& [key, query_ids] : strays) {
    for (int query_id : query_ids) {
      MoveQueryLocked(query_id, homes.at(key));
      ++stats_.affinity_moves;
    }
  }
}

CompositeRunner& ShardedEngine::EnsureCompositeLocked() {
  if (composite_ == nullptr) {
    composite_ = std::make_unique<CompositeRunner>(options_.matcher);
  }
  return *composite_;
}

DetectionCallback ShardedEngine::MakeRecorder(Shard* shard, int query_id) {
  return [shard, query_id](const Detection& detection) {
    shard->local.push_back(
        PendingMatch{shard->current_seq, query_id, detection});
  };
}

Status ShardedEngine::FirstShardError() {
  std::lock_guard<std::mutex> lock(pool_mu_);
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->status.ok()) {
      return shard->status;
    }
  }
  return OkStatus();
}

Status ShardedMatchOperator::Process(const stream::Event& event) {
  if (!engine_.Push(event)) {
    return FailedPreconditionError("sharded engine is stopped");
  }
  if (sync_delivery_) {
    // Quiesce and deliver inside the dispatch, so every detection of this
    // event fires before any downstream operator sees it.
    EPL_RETURN_IF_ERROR(engine_.Flush());
  }
  return Forward(event);
}

}  // namespace epl::cep
