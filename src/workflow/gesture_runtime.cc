#include "workflow/gesture_runtime.h"

#include <tuple>
#include <type_traits>
#include <utility>

#include "cep/composite.h"
#include "gesturedb/serialization.h"
#include "kinect/sensor.h"
#include "query/unparser.h"
#include "stream/operators.h"
#include "transform/view.h"
#include "workflow/control_gestures.h"

namespace epl::workflow {

using core::GestureDefinition;
using kinect::SkeletonFrame;

namespace {

/// Stamps a session's view events with the session id and pushes them
/// into the shared session stream. A push failure propagates as a Status
/// (straight to PushFrame for raw session streams; through the view
/// dispatch chain for transformed sessions) instead of aborting.
class SessionMergeTap : public stream::Operator {
 public:
  SessionMergeTap(stream::StreamEngine* engine, SessionId session)
      : engine_(engine), session_(session) {}

  Status Process(const stream::Event& event) override {
    scratch_ = event;
    scratch_.values.push_back(static_cast<double>(session_));
    return engine_->Push(stream_name_, scratch_);
  }

  std::string name() const override {
    return "session_merge[" + std::to_string(session_) + "]";
  }

 private:
  stream::StreamEngine* engine_;
  SessionId session_;
  const std::string stream_name_ = kSessionStreamName;  // built once
  stream::Event scratch_;  // capacity reused across frames
};

}  // namespace

GestureRuntime::GestureRuntime(stream::StreamEngine* engine,
                               GestureRuntimeOptions options)
    : engine_(engine), options_(std::move(options)) {
  options_.batch_size = std::max<size_t>(1, options_.batch_size);
  options_.num_shards = std::max(1, options_.num_shards);
}

Status GestureRuntime::EnsureWal() {
  if (!durable() || wal_ != nullptr) {
    return OkStatus();
  }
  if (options_.backend == RuntimeBackend::kLegacyPerQuery) {
    return FailedPreconditionError(
        "durability requires the fused or sharded backend");
  }
  fs_ = options_.durability.fs != nullptr ? options_.durability.fs
                                          : durability::DefaultFileSystem();
  EPL_RETURN_IF_ERROR(fs_->CreateDir(options_.durability.dir));
  durability::EventLogOptions log_options;
  log_options.segment_bytes = options_.durability.segment_bytes;
  log_options.sync_every_records = options_.durability.sync_every_records;
  log_options.sync_interval_ms = options_.durability.sync_interval_ms;
  log_options.buffer_bytes = options_.durability.buffer_bytes;
  EPL_ASSIGN_OR_RETURN(
      wal_, durability::EventLog::Open(options_.durability.dir, log_options,
                                       fs_));
  return OkStatus();
}

Status GestureRuntime::LogRecord(const durability::WalRecord& record) {
  if (!durable() || replaying_ || suppress_wal_) {
    return OkStatus();
  }
  EPL_RETURN_IF_ERROR(EnsureWal());
  wal_encode_scratch_.Clear();
  durability::EncodeWalRecord(record, &wal_encode_scratch_);
  return wal_->Append(wal_encode_scratch_.str()).status();
}

uint64_t GestureRuntime::ingested_events(SessionId session) const {
  auto it = ingested_.find(session);
  return it == ingested_.end() ? 0 : it->second;
}

cep::DetectionCallback GestureRuntime::Guard(cep::DetectionCallback callback) {
  if (callback == nullptr) {
    return nullptr;
  }
  return [this, callback = std::move(callback)](const cep::Detection& d) {
    ++dispatch_depth_;
    callback(d);
    --dispatch_depth_;
  };
}

void GestureRuntime::Pump() {
  if (pending_.empty()) {
    return;
  }
  std::vector<std::function<Status()>> ops;
  ops.swap(pending_);
  for (std::function<Status()>& op : ops) {
    // A failing mutation neither stops the ones behind it nor the call
    // that reached this boundary: its error waits for the next Flush.
    Status status = op();
    if (deferred_error_.ok()) {
      deferred_error_ = std::move(status);
    }
  }
}

template <typename... Params, typename... Args>
Status GestureRuntime::ApplyOrDefer(
    Status (GestureRuntime::*op)(SessionId, Params...), SessionId session,
    Args&&... args) {
  EPL_RETURN_IF_ERROR(EnsureWal());
  if (!in_dispatch()) {
    Pump();
  }
  // Checked at request time, so a callback's close-then-deploy fails here
  // instead of inverting at the boundary.
  if (session != kLocalSession) {
    EPL_RETURN_IF_ERROR(FindSession(session).status());
  }
  if (!in_dispatch()) {
    return (this->*op)(session, std::forward<Args>(args)...);
  }
  // Only a queued call copies its arguments.
  pending_.push_back(
      [this, op, session,
       copies = std::make_tuple(
           std::decay_t<Params>(std::forward<Args>(args))...)]() mutable {
        return std::apply(
            [&](auto&... copy) {
              return (this->*op)(session, std::move(copy)...);
            },
            copies);
      });
  return OkStatus();
}

Result<GestureRuntime::Session*> GestureRuntime::FindSession(
    SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.open) {
    return NotFoundError("unknown session " + std::to_string(session));
  }
  return &it->second;
}

Result<const GestureRuntime::Session*> GestureRuntime::FindSession(
    SessionId session) const {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.open) {
    return NotFoundError("unknown session " + std::to_string(session));
  }
  return &it->second;
}

Status GestureRuntime::EnsureSessionStream() {
  if (engine_->HasStream(kSessionStreamName)) {
    return OkStatus();
  }
  stream::Schema schema = options_.transform_sessions
                              ? transform::KinectTSchema()
                              : kinect::KinectSchema();
  schema.AddField(kSessionFieldName);
  return engine_->RegisterStream(kSessionStreamName, std::move(schema));
}

Result<SessionId> GestureRuntime::OpenSession(const std::string& user) {
  if (in_dispatch()) {
    return FailedPreconditionError(
        "OpenSession from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(EnsureWal());
  Pump();
  EPL_ASSIGN_OR_RETURN(const SessionId id, DoOpenSession(user, -1));
  durability::WalRecord record;
  record.type = durability::WalRecord::Type::kOpenSession;
  record.session = id;
  record.name = user;
  EPL_RETURN_IF_ERROR(LogRecord(record));
  return id;
}

Result<SessionId> GestureRuntime::DoOpenSession(const std::string& user,
                                                SessionId forced_id) {
  if (user.empty()) {
    return InvalidArgumentError("session needs a user name");
  }
  if (open_users_.count(user) > 0) {
    return AlreadyExistsError("session already open for user: " + user);
  }
  // Recovery pins session ids to their original values: the gates and WAL
  // records of a restored session encode the id, so it must not drift.
  const SessionId id = forced_id >= 0 ? forced_id : next_session_id_++;
  next_session_id_ = std::max(next_session_id_, id + 1);
  Session session;
  session.name = user;
  session.raw_stream = user + "/kinect";
  if (!engine_->HasStream(session.raw_stream)) {
    EPL_RETURN_IF_ERROR(
        kinect::RegisterKinectStream(engine_, session.raw_stream));
  }
  if (options_.transform_sessions) {
    session.view_stream = user + "/kinect_t";
    if (!engine_->HasStream(session.view_stream)) {
      EPL_RETURN_IF_ERROR(transform::RegisterKinectTView(
          engine_, session.view_stream, session.raw_stream,
          options_.transform));
    }
  } else {
    session.view_stream = session.raw_stream;
  }

  if (options_.backend != RuntimeBackend::kLegacyPerQuery) {
    // Tap the session's view into the shared stream, stamped with the
    // session id. (Legacy sessions run their per-query operators on their
    // own view and never touch the shared stream.)
    EPL_RETURN_IF_ERROR(EnsureSessionStream());
    EPL_ASSIGN_OR_RETURN(
        session.tap,
        engine_->Deploy(session.view_stream,
                        std::make_unique<SessionMergeTap>(engine_, id)));
    // The session's identity predicate, compiled once as the group gate
    // all of the session's query specs share. The matcher enforces it on
    // every state (isolation) and skips the whole session group when an
    // event belongs to someone else (sub-linear in idle sessions). One
    // interval on the session field, disjoint from every other session's:
    // the shape the matcher resolves by key lookup.
    // (GestureRuntimeSessionTest.SessionGatesTakeTheKeyPath pins that.)
    cep::ExprPtr gate_expr = cep::Expr::RangePredicate(
        kSessionFieldName, static_cast<double>(id), 0.5);
    EPL_ASSIGN_OR_RETURN(stream::Schema schema,
                         engine_->GetSchema(kSessionStreamName));
    cep::PatternExprPtr pose =
        cep::PatternExpr::Pose(kSessionStreamName, std::move(gate_expr));
    EPL_ASSIGN_OR_RETURN(cep::CompiledPattern gate,
                         cep::CompiledPattern::Compile(*pose, schema));
    session.gate = std::make_shared<const cep::CompiledPattern>(
        std::move(gate));
  }
  sessions_.emplace(id, std::move(session));
  open_users_[user] = id;
  return id;
}

Status GestureRuntime::CloseSession(SessionId session) {
  if (session == kLocalSession) {
    return NotFoundError("unknown session " + std::to_string(session));
  }
  EPL_RETURN_IF_ERROR(ApplyOrDefer(&GestureRuntime::DoCloseSession, session));
  // Requested from a callback, the close is queued, but the session stops
  // accepting requests now: later deploys in the same callback fail with
  // NotFound. (Applied right away, the session is already gone.)
  auto it = sessions_.find(session);
  if (it != sessions_.end()) {
    it->second.open = false;
    open_users_.erase(it->second.name);
  }
  return OkStatus();
}

Status GestureRuntime::DoCloseSession(SessionId session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return NotFoundError("unknown session " + std::to_string(session));
  }
  durability::WalRecord record;
  record.type = durability::WalRecord::Type::kCloseSession;
  record.session = session;
  EPL_RETURN_IF_ERROR(LogRecord(record));
  {
    // The teardown's undeploys are implied by the kCloseSession record;
    // logging them individually would double-apply them on replay.
    suppress_wal_ = true;
    Status undeploys = OkStatus();
    for (const std::string& name : DeployedGestures(session)) {
      undeploys = DoUndeploy(session, name);
      if (!undeploys.ok()) {
        break;
      }
    }
    suppress_wal_ = false;
    EPL_RETURN_IF_ERROR(undeploys);
  }
  if (it->second.tap != 0) {
    EPL_RETURN_IF_ERROR(engine_->Undeploy(it->second.tap));
  }
  // Garbage-collect the session's namespaced streams so close -> reopen
  // leaves nothing behind in the engine. A stream that still has foreign
  // subscribers (e.g. a controller's recorder tap the caller owns) is
  // left registered -- the caller keeps responsibility for it.
  const std::string raw = it->second.raw_stream;
  const std::string view = it->second.view_stream;
  auto user = open_users_.find(it->second.name);
  if (user != open_users_.end() && user->second == session) {
    open_users_.erase(user);
  }
  sessions_.erase(it);
  ingested_.erase(session);
  bool view_removed = true;
  if (view != raw && engine_->HasStream(view)) {
    Status removed = engine_->UnregisterStream(view);
    if (removed.code() == StatusCode::kFailedPrecondition) {
      view_removed = false;
    } else {
      EPL_RETURN_IF_ERROR(removed);
    }
  }
  if (view_removed && engine_->HasStream(raw)) {
    Status removed = engine_->UnregisterStream(raw);
    if (removed.code() != StatusCode::kFailedPrecondition) {
      EPL_RETURN_IF_ERROR(removed);
    }
  }
  return OkStatus();
}

Result<std::string> GestureRuntime::SessionViewStream(SessionId session) const {
  if (session == kLocalSession) {
    return std::string(transform::kKinectTViewName);
  }
  EPL_ASSIGN_OR_RETURN(const Session* found, FindSession(session));
  return found->view_stream;
}

cep::ShardedEngine::EngineStats GestureRuntime::ShardedStats() const {
  cep::ShardedEngine::EngineStats total;
  for (const auto& [stream, channel] : channels_) {
    if (channel.sharded.engine == nullptr) {
      continue;
    }
    const cep::ShardedEngine::EngineStats stats =
        channel.sharded.engine->engine_stats();
    total.fanout_batches += stats.fanout_batches;
    total.fanout_subbatches += stats.fanout_subbatches;
    total.events_routed += stats.events_routed;
    total.events_skipped_by_filter += stats.events_skipped_by_filter;
    total.affinity_moves += stats.affinity_moves;
    total.worker_wakeups += stats.worker_wakeups;
  }
  return total;
}

size_t GestureRuntime::general_gate_groups() const {
  size_t groups = 0;
  for (const auto& [stream, channel] : channels_) {
    if (channel.fused.op != nullptr) {
      groups += channel.fused.op->matcher().general_gate_groups();
    }
    if (channel.sharded.engine != nullptr) {
      groups += channel.sharded.engine->general_gate_groups();
    }
  }
  return groups;
}

Result<GestureRuntime::Channel*> GestureRuntime::EnsureChannel(
    const std::string& stream) {
  auto it = channels_.find(stream);
  if (it != channels_.end()) {
    return &it->second;
  }
  Channel channel;
  if (options_.backend == RuntimeBackend::kFused) {
    EPL_ASSIGN_OR_RETURN(
        channel.fused,
        query::DeployFusedOperator(engine_, stream, options_.matcher,
                                   options_.batch_size));
  } else {
    cep::ShardedEngineOptions sharded;
    sharded.num_shards = options_.num_shards;
    sharded.batch_size = options_.batch_size;
    sharded.matcher = options_.matcher;
    sharded.placement = options_.shard_placement;
    if (options_.route_session_events && stream == kSessionStreamName) {
      // The merge tap appends the session id as the stream's last field;
      // routing on it lets the engine skip shards hosting no query for
      // that session (detections stay bit-identical either way).
      EPL_ASSIGN_OR_RETURN(stream::Schema schema, engine_->GetSchema(stream));
      EPL_ASSIGN_OR_RETURN(sharded.routing_field,
                           schema.FieldIndex(kSessionFieldName));
    }
    EPL_ASSIGN_OR_RETURN(
        channel.sharded,
        query::DeployShardedOperator(engine_, stream, sharded,
                                     options_.sync_detections));
  }
  return &channels_.emplace(stream, std::move(channel)).first->second;
}

Result<query::ParsedQuery> GestureRuntime::BuildQuery(
    const Session* session, const GestureDefinition& definition) const {
  if (session == nullptr) {
    return core::GenerateQuery(definition, options_.query);
  }
  // The caller's definition is what the WAL logs and replay deserializes,
  // so it must be valid as given, not only once scoped (an empty source
  // stream would be logged as text that does not deserialize).
  EPL_RETURN_IF_ERROR(definition.Validate());
  // Generated straight onto the session's stream: the query rescoping the
  // definition's own would give (PatternExpr::Rescope), without the clone.
  // The session's identity predicate is NOT conjoined into the poses: it
  // rides along as the query's gate, which the matcher enforces on every
  // state. Identical gestures deployed by different sessions therefore
  // share their pose predicates in the bank. (Legacy sessions run their
  // own per-query operators on their own view.)
  GestureDefinition scoped = definition;
  scoped.source_stream = options_.backend == RuntimeBackend::kLegacyPerQuery
                             ? session->view_stream
                             : std::string(kSessionStreamName);
  return core::GenerateQuery(scoped, options_.query);
}

Status GestureRuntime::Retire(const Gesture& gesture) {
  switch (options_.backend) {
    case RuntimeBackend::kLegacyPerQuery:
      return engine_->Undeploy(gesture.legacy_id);
    case RuntimeBackend::kFused: {
      auto channel = channels_.find(gesture.stream);
      if (channel == channels_.end()) {
        return InternalError("gesture channel vanished: " + gesture.stream);
      }
      return channel->second.fused.op->RemoveQuery(gesture.query_id);
    }
    case RuntimeBackend::kSharded: {
      auto channel = channels_.find(gesture.stream);
      if (channel == channels_.end()) {
        return InternalError("gesture channel vanished: " + gesture.stream);
      }
      return channel->second.sharded.engine->RemoveQuery(gesture.query_id);
    }
  }
  return InternalError("unknown backend");
}

Status GestureRuntime::Install(const GestureKey& key, Gesture gesture,
                               cep::MultiMatchOperator::QuerySpec spec,
                               const cep::NfaRunState& runs) {
  EPL_ASSIGN_OR_RETURN(Channel * channel, EnsureChannel(gesture.stream));
  auto existing = gestures_.find(key);
  if (existing != gestures_.end()) {
    EPL_RETURN_IF_ERROR(Retire(existing->second));
    // Releases the retired query's template; `gesture` already holds its
    // own, so a relearn of an identical definition keeps the template.
    gestures_.erase(existing);
    composites_.erase(key);
  }
  // A deploy is a restore from empty run state.
  Result<int> id =
      options_.backend == RuntimeBackend::kFused
          ? channel->fused.op->RestoreQuery(std::move(spec), runs)
          : channel->sharded.engine->RestoreQuery(std::move(spec), runs);
  EPL_RETURN_IF_ERROR(id.status());
  gesture.query_id = *id;
  if (gesture.level > 0) {
    composites_.insert(key);
  }
  gestures_.emplace(key, std::move(gesture));
  return OkStatus();
}

Result<GestureRuntime::TemplatePtr> GestureRuntime::AddTemplate(
    const query::ParsedQuery& parsed, Template tmpl) {
  EPL_ASSIGN_OR_RETURN(
      cep::MultiMatchOperator::QuerySpec compiled,
      query::CompileQuerySpec(engine_, parsed, nullptr, nullptr));
  tmpl.stream = parsed.pattern->SourceStream();
  tmpl.output_name = std::move(compiled.output_name);
  tmpl.pattern = std::move(compiled.pattern);
  tmpl.measures = std::move(compiled.measures);
  const bool keyed = tmpl.definition.has_value();
  const size_t hash =
      keyed ? core::HashDefinition(*tmpl.definition) ^ tmpl.session_scoped
            : 0;
  // The last binding's release takes the template out of the table.
  auto release = [this, keyed, hash](const Template* dead) {
    if (keyed) {
      auto it = templates_.find(hash);
      while (it->second != dead) {
        ++it;
      }
      templates_.erase(it);
    }
    --live_templates_;
    delete dead;
  };
  TemplatePtr made(new Template(std::move(tmpl)), release);
  if (keyed) {
    templates_.emplace(hash, made.get());
  }
  ++live_templates_;
  return made;
}

Result<GestureRuntime::TemplatePtr> GestureRuntime::FindOrCompileTemplate(
    const Session* session, const GestureDefinition& definition) {
  const bool scoped = session != nullptr;
  auto [it, end] =
      templates_.equal_range(core::HashDefinition(definition) ^ scoped);
  for (; it != end; ++it) {
    const Template& tmpl = *it->second;
    if (tmpl.session_scoped == scoped &&
        core::SameDefinition(*tmpl.definition, definition)) {
      return tmpl.shared_from_this();
    }
  }
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       BuildQuery(session, definition));
  Template tmpl;
  tmpl.definition = definition;
  tmpl.session_scoped = scoped;
  // Durable runtimes keep the query's canonical text (what a checkpoint
  // serializes) and the gesturedb-format definition (what a deploy's WAL
  // record carries and replay reapplies).
  if (durable()) {
    tmpl.query_text = query::FormatQuery(parsed);
    tmpl.definition_text = gesturedb::Serialize(definition);
  }
  return AddTemplate(parsed, std::move(tmpl));
}

Result<GestureRuntime::TemplatePtr> GestureRuntime::RestoreTemplate(
    const durability::TemplateState& state) {
  Result<query::ParsedQuery> parsed = query::ParseQuery(state.query_text);
  if (!parsed.ok()) {
    return DataLossError("snapshot template text does not parse: " +
                         parsed.status().ToString());
  }
  // Keyless: it binds the restored queries only. A later deploy of its
  // gesture compiles a template of its own from the definition, as the
  // same deploy on a fresh runtime would.
  Template tmpl;
  tmpl.query_text = state.query_text;
  return AddTemplate(*parsed, std::move(tmpl));
}

cep::MultiMatchOperator::QuerySpec GestureRuntime::BindTemplate(
    const Template& tmpl, const GestureKey& key, const Session* found,
    cep::DetectionCallback callback) {
  cep::MultiMatchOperator::QuerySpec spec;
  spec.output_name = tmpl.output_name;
  spec.pattern = tmpl.pattern;  // shares the compiled body
  spec.measures = tmpl.measures;
  spec.callback = Guard(std::move(callback));
  spec.gate = found != nullptr ? found->gate : nullptr;
  // The derived-event identity: composites deployed later match this
  // gesture's detections by these tags. Stamped on every base deploy
  // (they cost nothing without composites), so a composite can consume
  // any gesture that was live before it.
  spec.tag = cep::GestureTag(key.second);
  spec.session_tag = static_cast<double>(key.first);
  // A gated query only matches events whose session field equals
  // session_tag; telling the engine lets it route fan-out and co-locate
  // the session's queries.
  spec.session_scoped = found != nullptr;
  return spec;
}

Status GestureRuntime::DoDeploy(SessionId session,
                                const GestureDefinition& definition,
                                cep::DetectionCallback callback) {
  if (definition.name.empty()) {
    return InvalidArgumentError("gesture needs a name");
  }
  const Session* found = nullptr;
  if (session != kLocalSession) {
    // Not FindSession: a deploy queued ahead of its session's close was
    // validated when requested and still applies.
    auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      return NotFoundError("unknown session " + std::to_string(session));
    }
    found = &it->second;
  }
  const GestureKey key{session, definition.name};
  const bool log_deploy = durable() && !replaying_ && !suppress_wal_;

  // Atomic swap semantics: the retiring query is removed before the
  // replacement is added, both at the same event boundary, so the old
  // query sees every event up to that boundary and the new query exactly
  // the events after it.
  if (options_.backend == RuntimeBackend::kLegacyPerQuery) {
    EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                         BuildQuery(found, definition));
    EPL_ASSIGN_OR_RETURN(
        stream::DeploymentId id,
        query::DeployQuery(engine_, parsed, Guard(std::move(callback)),
                           options_.matcher));
    auto existing = gestures_.find(key);
    if (existing != gestures_.end()) {
      EPL_RETURN_IF_ERROR(Retire(existing->second));
    }
    Gesture gesture;
    gesture.stream = parsed.pattern->SourceStream();
    gesture.legacy_id = id;
    gestures_[key] = std::move(gesture);
    return OkStatus();
  }

  // Compile (on a template miss) before touching the channel, so a bad
  // query cannot leave an empty operator (or running shard workers)
  // deployed behind an error.
  EPL_ASSIGN_OR_RETURN(TemplatePtr tmpl,
                       FindOrCompileTemplate(found, definition));
  cep::MultiMatchOperator::QuerySpec spec =
      BindTemplate(*tmpl, key, found, std::move(callback));
  Gesture gesture;
  gesture.stream = tmpl->stream;
  gesture.tmpl = tmpl;
  EPL_RETURN_IF_ERROR(
      Install(key, std::move(gesture), std::move(spec), cep::NfaRunState()));
  if (log_deploy) {
    // Logged with its gesturedb-format definition, what replay reapplies.
    durability::WalRecord record;
    record.type = durability::WalRecord::Type::kDeploy;
    record.session = session;
    record.name = definition.name;
    record.definition = tmpl->definition_text;
    EPL_RETURN_IF_ERROR(LogRecord(record));
  }
  return OkStatus();
}

Status GestureRuntime::Deploy(SessionId session,
                              const GestureDefinition& definition,
                              cep::DetectionCallback callback) {
  return ApplyOrDefer(&GestureRuntime::DoDeploy, session, definition,
                      std::move(callback));
}

Status GestureRuntime::EnsureDetectionStream() {
  if (engine_->HasStream(cep::kDetectionStreamName)) {
    return OkStatus();
  }
  stream::Schema schema = cep::DetectionSchema();
  return engine_->RegisterStream(cep::kDetectionStreamName,
                                 std::move(schema));
}

Status GestureRuntime::CheckNotConsumed(SessionId session,
                                        const std::string& name) const {
  // Only composites consume; most runtimes have none, and then this is
  // free however many gestures are deployed.
  for (const GestureKey& key : composites_) {
    if (key.first == session && key.second == name) {
      continue;
    }
    for (const CompositeStep& step : gestures_.at(key).composite.steps) {
      if (step.gesture == name &&
          (step.session == kAnySession || step.session == session)) {
        return FailedPreconditionError(
            "gesture '" + name + "' is consumed by composite '" + key.second +
            "'");
      }
    }
  }
  return OkStatus();
}

Status GestureRuntime::DoDeployComposite(SessionId session,
                                         const CompositeDefinition& definition,
                                         cep::DetectionCallback callback) {
  if (options_.backend == RuntimeBackend::kLegacyPerQuery) {
    return FailedPreconditionError(
        "composite gestures require the fused or sharded backend");
  }
  EPL_RETURN_IF_ERROR(ValidateComposite(definition));
  if (session != kLocalSession && sessions_.count(session) == 0) {
    return NotFoundError("unknown session " + std::to_string(session));
  }
  // A live composite consuming this name would gain an edge to a STRICTLY
  // NEWER query -- the one shape the old-to-new deploy order cannot level
  // -- so it is the one shape rejected. (Re-deploying a consumed BASE
  // gesture stays legal: its tag is a pure function of the name, so the
  // consumer keeps matching across the hot-swap.)
  EPL_RETURN_IF_ERROR(CheckNotConsumed(session, definition.name));

  // Resolve the inputs: every step needs at least one live match, and all
  // inputs must feed one channel (their epochs are per-channel).
  int max_level = 0;
  std::string stream;
  for (const CompositeStep& step : definition.steps) {
    int found = 0;
    for (const auto& [key, gesture] : gestures_) {
      if (key.second != step.gesture ||
          (step.session != kAnySession && key.first != step.session)) {
        continue;
      }
      ++found;
      max_level = std::max(max_level, gesture.level);
      if (stream.empty()) {
        stream = gesture.stream;
      } else if (stream != gesture.stream) {
        return InvalidArgumentError(
            "composite '" + definition.name + "' inputs span source streams " +
            stream + " and " + gesture.stream);
      }
    }
    if (found == 0) {
      return NotFoundError("composite input not deployed: " + step.gesture);
    }
  }
  const int level = max_level + 1;

  EPL_RETURN_IF_ERROR(EnsureDetectionStream());
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       BuildCompositeQuery(definition));
  durability::WalRecord record;
  const bool log_deploy = durable() && !replaying_ && !suppress_wal_;
  if (log_deploy) {
    record.type = durability::WalRecord::Type::kDeployComposite;
    record.session = session;
    record.name = definition.name;
    record.definition = SerializeComposite(definition);
  }
  EPL_ASSIGN_OR_RETURN(
      cep::MultiMatchOperator::QuerySpec spec,
      query::CompileQuerySpec(engine_, parsed, Guard(std::move(callback)),
                              nullptr));
  spec.level = level;
  spec.tag = cep::GestureTag(definition.name);
  spec.session_tag = static_cast<double>(session);
  Gesture gesture;
  gesture.stream = stream;
  gesture.level = level;
  gesture.composite = definition;
  const GestureKey key{session, definition.name};
  EPL_RETURN_IF_ERROR(
      Install(key, std::move(gesture), std::move(spec), cep::NfaRunState()));
  if (log_deploy) {
    EPL_RETURN_IF_ERROR(LogRecord(record));
  }
  return OkStatus();
}

Status GestureRuntime::DeployComposite(SessionId session,
                                       const CompositeDefinition& definition,
                                       cep::DetectionCallback callback) {
  return ApplyOrDefer(&GestureRuntime::DoDeployComposite, session, definition,
                      std::move(callback));
}

Status GestureRuntime::DoUndeploy(SessionId session, const std::string& name) {
  auto it = gestures_.find(GestureKey{session, name});
  if (it == gestures_.end()) {
    return NotFoundError("gesture not deployed: " + name);
  }
  // CloseSession teardown (suppress_wal_) dismantles the whole session at
  // once; its composites and their intra-session inputs go down together,
  // so the consumed-input guard only applies to direct undeploys.
  if (!suppress_wal_) {
    EPL_RETURN_IF_ERROR(CheckNotConsumed(session, name));
  }
  Gesture gesture = std::move(it->second);
  gestures_.erase(it);
  composites_.erase(GestureKey{session, name});
  EPL_RETURN_IF_ERROR(Retire(gesture));
  durability::WalRecord record;
  record.type = durability::WalRecord::Type::kUndeploy;
  record.session = session;
  record.name = name;
  return LogRecord(record);
}

Status GestureRuntime::Undeploy(SessionId session, const std::string& name) {
  return ApplyOrDefer(&GestureRuntime::DoUndeploy, session, name);
}

bool GestureRuntime::IsDeployed(SessionId session,
                                const std::string& name) const {
  return gestures_.count(GestureKey{session, name}) > 0;
}

std::vector<std::string> GestureRuntime::DeployedGestures(
    SessionId session) const {
  std::vector<std::string> names;
  // The session's keys are one contiguous range of the map, sorted by name.
  for (auto it = gestures_.lower_bound(GestureKey{session, std::string()});
       it != gestures_.end() && it->first.first == session; ++it) {
    names.push_back(it->first.second);
  }
  return names;
}

Result<int> GestureRuntime::LoadStore(SessionId session,
                                      const gesturedb::GestureStore& store,
                                      cep::DetectionCallback callback) {
  if (in_dispatch()) {
    return FailedPreconditionError(
        "LoadStore from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(EnsureWal());
  Pump();
  EPL_ASSIGN_OR_RETURN(std::vector<std::string> names, store.List());
  int loaded = 0;
  Status first_error = OkStatus();
  for (const std::string& name : names) {
    if (IsReservedGestureName(name)) {
      // A stored "__control_wave" must not hot-swap a live control query.
      continue;
    }
    Result<GestureDefinition> definition = store.Get(name);
    if (!definition.ok()) {
      // One corrupt record must not take down the whole boot load: the
      // parseable gestures still deploy, and the first bad record's error
      // (which names the offending file) is reported after the sweep.
      if (first_error.ok()) {
        first_error = definition.status();
      }
      continue;
    }
    EPL_RETURN_IF_ERROR(DoDeploy(session, *definition, callback));
    ++loaded;
  }
  EPL_RETURN_IF_ERROR(first_error);
  return loaded;
}

Status GestureRuntime::PushFrame(SessionId session,
                                 const SkeletonFrame& frame) {
  if (in_dispatch()) {
    return FailedPreconditionError(
        "PushFrame from inside a detection callback");
  }
  Pump();
  const std::string* stream = nullptr;
  static const std::string kLocalStream = "kinect";
  if (session == kLocalSession) {
    stream = &kLocalStream;
  } else {
    EPL_ASSIGN_OR_RETURN(const Session* found, FindSession(session));
    stream = &found->raw_stream;
  }
  // The runtime's one frame record: its event is refilled in place, so a
  // steady stream of frames allocates nothing here.
  kinect::FrameToEvent(frame, &frame_record_.event);
  if (!durable()) {
    return engine_->Push(*stream, frame_record_.event);
  }
  // Write-ahead: the raw frame event is durable before the engine sees it,
  // so anything logged WILL be reflected after recovery, and a frame whose
  // PushFrame never returned OK is the producer's to retry.
  frame_record_.session = session;
  EPL_RETURN_IF_ERROR(EnsureWal());
  EPL_RETURN_IF_ERROR(LogRecord(frame_record_));
  ++ingested_[session];
  return engine_->Push(*stream, frame_record_.event);
}

Status GestureRuntime::PushFrames(SessionId session,
                                  const std::vector<SkeletonFrame>& frames) {
  for (const SkeletonFrame& frame : frames) {
    EPL_RETURN_IF_ERROR(PushFrame(session, frame));
  }
  return OkStatus();
}

Status GestureRuntime::Flush() {
  if (in_dispatch()) {
    return FailedPreconditionError("Flush from inside a detection callback");
  }
  Pump();
  for (auto& [stream, channel] : channels_) {
    (void)stream;
    if (options_.backend == RuntimeBackend::kFused) {
      channel.fused.op->FlushBatchedEvents();
    } else if (options_.backend == RuntimeBackend::kSharded &&
               channel.sharded.engine->running()) {
      EPL_RETURN_IF_ERROR(channel.sharded.engine->Flush());
    }
  }
  // Flushed detections may have requested further mutations.
  Pump();
  // Everything ingested so far must survive a process crash once Flush
  // returns: drain the WAL batch buffer into the page cache.
  if (wal_ != nullptr) {
    EPL_RETURN_IF_ERROR(wal_->FlushBuffered());
  }
  return std::exchange(deferred_error_, OkStatus());
}

Status GestureRuntime::ResizeShards(int num_shards) {
  if (options_.backend != RuntimeBackend::kSharded) {
    return FailedPreconditionError("ResizeShards requires the sharded backend");
  }
  if (in_dispatch()) {
    return FailedPreconditionError(
        "ResizeShards from inside a detection callback");
  }
  Pump();
  for (auto& [stream, channel] : channels_) {
    (void)stream;
    EPL_RETURN_IF_ERROR(channel.sharded.engine->Resize(num_shards));
  }
  // Channels created from here on start at the new size too.
  options_.num_shards = std::max(1, num_shards);
  return OkStatus();
}

Status GestureRuntime::Checkpoint() {
  if (!durable()) {
    return FailedPreconditionError(
        "Checkpoint on a runtime without a durability dir");
  }
  if (in_dispatch()) {
    return FailedPreconditionError(
        "Checkpoint from inside a detection callback");
  }
  EPL_RETURN_IF_ERROR(EnsureWal());
  // Quiesce to a consistent cut: deferred mutations applied, batched
  // windows swept, sharded workers drained. Every event with seq <
  // next_seq() is now fully reflected in the matchers' run state.
  EPL_RETURN_IF_ERROR(Flush());

  durability::Snapshot snapshot;
  snapshot.wal_seq = wal_->next_seq();
  snapshot.next_session_id = next_session_id_;
  if (ingested_.count(kLocalSession) > 0) {
    durability::SessionState local;
    local.id = kLocalSession;
    local.ingested_events = ingested_.at(kLocalSession);
    snapshot.sessions.push_back(std::move(local));
  }
  for (const auto& [id, session] : sessions_) {
    if (!session.open) {
      continue;
    }
    durability::SessionState state;
    state.id = id;
    state.user = session.name;
    state.ingested_events = ingested_events(id);
    snapshot.sessions.push_back(std::move(state));
  }

  // Per channel, queries serialize in stable-id order: restoration assigns
  // fresh ids in that order, preserving the relative order the sharded
  // merge sorts detections by ((event_seq, query_id)).
  // Each template is written once, however many queries bind it.
  std::map<std::string, std::map<int, durability::QueryState>> per_channel;
  std::unordered_map<const Template*, int> template_index;
  for (const auto& [key, gesture] : gestures_) {
    durability::QueryState state;
    state.session = key.first;
    state.name = key.second;
    state.level = gesture.level;
    if (gesture.level == 0) {
      auto [it, added] = template_index.emplace(
          gesture.tmpl.get(), static_cast<int>(snapshot.templates.size()));
      if (added) {
        snapshot.templates.push_back({gesture.tmpl->query_text});
      }
      state.template_index = it->second;
    } else {
      // Composites serialize their definition (tags round-trip exactly)
      // plus the channel stream, which restore cannot re-derive: the
      // inputs' own restore order must not matter.
      state.stream = gesture.stream;
      state.definition = SerializeComposite(gesture.composite);
    }
    per_channel[gesture.stream].emplace(gesture.query_id, std::move(state));
  }
  for (auto& [stream, queries] : per_channel) {
    auto channel = channels_.find(stream);
    if (channel == channels_.end()) {
      return InternalError("gesture channel vanished: " + stream);
    }
    if (options_.backend == RuntimeBackend::kFused) {
      for (auto& [id, state] : queries) {
        EPL_ASSIGN_OR_RETURN(
            state.runs, channel->second.fused.op->ExportQueryRunState(id));
      }
    } else {
      EPL_ASSIGN_OR_RETURN(auto states,
                           channel->second.sharded.engine->ExportRunStates());
      std::map<int, cep::NfaRunState*> by_id;
      for (auto& [id, runs] : states) {
        by_id[id] = &runs;
      }
      for (auto& [id, state] : queries) {
        auto it = by_id.find(id);
        if (it == by_id.end()) {
          return InternalError("query " + std::to_string(id) +
                               " missing from sharded export");
        }
        state.runs = std::move(*it->second);
      }
    }
    for (auto& [id, state] : queries) {
      (void)id;
      snapshot.queries.push_back(std::move(state));
    }
  }

  // Rotate first so every segment is wholly before or after the cut, then
  // make the snapshot durable, then prune what it covers. A crash between
  // any two steps leaves a recoverable directory: worst case some stale
  // segments/snapshots survive until the next checkpoint.
  EPL_RETURN_IF_ERROR(wal_->RotateSegment());
  EPL_RETURN_IF_ERROR(
      durability::WriteSnapshot(fs_, options_.durability.dir, snapshot));
  EPL_RETURN_IF_ERROR(durability::RemoveStaleSnapshots(
      fs_, options_.durability.dir, snapshot.wal_seq));
  return wal_->DropSegmentsBelow(snapshot.wal_seq);
}

Status GestureRuntime::RestoreQuery(
    const durability::QueryState& state,
    const std::vector<durability::TemplateState>& templates,
    std::vector<TemplatePtr>* restored,
    const DetectionCallbackFactory& factory) {
  cep::DetectionCallback callback =
      factory ? factory(state.session, state.name) : nullptr;
  const GestureKey key{state.session, state.name};
  Gesture gesture;
  gesture.level = state.level;
  cep::MultiMatchOperator::QuerySpec spec;
  if (state.level > 0) {
    // A composite restores from its serialized definition and recorded
    // channel; its inputs' liveness was proven at original deploy time
    // and their run state restores from the same snapshot.
    EPL_ASSIGN_OR_RETURN(gesture.composite, ParseComposite(state.definition));
    EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                         BuildCompositeQuery(gesture.composite));
    EPL_RETURN_IF_ERROR(EnsureDetectionStream());
    gesture.stream = state.stream;
    EPL_ASSIGN_OR_RETURN(
        spec, query::CompileQuerySpec(engine_, parsed,
                                      Guard(std::move(callback)), nullptr));
    // Restore the derived-event identity too: composites recovered from
    // the same snapshot (and WAL replay) keep re-deriving from this query.
    spec.level = state.level;
    spec.tag = cep::GestureTag(state.name);
    spec.session_tag = static_cast<double>(state.session);
  } else {
    const Session* found = nullptr;
    if (state.session != kLocalSession) {
      EPL_ASSIGN_OR_RETURN(found, FindSession(state.session));
    }
    if (state.template_index < 0 ||
        static_cast<size_t>(state.template_index) >= templates.size()) {
      return DataLossError("query binds missing template " +
                           std::to_string(state.template_index));
    }
    TemplatePtr& tmpl = (*restored)[static_cast<size_t>(state.template_index)];
    if (tmpl == nullptr) {
      EPL_ASSIGN_OR_RETURN(tmpl, RestoreTemplate(templates[static_cast<size_t>(
                                     state.template_index)]));
    }
    spec = BindTemplate(*tmpl, key, found, std::move(callback));
    gesture.stream = tmpl->stream;
    gesture.tmpl = tmpl;
  }
  return Install(key, std::move(gesture), std::move(spec), state.runs);
}

Status GestureRuntime::ApplyWalRecord(const durability::WalRecord& record,
                                      const DetectionCallbackFactory& factory) {
  using Type = durability::WalRecord::Type;
  switch (record.type) {
    case Type::kEvent: {
      // Mirrors PushFrame: deferred mutations from earlier replayed
      // detections apply at this event boundary, exactly as live.
      Pump();
      ++ingested_[record.session];
      if (record.session == kLocalSession) {
        return engine_->Push("kinect", record.event);
      }
      EPL_ASSIGN_OR_RETURN(const Session* found, FindSession(record.session));
      return engine_->Push(found->raw_stream, record.event);
    }
    case Type::kOpenSession: {
      EPL_ASSIGN_OR_RETURN(SessionId id,
                           DoOpenSession(record.name, record.session));
      (void)id;
      return OkStatus();
    }
    case Type::kCloseSession:
      return CloseSession(record.session);
    case Type::kDeploy: {
      EPL_ASSIGN_OR_RETURN(core::GestureDefinition definition,
                           gesturedb::Deserialize(record.definition));
      return DoDeploy(record.session, definition,
                      factory ? factory(record.session, definition.name)
                              : nullptr);
    }
    case Type::kUndeploy:
      return DoUndeploy(record.session, record.name);
    case Type::kDeployComposite: {
      EPL_ASSIGN_OR_RETURN(CompositeDefinition definition,
                           ParseComposite(record.definition));
      return DoDeployComposite(record.session, definition,
                               factory
                                   ? factory(record.session, definition.name)
                                   : nullptr);
    }
  }
  return InternalError("unknown WAL record type");
}

Result<std::unique_ptr<GestureRuntime>> GestureRuntime::Recover(
    stream::StreamEngine* engine, GestureRuntimeOptions options,
    const DetectionCallbackFactory& factory, RecoverStats* stats) {
  if (options.durability.dir.empty()) {
    return InvalidArgumentError("Recover needs options.durability.dir");
  }
  auto runtime =
      std::make_unique<GestureRuntime>(engine, std::move(options));
  // Opens the WAL (creating the dir, truncating a torn tail) before the
  // snapshot is read, so both views of the directory are post-crash.
  EPL_RETURN_IF_ERROR(runtime->EnsureWal());

  durability::Snapshot snapshot;
  Result<durability::Snapshot> loaded = durability::ReadLatestSnapshot(
      runtime->fs_, runtime->options_.durability.dir);
  if (loaded.ok()) {
    snapshot = std::move(loaded).value();
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }

  runtime->replaying_ = true;
  runtime->next_session_id_ = snapshot.next_session_id;
  for (const durability::SessionState& session : snapshot.sessions) {
    runtime->ingested_[session.id] = session.ingested_events;
    if (session.id == kLocalSession) {
      continue;
    }
    EPL_ASSIGN_OR_RETURN(SessionId id,
                         runtime->DoOpenSession(session.user, session.id));
    (void)id;
  }
  // Each template compiles once, when its first query is restored.
  std::vector<TemplatePtr> restored(snapshot.templates.size());
  for (const durability::QueryState& query : snapshot.queries) {
    EPL_RETURN_IF_ERROR(
        runtime->RestoreQuery(query, snapshot.templates, &restored, factory)
            .WithContext("restoring query " + query.name));
  }

  uint64_t replayed = 0;
  EPL_RETURN_IF_ERROR(runtime->wal_->Replay(
      snapshot.wal_seq,
      [&](uint64_t seq, std::string_view payload) -> Status {
        EPL_ASSIGN_OR_RETURN(durability::WalRecord record,
                             durability::DecodeWalRecord(payload));
        ++replayed;
        return runtime->ApplyWalRecord(record, factory)
            .WithContext("replaying WAL record " + std::to_string(seq));
      }));
  runtime->replaying_ = false;

  if (stats != nullptr) {
    stats->snapshot_seq = snapshot.wal_seq;
    stats->replayed_records = replayed;
    stats->ingested = runtime->ingested_;
  }
  return runtime;
}

}  // namespace epl::workflow
