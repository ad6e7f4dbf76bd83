#include "durability/snapshot.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "durability/crash_point.h"

namespace epl::durability {

namespace {

constexpr char kMagic[] = "EPLSNAP1";  // 8 bytes, versioned
// Version 2 added QueryState::{level, stream, definition} (composite
// gestures); version 3 moved the query text into a template table that
// base query rows index (see snapshot.h). Versions 1 and 2 still decode.
constexpr uint32_t kVersion = 3;
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".snap";
constexpr char kTmpSuffix[] = ".tmp";

std::string SnapshotName(uint64_t wal_seq) {
  std::string digits = std::to_string(wal_seq);
  return kSnapshotPrefix + std::string(20 - digits.size(), '0') + digits +
         kSnapshotSuffix;
}

bool ParseSnapshotName(const std::string& name, uint64_t* wal_seq) {
  const size_t prefix = sizeof(kSnapshotPrefix) - 1;
  const size_t suffix = sizeof(kSnapshotSuffix) - 1;
  if (name.size() <= prefix + suffix ||
      name.compare(0, prefix, kSnapshotPrefix) != 0 ||
      name.compare(name.size() - suffix, suffix, kSnapshotSuffix) != 0) {
    return false;
  }
  *wal_seq = std::strtoull(name.c_str() + prefix, nullptr, 10);
  return true;
}

void EncodeEvent(const stream::Event& event, ByteWriter* out) {
  out->PutI64(event.timestamp);
  out->PutU64(event.values.size());
  out->PutDoubles(event.values.data(), event.values.size());
}

Result<stream::Event> DecodeEvent(ByteReader* in) {
  stream::Event event;
  EPL_ASSIGN_OR_RETURN(event.timestamp, in->ReadI64());
  EPL_ASSIGN_OR_RETURN(uint64_t count, in->ReadU64());
  if (count > in->remaining() / 8) {
    return DataLossError("event value count " + std::to_string(count) +
                         " exceeds the remaining input");
  }
  event.values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    EPL_ASSIGN_OR_RETURN(double v, in->ReadDouble());
    event.values.push_back(v);
  }
  return event;
}

void EncodeSnapshotBody(const Snapshot& snapshot, ByteWriter* out) {
  out->PutU64(snapshot.wal_seq);
  out->PutI64(snapshot.next_session_id);
  out->PutU64(snapshot.sessions.size());
  for (const SessionState& session : snapshot.sessions) {
    out->PutI64(session.id);
    out->PutString(session.user);
    out->PutU64(session.ingested_events);
  }
  out->PutU64(snapshot.templates.size());
  for (const TemplateState& state : snapshot.templates) {
    out->PutString(state.query_text);
  }
  out->PutU64(snapshot.queries.size());
  for (const QueryState& query : snapshot.queries) {
    out->PutI64(query.session);
    out->PutString(query.name);
    out->PutI64(query.level);
    if (query.level == 0) {
      out->PutU64(static_cast<uint64_t>(query.template_index));
    } else {
      out->PutString(query.stream);
      out->PutString(query.definition);
    }
    EncodeRunState(query.runs, out);
  }
}

/// Decodes a version 1 or 2 query row, whose base queries carry their
/// query text inline: rows with the same text share one template.
Status DecodeInlineTextQuery(ByteReader* in, uint32_t version,
                             std::map<std::string, int>* template_of_text,
                             Snapshot* snapshot, QueryState* query) {
  EPL_ASSIGN_OR_RETURN(std::string query_text, in->ReadString());
  if (version >= 2) {
    EPL_ASSIGN_OR_RETURN(int64_t level, in->ReadI64());
    query->level = static_cast<int>(level);
    EPL_ASSIGN_OR_RETURN(query->stream, in->ReadString());
    EPL_ASSIGN_OR_RETURN(query->definition, in->ReadString());
  }
  if (query->level == 0) {
    auto [it, inserted] = template_of_text->emplace(
        query_text, static_cast<int>(snapshot->templates.size()));
    if (inserted) {
      TemplateState state;
      state.query_text = std::move(query_text);
      snapshot->templates.push_back(std::move(state));
    }
    query->template_index = it->second;
  }
  return OkStatus();
}

Result<Snapshot> DecodeSnapshotBody(std::string_view body, uint32_t version) {
  ByteReader in(body);
  Snapshot snapshot;
  EPL_ASSIGN_OR_RETURN(snapshot.wal_seq, in.ReadU64());
  EPL_ASSIGN_OR_RETURN(int64_t next_id, in.ReadI64());
  snapshot.next_session_id = static_cast<int>(next_id);
  EPL_ASSIGN_OR_RETURN(uint64_t num_sessions, in.ReadU64());
  for (uint64_t i = 0; i < num_sessions; ++i) {
    SessionState session;
    EPL_ASSIGN_OR_RETURN(int64_t id, in.ReadI64());
    session.id = static_cast<int>(id);
    EPL_ASSIGN_OR_RETURN(session.user, in.ReadString());
    EPL_ASSIGN_OR_RETURN(session.ingested_events, in.ReadU64());
    snapshot.sessions.push_back(std::move(session));
  }
  if (version >= 3) {
    EPL_ASSIGN_OR_RETURN(uint64_t num_templates, in.ReadU64());
    // Each template takes at least its 8-byte string length.
    if (num_templates > in.remaining() / 8) {
      return DataLossError("template count " + std::to_string(num_templates) +
                           " exceeds the remaining input");
    }
    for (uint64_t i = 0; i < num_templates; ++i) {
      TemplateState state;
      EPL_ASSIGN_OR_RETURN(state.query_text, in.ReadString());
      snapshot.templates.push_back(std::move(state));
    }
  }
  std::map<std::string, int> template_of_text;  // versions 1 and 2
  EPL_ASSIGN_OR_RETURN(uint64_t num_queries, in.ReadU64());
  for (uint64_t i = 0; i < num_queries; ++i) {
    QueryState query;
    EPL_ASSIGN_OR_RETURN(int64_t session, in.ReadI64());
    query.session = static_cast<int>(session);
    EPL_ASSIGN_OR_RETURN(query.name, in.ReadString());
    if (version >= 3) {
      EPL_ASSIGN_OR_RETURN(int64_t level, in.ReadI64());
      query.level = static_cast<int>(level);
      if (query.level == 0) {
        EPL_ASSIGN_OR_RETURN(uint64_t index, in.ReadU64());
        if (index >= snapshot.templates.size()) {
          return DataLossError("query '" + query.name + "' binds template " +
                               std::to_string(index) + " of " +
                               std::to_string(snapshot.templates.size()));
        }
        query.template_index = static_cast<int>(index);
      } else {
        EPL_ASSIGN_OR_RETURN(query.stream, in.ReadString());
        EPL_ASSIGN_OR_RETURN(query.definition, in.ReadString());
      }
    } else {
      EPL_RETURN_IF_ERROR(DecodeInlineTextQuery(
          &in, version, &template_of_text, &snapshot, &query));
    }
    if (query.level < 0) {
      return DataLossError("query '" + query.name + "' has negative level " +
                           std::to_string(query.level));
    }
    EPL_ASSIGN_OR_RETURN(query.runs, DecodeRunState(&in));
    snapshot.queries.push_back(std::move(query));
  }
  if (!in.done()) {
    return DataLossError("snapshot body carries " +
                         std::to_string(in.remaining()) +
                         " trailing bytes");
  }
  return snapshot;
}

}  // namespace

void EncodeWalRecord(const WalRecord& record, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(record.type));
  out->PutI64(record.session);
  switch (record.type) {
    case WalRecord::Type::kEvent:
      EncodeEvent(record.event, out);
      break;
    case WalRecord::Type::kOpenSession:
    case WalRecord::Type::kUndeploy:
      out->PutString(record.name);
      break;
    case WalRecord::Type::kCloseSession:
      break;
    case WalRecord::Type::kDeploy:
    case WalRecord::Type::kDeployComposite:
      out->PutString(record.name);
      out->PutString(record.definition);
      break;
  }
}

std::string EncodeWalRecord(const WalRecord& record) {
  ByteWriter out;
  EncodeWalRecord(record, &out);
  return out.Take();
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  ByteReader in(payload);
  WalRecord record;
  EPL_ASSIGN_OR_RETURN(uint8_t type, in.ReadU8());
  if (type < static_cast<uint8_t>(WalRecord::Type::kEvent) ||
      type > static_cast<uint8_t>(WalRecord::Type::kDeployComposite)) {
    return DataLossError("unknown WAL record type " + std::to_string(type));
  }
  record.type = static_cast<WalRecord::Type>(type);
  EPL_ASSIGN_OR_RETURN(int64_t session, in.ReadI64());
  record.session = static_cast<int>(session);
  switch (record.type) {
    case WalRecord::Type::kEvent: {
      EPL_ASSIGN_OR_RETURN(record.event, DecodeEvent(&in));
      break;
    }
    case WalRecord::Type::kOpenSession:
    case WalRecord::Type::kUndeploy: {
      EPL_ASSIGN_OR_RETURN(record.name, in.ReadString());
      break;
    }
    case WalRecord::Type::kCloseSession:
      break;
    case WalRecord::Type::kDeploy:
    case WalRecord::Type::kDeployComposite: {
      EPL_ASSIGN_OR_RETURN(record.name, in.ReadString());
      EPL_ASSIGN_OR_RETURN(record.definition, in.ReadString());
      break;
    }
  }
  if (!in.done()) {
    return DataLossError("WAL record carries " +
                         std::to_string(in.remaining()) + " trailing bytes");
  }
  return record;
}

void EncodeRunState(const cep::NfaRunState& state, ByteWriter* out) {
  out->PutU64(state.runs.size());
  for (const cep::NfaRunState::Run& run : state.runs) {
    out->PutI64(run.state);
    out->PutU64(run.times.size());
    for (const TimePoint t : run.times) {
      out->PutI64(t);
    }
  }
  out->PutU64(state.stats.events);
  out->PutU64(state.stats.predicate_evaluations);
  out->PutU64(state.stats.predicate_cache_hits);
  out->PutU64(state.stats.matches);
  out->PutU64(state.stats.dropped_runs);
  out->PutU64(state.stats.peak_runs);
}

Result<cep::NfaRunState> DecodeRunState(ByteReader* in) {
  cep::NfaRunState state;
  EPL_ASSIGN_OR_RETURN(uint64_t num_runs, in->ReadU64());
  if (num_runs > in->remaining() / 16) {
    return DataLossError("run count " + std::to_string(num_runs) +
                         " exceeds the remaining input");
  }
  for (uint64_t i = 0; i < num_runs; ++i) {
    cep::NfaRunState::Run run;
    EPL_ASSIGN_OR_RETURN(int64_t run_state, in->ReadI64());
    run.state = static_cast<int>(run_state);
    EPL_ASSIGN_OR_RETURN(uint64_t num_times, in->ReadU64());
    if (num_times > in->remaining() / 8) {
      return DataLossError("run time count " + std::to_string(num_times) +
                           " exceeds the remaining input");
    }
    run.times.reserve(num_times);
    for (uint64_t k = 0; k < num_times; ++k) {
      EPL_ASSIGN_OR_RETURN(TimePoint t, in->ReadI64());
      run.times.push_back(t);
    }
    state.runs.push_back(std::move(run));
  }
  EPL_ASSIGN_OR_RETURN(state.stats.events, in->ReadU64());
  EPL_ASSIGN_OR_RETURN(state.stats.predicate_evaluations, in->ReadU64());
  EPL_ASSIGN_OR_RETURN(state.stats.predicate_cache_hits, in->ReadU64());
  EPL_ASSIGN_OR_RETURN(state.stats.matches, in->ReadU64());
  EPL_ASSIGN_OR_RETURN(state.stats.dropped_runs, in->ReadU64());
  EPL_ASSIGN_OR_RETURN(uint64_t peak, in->ReadU64());
  state.stats.peak_runs = static_cast<size_t>(peak);
  return state;
}

Status WriteSnapshot(FileSystem* fs, const std::string& dir,
                     const Snapshot& snapshot) {
  ByteWriter body;
  EncodeSnapshotBody(snapshot, &body);

  ByteWriter header;
  header.PutU32(kVersion);
  header.PutU32(static_cast<uint32_t>(body.str().size()));
  header.PutU32(Crc32c(body.str()));

  const std::string name = SnapshotName(snapshot.wal_seq);
  const std::string tmp_path = dir + "/" + name + kTmpSuffix;
  const std::string final_path = dir + "/" + name;

  EPL_ASSIGN_OR_RETURN(std::unique_ptr<File> file, fs->OpenAppend(tmp_path));
  EPL_RETURN_IF_ERROR(file->Append(kMagic));
  EPL_RETURN_IF_ERROR(file->Append(header.str()));
  EPL_CRASH_POINT("snapshot_mid_write");
  EPL_RETURN_IF_ERROR(file->Append(body.str()));
  EPL_RETURN_IF_ERROR(file->Sync());
  EPL_RETURN_IF_ERROR(file->Close());
  EPL_CRASH_POINT("snapshot_pre_rename");
  EPL_RETURN_IF_ERROR(fs->Rename(tmp_path, final_path));
  EPL_RETURN_IF_ERROR(fs->SyncDir(dir));
  EPL_CRASH_POINT("snapshot_post_rename");
  return OkStatus();
}

Result<Snapshot> ReadLatestSnapshot(FileSystem* fs, const std::string& dir) {
  EPL_ASSIGN_OR_RETURN(std::vector<std::string> names, fs->ListDir(dir));
  // Fixed-width names: ascending listing order is ascending wal_seq.
  Status last_error = NotFoundError("no snapshot in " + dir);
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    uint64_t wal_seq = 0;
    if (!ParseSnapshotName(*it, &wal_seq)) {
      continue;
    }
    const std::string path = dir + "/" + *it;
    EPL_ASSIGN_OR_RETURN(std::string data, fs->ReadFile(path));
    auto parse = [&]() -> Result<Snapshot> {
      const size_t magic = sizeof(kMagic) - 1;
      if (data.size() < magic + 12 ||
          data.compare(0, magic, kMagic) != 0) {
        return DataLossError("bad snapshot magic");
      }
      ByteReader header(std::string_view(data).substr(magic, 12));
      EPL_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
      if (version < 1 || version > kVersion) {
        return DataLossError("unsupported snapshot version " +
                             std::to_string(version));
      }
      EPL_ASSIGN_OR_RETURN(uint32_t body_len, header.ReadU32());
      EPL_ASSIGN_OR_RETURN(uint32_t crc, header.ReadU32());
      const std::string_view body =
          std::string_view(data).substr(magic + 12);
      if (body.size() != body_len || Crc32c(body) != crc) {
        return DataLossError("snapshot body fails its CRC");
      }
      EPL_ASSIGN_OR_RETURN(Snapshot snapshot,
                           DecodeSnapshotBody(body, version));
      if (snapshot.wal_seq != wal_seq) {
        return DataLossError("snapshot name/body wal_seq mismatch");
      }
      return snapshot;
    };
    Result<Snapshot> snapshot = parse();
    if (snapshot.ok()) {
      return snapshot;
    }
    // A corrupt newer snapshot: remember why and fall back to the next
    // older one (the WAL is only truncated after a snapshot is durable,
    // so an older snapshot still has its full replay suffix).
    last_error = snapshot.status().WithContext(path);
  }
  return last_error;
}

Status RemoveStaleSnapshots(FileSystem* fs, const std::string& dir,
                            uint64_t keep_seq) {
  EPL_ASSIGN_OR_RETURN(std::vector<std::string> names, fs->ListDir(dir));
  for (const std::string& name : names) {
    const size_t tmp = sizeof(kTmpSuffix) - 1;
    const bool is_tmp =
        name.size() > tmp &&
        name.compare(name.size() - tmp, tmp, kTmpSuffix) == 0;
    uint64_t wal_seq = 0;
    if (is_tmp && name.compare(0, sizeof(kSnapshotPrefix) - 1,
                               kSnapshotPrefix) == 0) {
      EPL_RETURN_IF_ERROR(fs->Remove(dir + "/" + name));
      continue;
    }
    if (ParseSnapshotName(name, &wal_seq) && wal_seq < keep_seq) {
      EPL_RETURN_IF_ERROR(fs->Remove(dir + "/" + name));
    }
  }
  return OkStatus();
}

}  // namespace epl::durability
