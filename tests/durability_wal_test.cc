// Durability primitives: the framed event WAL (torn-tail truncation,
// rotation, pruning), the binary codec, the snapshot file format
// (atomicity, corruption fallback), and behavior under injected disk
// faults (short writes / ENOSPC through the FileSystem seam).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/codec.h"
#include "durability/event_log.h"
#include "durability/file.h"
#include "durability/snapshot.h"
#include "test_util.h"

namespace epl::durability {
namespace {

using epl::testing::ScopedTempDir;

// ---------------------------------------------------------------------------
// Fault injection through the FileSystem seam.

class FaultInjectingFileSystem;

/// Append-only file that commits only a budgeted byte prefix: the write
/// that exhausts the budget lands partially (a genuinely torn tail, like
/// ENOSPC mid-write) and fails.
class FaultFile : public File {
 public:
  FaultFile(std::unique_ptr<File> base, int64_t* budget)
      : base_(std::move(base)), budget_(budget) {}

  Status Append(std::string_view data) override {
    if (*budget_ >= 0) {
      if (static_cast<int64_t>(data.size()) > *budget_) {
        const size_t prefix = static_cast<size_t>(*budget_);
        *budget_ = 0;
        if (prefix > 0) {
          EPL_RETURN_IF_ERROR(base_->Append(data.substr(0, prefix)));
        }
        return ResourceExhaustedError("injected ENOSPC (short write)");
      }
      *budget_ -= static_cast<int64_t>(data.size());
    }
    return base_->Append(data);
  }

  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<File> base_;
  int64_t* budget_;
};

class FaultInjectingFileSystem : public FileSystem {
 public:
  /// Bytes that may still be appended before writes start failing;
  /// negative disables injection.
  int64_t write_budget = -1;

  Result<std::unique_ptr<File>> OpenAppend(const std::string& path) override {
    EPL_ASSIGN_OR_RETURN(std::unique_ptr<File> base,
                         DefaultFileSystem()->OpenAppend(path));
    return std::unique_ptr<File>(
        new FaultFile(std::move(base), &write_budget));
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return DefaultFileSystem()->ReadFile(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return DefaultFileSystem()->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return DefaultFileSystem()->CreateDir(dir);
  }
  Status Remove(const std::string& path) override {
    return DefaultFileSystem()->Remove(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return DefaultFileSystem()->Rename(from, to);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return DefaultFileSystem()->Truncate(path, size);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return DefaultFileSystem()->FileSize(path);
  }
  bool Exists(const std::string& path) override {
    return DefaultFileSystem()->Exists(path);
  }
  Status SyncDir(const std::string& dir) override {
    return DefaultFileSystem()->SyncDir(dir);
  }
};

std::vector<std::pair<uint64_t, std::string>> ReplayAll(EventLog* log,
                                                        uint64_t from = 0) {
  std::vector<std::pair<uint64_t, std::string>> records;
  EPL_EXPECT_OK(log->Replay(from, [&](uint64_t seq, std::string_view payload) {
    records.emplace_back(seq, std::string(payload));
    return OkStatus();
  }));
  return records;
}

void FlipByte(const std::string& path, size_t offset) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  file.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&c, 1);
}

// ---------------------------------------------------------------------------
// Codec.

TEST(Crc32Test, ChainsIncrementally) {
  EXPECT_EQ(Crc32c("hello world"), Crc32c(" world", Crc32c("hello")));
  EXPECT_NE(Crc32c("hello"), Crc32c("hellp"));
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32Test, MatchesTheCrc32cReferenceVector) {
  // CRC-32C (Castagnoli) check value: the on-disk format depends on this
  // exact polynomial and reflection, and the hardware and software
  // implementations must both match the published vector.
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  // Cover the block path (>= 8-byte chunks) against bytewise chaining.
  const std::string long_input(1027, 'x');
  uint32_t chained = 0;
  for (const char ch : long_input) {
    chained = Crc32c(std::string_view(&ch, 1), chained);
  }
  EXPECT_EQ(Crc32c(long_input), chained);
}

TEST(ByteCodecTest, RoundTripsEveryType) {
  ByteWriter out;
  out.PutU8(0xab);
  out.PutU32(0xdeadbeef);
  out.PutU64(0x0123456789abcdefull);
  out.PutI64(-42);
  out.PutDouble(-0.5);
  out.PutString("payload");

  ByteReader in(out.str());
  EPL_ASSERT_OK_AND_ASSIGN(uint8_t u8, in.ReadU8());
  EXPECT_EQ(u8, 0xab);
  EPL_ASSERT_OK_AND_ASSIGN(uint32_t u32, in.ReadU32());
  EXPECT_EQ(u32, 0xdeadbeefu);
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t u64, in.ReadU64());
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EPL_ASSERT_OK_AND_ASSIGN(int64_t i64, in.ReadI64());
  EXPECT_EQ(i64, -42);
  EPL_ASSERT_OK_AND_ASSIGN(double d, in.ReadDouble());
  EXPECT_EQ(d, -0.5);
  EPL_ASSERT_OK_AND_ASSIGN(std::string s, in.ReadString());
  EXPECT_EQ(s, "payload");
  EXPECT_TRUE(in.done());
}

TEST(ByteCodecTest, EveryTruncationIsAnErrorNotACrash) {
  ByteWriter out;
  out.PutU32(7);
  out.PutString("abc");
  out.PutDouble(1.5);
  const std::string full = out.str();
  for (size_t len = 0; len < full.size(); ++len) {
    ByteReader in(std::string_view(full).substr(0, len));
    // Read the same shape; at least one read must fail with DataLoss.
    auto read_all = [&]() -> Status {
      EPL_ASSIGN_OR_RETURN(uint32_t v, in.ReadU32());
      (void)v;
      EPL_ASSIGN_OR_RETURN(std::string s, in.ReadString());
      (void)s;
      EPL_ASSIGN_OR_RETURN(double d, in.ReadDouble());
      (void)d;
      return OkStatus();
    };
    Status status = read_all();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "len=" << len;
  }
}

// ---------------------------------------------------------------------------
// EventLog.

TEST(EventLogTest, AppendReplayRoundTrip) {
  ScopedTempDir dir;
  EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                           EventLog::Open(dir.path()));
  for (int i = 0; i < 10; ++i) {
    EPL_ASSERT_OK_AND_ASSIGN(uint64_t seq,
                             log->Append("payload-" + std::to_string(i)));
    EXPECT_EQ(seq, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(log->next_seq(), 10u);
  auto records = ReplayAll(log.get());
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].first, i);
    EXPECT_EQ(records[i].second, "payload-" + std::to_string(i));
  }
  // Replay from the middle.
  EXPECT_EQ(ReplayAll(log.get(), 7).size(), 3u);
}

TEST(EventLogTest, ReopenContinuesSequence) {
  ScopedTempDir dir;
  {
    EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                             EventLog::Open(dir.path()));
    for (int i = 0; i < 5; ++i) {
      EPL_EXPECT_OK(log->Append("a" + std::to_string(i)).status());
    }
  }
  EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                           EventLog::Open(dir.path()));
  EXPECT_EQ(log->next_seq(), 5u);
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t seq, log->Append("b"));
  EXPECT_EQ(seq, 5u);
  EXPECT_EQ(ReplayAll(log.get()).size(), 6u);
}

TEST(EventLogTest, RotatesBySizeAndDropsCoveredSegments) {
  ScopedTempDir dir;
  EventLogOptions options;
  options.segment_bytes = 1;  // every record rotates
  EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                           EventLog::Open(dir.path(), options));
  for (int i = 0; i < 8; ++i) {
    EPL_EXPECT_OK(log->Append("r" + std::to_string(i)).status());
  }
  EXPECT_GE(log->SegmentNames().size(), 8u);
  EPL_EXPECT_OK(log->DropSegmentsBelow(5));
  // Records 5..7 must survive; nothing below.
  auto records = ReplayAll(log.get(), 0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().first, 5u);
  EXPECT_EQ(records.back().first, 7u);
  // A reopen agrees.
  log.reset();
  EPL_ASSERT_OK_AND_ASSIGN(log, EventLog::Open(dir.path(), options));
  EXPECT_EQ(log->next_seq(), 8u);
  EXPECT_EQ(ReplayAll(log.get()).size(), 3u);
}

TEST(EventLogTest, ExplicitRotationIsNoOpWhileEmpty) {
  ScopedTempDir dir;
  EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                           EventLog::Open(dir.path()));
  EPL_EXPECT_OK(log->RotateSegment());
  EPL_EXPECT_OK(log->RotateSegment());
  EXPECT_EQ(log->SegmentNames().size(), 1u);
  EPL_EXPECT_OK(log->Append("x").status());
  EPL_EXPECT_OK(log->RotateSegment());
  EXPECT_EQ(log->SegmentNames().size(), 2u);
}

TEST(EventLogTest, TornTailIsTruncatedOnOpen) {
  ScopedTempDir dir;
  std::string tail_path;
  {
    EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                             EventLog::Open(dir.path()));
    for (int i = 0; i < 4; ++i) {
      EPL_EXPECT_OK(log->Append("record-" + std::to_string(i)).status());
    }
    tail_path = dir.path() + "/" + log->SegmentNames().back();
  }
  // Chop into the last record's body: a torn append.
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t size,
                           DefaultFileSystem()->FileSize(tail_path));
  EPL_ASSERT_OK(DefaultFileSystem()->Truncate(tail_path, size - 3));
  EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                           EventLog::Open(dir.path()));
  EXPECT_EQ(log->next_seq(), 3u);
  EXPECT_EQ(ReplayAll(log.get()).size(), 3u);
  // The log is appendable again and reuses the dropped sequence number.
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t seq, log->Append("replacement"));
  EXPECT_EQ(seq, 3u);
}

TEST(EventLogTest, HeaderOnlyTornTailIsTruncatedToo) {
  ScopedTempDir dir;
  std::string tail_path;
  {
    EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                             EventLog::Open(dir.path()));
    EPL_EXPECT_OK(log->Append("one").status());
    EPL_EXPECT_OK(log->Append("two").status());
    tail_path = dir.path() + "/" + log->SegmentNames().back();
  }
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t size,
                           DefaultFileSystem()->FileSize(tail_path));
  // Leave 5 bytes of the second record: less than a full header.
  const uint64_t second_record = 4 + 4 + 8 + 3;  // header | seq | "two"
  EPL_ASSERT_OK(DefaultFileSystem()->Truncate(
      tail_path, size - second_record + 5));
  EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                           EventLog::Open(dir.path()));
  EXPECT_EQ(log->next_seq(), 1u);
}

TEST(EventLogTest, BitFlipAtLiveTailTruncatesOnOpen) {
  ScopedTempDir dir;
  std::string tail_path;
  uint64_t size = 0;
  {
    EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                             EventLog::Open(dir.path()));
    for (int i = 0; i < 3; ++i) {
      EPL_EXPECT_OK(log->Append("record-" + std::to_string(i)).status());
    }
    tail_path = dir.path() + "/" + log->SegmentNames().back();
  }
  EPL_ASSERT_OK_AND_ASSIGN(size, DefaultFileSystem()->FileSize(tail_path));
  FlipByte(tail_path, static_cast<size_t>(size) - 1);  // inside record 2
  EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                           EventLog::Open(dir.path()));
  EXPECT_EQ(log->next_seq(), 2u);
  EXPECT_EQ(ReplayAll(log.get()).size(), 2u);
}

TEST(EventLogTest, CorruptionInClosedSegmentIsDataLoss) {
  ScopedTempDir dir;
  std::string first_path;
  {
    EventLogOptions options;
    options.segment_bytes = 1;
    EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<EventLog> log,
                             EventLog::Open(dir.path(), options));
    EPL_EXPECT_OK(log->Append("first-segment-record").status());
    EPL_EXPECT_OK(log->Append("second-segment-record").status());
    first_path = dir.path() + "/" + log->SegmentNames().front();
  }
  FlipByte(first_path, 12);  // body of the first (closed) segment's record
  Result<std::unique_ptr<EventLog>> reopened = EventLog::Open(dir.path());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("wal-"), std::string::npos);
}

TEST(EventLogTest, ShortWriteSealsTheLogAndReopenRecovers) {
  ScopedTempDir dir;
  FaultInjectingFileSystem fs;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<EventLog> log,
      EventLog::Open(dir.path(), EventLogOptions(), &fs));
  EPL_EXPECT_OK(log->Append("durable-one").status());
  EPL_EXPECT_OK(log->Append("durable-two").status());
  // The next record lands only partially.
  fs.write_budget = 10;
  Result<uint64_t> failed = log->Append("this-record-is-torn");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  // Sticky: the log refuses everything until reopened.
  fs.write_budget = -1;
  EXPECT_FALSE(log->Append("after-the-fault").ok());
  EXPECT_FALSE(log->Sync().ok());
  log.reset();
  // Reopen repairs the torn tail; everything that returned OK survives.
  EPL_ASSERT_OK_AND_ASSIGN(log,
                           EventLog::Open(dir.path(), EventLogOptions(), &fs));
  auto records = ReplayAll(log.get());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].second, "durable-one");
  EXPECT_EQ(records[1].second, "durable-two");
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t seq, log->Append("healed"));
  EXPECT_EQ(seq, 2u);
}

// ---------------------------------------------------------------------------
// WalRecord / run-state codec.

TEST(WalRecordTest, RoundTripsEveryType) {
  std::vector<WalRecord> records(5);
  records[0].type = WalRecord::Type::kEvent;
  records[0].session = 3;
  records[0].event.timestamp = 123456;
  records[0].event.values = {1.5, -2.5, 0.0};
  records[1].type = WalRecord::Type::kOpenSession;
  records[1].session = 7;
  records[1].name = "alice";
  records[2].type = WalRecord::Type::kCloseSession;
  records[2].session = 7;
  records[3].type = WalRecord::Type::kDeploy;
  records[3].session = -1;
  records[3].name = "swipe";
  records[3].definition = "epl-gesture v1\nname: swipe\n...";
  records[4].type = WalRecord::Type::kUndeploy;
  records[4].session = 2;
  records[4].name = "swipe";

  for (const WalRecord& record : records) {
    const std::string encoded = EncodeWalRecord(record);
    EPL_ASSERT_OK_AND_ASSIGN(WalRecord decoded, DecodeWalRecord(encoded));
    EXPECT_EQ(decoded.type, record.type);
    EXPECT_EQ(decoded.session, record.session);
    EXPECT_EQ(decoded.event.timestamp, record.event.timestamp);
    EXPECT_EQ(decoded.event.values, record.event.values);
    EXPECT_EQ(decoded.name, record.name);
    EXPECT_EQ(decoded.definition, record.definition);
  }
}

TEST(WalRecordTest, RejectsCorruptInput) {
  WalRecord record;
  record.type = WalRecord::Type::kDeploy;
  record.name = "g";
  record.definition = "d";
  const std::string encoded = EncodeWalRecord(record);
  // Every prefix fails cleanly.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeWalRecord(encoded.substr(0, len)).ok()) << len;
  }
  // Unknown type byte.
  std::string bad = encoded;
  bad[0] = 99;
  EXPECT_FALSE(DecodeWalRecord(bad).ok());
  // Trailing garbage.
  EXPECT_FALSE(DecodeWalRecord(encoded + "x").ok());
}

cep::NfaRunState SampleRunState() {
  cep::NfaRunState state;
  state.runs.resize(2);
  state.runs[0].state = 0;
  state.runs[0].times = {100};
  state.runs[1].state = 2;
  state.runs[1].times = {100, 250, 420};
  state.stats.events = 77;
  state.stats.predicate_evaluations = 55;
  state.stats.predicate_cache_hits = 44;
  state.stats.matches = 3;
  state.stats.dropped_runs = 1;
  state.stats.peak_runs = 9;
  return state;
}

TEST(RunStateCodecTest, RoundTrips) {
  const cep::NfaRunState state = SampleRunState();
  ByteWriter out;
  EncodeRunState(state, &out);
  ByteReader in(out.str());
  EPL_ASSERT_OK_AND_ASSIGN(cep::NfaRunState decoded, DecodeRunState(&in));
  EXPECT_TRUE(in.done());
  ASSERT_EQ(decoded.runs.size(), state.runs.size());
  for (size_t i = 0; i < decoded.runs.size(); ++i) {
    EXPECT_EQ(decoded.runs[i].state, state.runs[i].state);
    EXPECT_EQ(decoded.runs[i].times, state.runs[i].times);
  }
  EXPECT_EQ(decoded.stats.events, state.stats.events);
  EXPECT_EQ(decoded.stats.matches, state.stats.matches);
  EXPECT_EQ(decoded.stats.peak_runs, state.stats.peak_runs);
}

// ---------------------------------------------------------------------------
// Snapshot files.

Snapshot SampleSnapshot(uint64_t wal_seq) {
  Snapshot snapshot;
  snapshot.wal_seq = wal_seq;
  snapshot.next_session_id = 4;
  SessionState local;
  local.id = -1;
  local.ingested_events = 12;
  snapshot.sessions.push_back(local);
  SessionState alice;
  alice.id = 0;
  alice.user = "alice";
  alice.ingested_events = 900;
  snapshot.sessions.push_back(alice);
  // Two sessions bind one template, a third query another, and a
  // composite row carries its own definition.
  TemplateState swipe;
  swipe.query_text = "select ... from gesture_sessions";
  snapshot.templates.push_back(swipe);
  TemplateState wave;
  wave.query_text = "select ... wave from gesture_sessions";
  snapshot.templates.push_back(wave);
  for (int session : {0, 2}) {
    QueryState query;
    query.session = session;
    query.name = "swipe";
    query.template_index = 0;
    query.runs = SampleRunState();
    snapshot.queries.push_back(query);
  }
  QueryState wave_query;
  wave_query.session = 0;
  wave_query.name = "wave";
  wave_query.template_index = 1;
  snapshot.queries.push_back(wave_query);
  QueryState composite;
  composite.session = 0;
  composite.name = "combo";
  composite.level = 1;
  composite.stream = "gesture_sessions";
  composite.definition = "composite combo";
  snapshot.queries.push_back(composite);
  return snapshot;
}

void ExpectSnapshotEq(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.wal_seq, b.wal_seq);
  EXPECT_EQ(a.next_session_id, b.next_session_id);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].id, b.sessions[i].id);
    EXPECT_EQ(a.sessions[i].user, b.sessions[i].user);
    EXPECT_EQ(a.sessions[i].ingested_events, b.sessions[i].ingested_events);
  }
  ASSERT_EQ(a.templates.size(), b.templates.size());
  for (size_t i = 0; i < a.templates.size(); ++i) {
    EXPECT_EQ(a.templates[i].query_text, b.templates[i].query_text);
  }
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].session, b.queries[i].session);
    EXPECT_EQ(a.queries[i].name, b.queries[i].name);
    EXPECT_EQ(a.queries[i].template_index, b.queries[i].template_index);
    EXPECT_EQ(a.queries[i].level, b.queries[i].level);
    EXPECT_EQ(a.queries[i].stream, b.queries[i].stream);
    EXPECT_EQ(a.queries[i].definition, b.queries[i].definition);
    EXPECT_EQ(a.queries[i].runs.runs.size(), b.queries[i].runs.runs.size());
  }
}

TEST(SnapshotTest, WriteReadRoundTrip) {
  ScopedTempDir dir;
  const Snapshot snapshot = SampleSnapshot(42);
  EPL_ASSERT_OK(WriteSnapshot(DefaultFileSystem(), dir.path(), snapshot));
  EPL_ASSERT_OK_AND_ASSIGN(Snapshot loaded,
                           ReadLatestSnapshot(DefaultFileSystem(),
                                              dir.path()));
  ExpectSnapshotEq(loaded, snapshot);
}

TEST(SnapshotTest, EmptyDirIsNotFound) {
  ScopedTempDir dir;
  Result<Snapshot> loaded =
      ReadLatestSnapshot(DefaultFileSystem(), dir.path());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, CorruptNewestFallsBackToOlder) {
  ScopedTempDir dir;
  EPL_ASSERT_OK(WriteSnapshot(DefaultFileSystem(), dir.path(),
                              SampleSnapshot(10)));
  EPL_ASSERT_OK(WriteSnapshot(DefaultFileSystem(), dir.path(),
                              SampleSnapshot(20)));
  // Flip one byte in the newest snapshot's body.
  EPL_ASSERT_OK_AND_ASSIGN(std::vector<std::string> names,
                           DefaultFileSystem()->ListDir(dir.path()));
  ASSERT_EQ(names.size(), 2u);
  FlipByte(dir.path() + "/" + names.back(), 40);
  EPL_ASSERT_OK_AND_ASSIGN(Snapshot loaded,
                           ReadLatestSnapshot(DefaultFileSystem(),
                                              dir.path()));
  EXPECT_EQ(loaded.wal_seq, 10u);
}

TEST(SnapshotTest, RemoveStaleKeepsCoveringSnapshotAndDropsTmp) {
  ScopedTempDir dir;
  EPL_ASSERT_OK(WriteSnapshot(DefaultFileSystem(), dir.path(),
                              SampleSnapshot(10)));
  EPL_ASSERT_OK(WriteSnapshot(DefaultFileSystem(), dir.path(),
                              SampleSnapshot(20)));
  // A leftover tmp from an interrupted write.
  {
    EPL_ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<File> tmp,
        DefaultFileSystem()->OpenAppend(dir.path() +
                                        "/snapshot-galaxy.snap.tmp"));
    EPL_ASSERT_OK(tmp->Append("partial"));
    EPL_ASSERT_OK(tmp->Close());
  }
  EPL_ASSERT_OK(RemoveStaleSnapshots(DefaultFileSystem(), dir.path(), 20));
  EPL_ASSERT_OK_AND_ASSIGN(std::vector<std::string> names,
                           DefaultFileSystem()->ListDir(dir.path()));
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("00000000000000000020"), std::string::npos);
}

TEST(SnapshotTest, CorruptionMatrixNeverCrashes) {
  ScopedTempDir dir;
  EPL_ASSERT_OK(WriteSnapshot(DefaultFileSystem(), dir.path(),
                              SampleSnapshot(5)));
  EPL_ASSERT_OK_AND_ASSIGN(std::vector<std::string> names,
                           DefaultFileSystem()->ListDir(dir.path()));
  ASSERT_EQ(names.size(), 1u);
  const std::string path = dir.path() + "/" + names[0];
  EPL_ASSERT_OK_AND_ASSIGN(std::string good,
                           DefaultFileSystem()->ReadFile(path));

  ScopedTempDir scratch;
  const std::string victim = scratch.path() + "/" + names[0];
  auto write_victim = [&](const std::string& bytes) {
    (void)DefaultFileSystem()->Remove(victim);
    EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<File> file,
                             DefaultFileSystem()->OpenAppend(victim));
    EPL_ASSERT_OK(file->Append(bytes));
    EPL_ASSERT_OK(file->Close());
  };
  // Every truncation fails cleanly (only the full file parses).
  for (size_t len = 0; len < good.size(); ++len) {
    write_victim(good.substr(0, len));
    Result<Snapshot> loaded =
        ReadLatestSnapshot(DefaultFileSystem(), scratch.path());
    EXPECT_FALSE(loaded.ok()) << "truncated to " << len;
  }
  // Every single-byte flip fails cleanly (the CRC covers the whole body,
  // the header fields are each validated).
  for (size_t offset = 0; offset < good.size(); ++offset) {
    std::string flipped = good;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x01);
    write_victim(flipped);
    Result<Snapshot> loaded =
        ReadLatestSnapshot(DefaultFileSystem(), scratch.path());
    EXPECT_FALSE(loaded.ok()) << "flipped offset " << offset;
  }
}

/// Writes `body` as a snapshot file with a valid header and CRC: the
/// decoder, not the checksum, has to reject what the body says.
void WriteRawSnapshot(const std::string& dir, uint64_t wal_seq,
                      uint32_t version, const std::string& body) {
  ByteWriter header;
  header.PutU32(version);
  header.PutU32(static_cast<uint32_t>(body.size()));
  header.PutU32(Crc32c(body));
  std::string digits = std::to_string(wal_seq);
  const std::string path = dir + "/snapshot-" +
                           std::string(20 - digits.size(), '0') + digits +
                           ".snap";
  (void)DefaultFileSystem()->Remove(path);
  EPL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<File> file,
                           DefaultFileSystem()->OpenAppend(path));
  EPL_ASSERT_OK(file->Append("EPLSNAP1"));
  EPL_ASSERT_OK(file->Append(header.str()));
  EPL_ASSERT_OK(file->Append(body));
  EPL_ASSERT_OK(file->Close());
}

/// A version 3 body with one session and `templates` written of
/// `declared_templates`, then one base query binding `index`.
std::string V3Body(uint64_t wal_seq, uint64_t declared_templates,
                   int templates, uint64_t index) {
  ByteWriter body;
  body.PutU64(wal_seq);
  body.PutI64(1);
  body.PutU64(1);
  body.PutI64(0);
  body.PutString("alice");
  body.PutU64(7);
  body.PutU64(declared_templates);
  for (int t = 0; t < templates; ++t) {
    body.PutString("select ... from gesture_sessions");
  }
  body.PutU64(1);
  body.PutI64(0);
  body.PutString("swipe");
  body.PutI64(0);
  body.PutU64(index);
  EncodeRunState(SampleRunState(), &body);
  return body.Take();
}

TEST(SnapshotTest, V3StoresEachTemplateOnce) {
  ScopedTempDir dir;
  Snapshot snapshot = SampleSnapshot(9);
  const std::string text(64 << 10, 'q');
  snapshot.templates[0].query_text = text;
  for (int session = 3; session < 40; ++session) {
    QueryState query;
    query.session = session;
    query.name = "swipe";
    query.template_index = 0;
    snapshot.queries.push_back(query);
  }
  EPL_ASSERT_OK(WriteSnapshot(DefaultFileSystem(), dir.path(), snapshot));
  EPL_ASSERT_OK_AND_ASSIGN(std::vector<std::string> names,
                           DefaultFileSystem()->ListDir(dir.path()));
  ASSERT_EQ(names.size(), 1u);
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t size, DefaultFileSystem()->FileSize(
                                              dir.path() + "/" + names[0]));
  // 39 queries bind the 64 KiB text; it is on disk once.
  EXPECT_LT(size, 2 * text.size());
  EPL_ASSERT_OK_AND_ASSIGN(Snapshot loaded,
                           ReadLatestSnapshot(DefaultFileSystem(),
                                              dir.path()));
  ExpectSnapshotEq(loaded, snapshot);
}

TEST(SnapshotTest, V3CorruptionMatrixIsDataLoss) {
  ScopedTempDir dir;
  // The well-formed body decodes, so each case below fails for its own
  // reason.
  WriteRawSnapshot(dir.path(), 3, 3, V3Body(3, 1, 1, 0));
  EPL_ASSERT_OK_AND_ASSIGN(Snapshot good,
                           ReadLatestSnapshot(DefaultFileSystem(), dir.path()));
  ASSERT_EQ(good.templates.size(), 1u);
  EXPECT_EQ(good.queries[0].template_index, 0);

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"template index out of range", V3Body(3, 1, 1, 1)},
      {"template index far out of range", V3Body(3, 1, 1, ~uint64_t{0})},
      {"truncated template table", V3Body(3, 2, 1, 0)},
      {"template count beyond the input", V3Body(3, uint64_t{1} << 60, 0, 0)},
  };
  for (const auto& [what, body] : cases) {
    WriteRawSnapshot(dir.path(), 3, 3, body);
    Result<Snapshot> loaded =
        ReadLatestSnapshot(DefaultFileSystem(), dir.path());
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << what << ": " << loaded.status();
  }
}

TEST(SnapshotTest, CommittedV1AndV2SnapshotsDecode) {
  // Written by the version 1 and 2 encoders: sessions alice (0) and bob
  // (1), alice deploying swipe_right_0 and raise_hand_1, bob
  // swipe_right_0 and swipe_right_2, cut mid-gesture after 40 frames; the
  // v2 file adds alice's composite "combo".
  for (const char* version : {"v1", "v2"}) {
    const std::string dir =
        epl::testing::TestDataDir() + "/snapshots/" + version;
    EPL_ASSERT_OK_AND_ASSIGN(Snapshot snapshot,
                             ReadLatestSnapshot(DefaultFileSystem(), dir));
    ASSERT_EQ(snapshot.sessions.size(), 2u) << version;
    EXPECT_EQ(snapshot.sessions[0].user, "alice");
    EXPECT_EQ(snapshot.sessions[1].ingested_events, 40u);
    // Rows with the same text share a template: both swipe_right_0 rows.
    ASSERT_EQ(snapshot.templates.size(), 3u) << version;
    const bool v2 = std::string(version) == "v2";
    ASSERT_EQ(snapshot.queries.size(), v2 ? 5u : 4u);
    EXPECT_EQ(snapshot.queries[0].name, "swipe_right_0");
    EXPECT_EQ(snapshot.queries[2].name, "swipe_right_0");
    EXPECT_EQ(snapshot.queries[0].template_index,
              snapshot.queries[2].template_index);
    EXPECT_NE(snapshot.queries[1].template_index,
              snapshot.queries[3].template_index);
    for (const TemplateState& tmpl : snapshot.templates) {
      EXPECT_NE(tmpl.query_text.find("gesture_sessions"), std::string::npos);
    }
    EXPECT_FALSE(snapshot.queries[0].runs.runs.empty());
    if (v2) {
      EXPECT_EQ(snapshot.queries[4].name, "combo");
      EXPECT_EQ(snapshot.queries[4].level, 1);
      EXPECT_EQ(snapshot.queries[4].template_index, -1);
      EXPECT_FALSE(snapshot.queries[4].definition.empty());
    }
  }
}

TEST(SnapshotTest, EnospcDuringWriteLeavesNoVisibleSnapshot) {
  ScopedTempDir dir;
  FaultInjectingFileSystem fs;
  EPL_ASSERT_OK(WriteSnapshot(&fs, dir.path(), SampleSnapshot(10)));
  fs.write_budget = 16;  // the next write dies inside the new file
  Status failed = WriteSnapshot(&fs, dir.path(), SampleSnapshot(20));
  ASSERT_FALSE(failed.ok());
  // The interrupted write is invisible: recovery still reads snapshot 10.
  fs.write_budget = -1;
  EPL_ASSERT_OK_AND_ASSIGN(Snapshot loaded,
                           ReadLatestSnapshot(&fs, dir.path()));
  EXPECT_EQ(loaded.wal_seq, 10u);
  // And the tmp leftover is swept by stale removal.
  EPL_ASSERT_OK(RemoveStaleSnapshots(&fs, dir.path(), 10));
  EPL_ASSERT_OK_AND_ASSIGN(std::vector<std::string> names,
                           fs.ListDir(dir.path()));
  ASSERT_EQ(names.size(), 1u);
}

}  // namespace
}  // namespace epl::durability
