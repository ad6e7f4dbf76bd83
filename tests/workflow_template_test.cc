// Gesture templates: GestureRuntime compiles each distinct gesture
// definition once per runtime and binds it to every session that deploys
// it. Pinned here:
//   - the template key, core::SameDefinition, is bit-exact and agrees with
//     the gesture database text wherever that text is exact;
//   - a templated runtime detects, checkpoints and snapshots exactly like
//     one that compiles every deploy afresh, on the fused backend and on
//     the sharded one at 1 and 4 shards, batch 1 and 64;
//   - templates live exactly as long as a deployed query binds them;
//   - snapshots: committed version 1 and 2 files still recover to the
//     detections they recovered to when written, version 3 round-trips,
//     and a template whose text does not parse is DataLoss;
//   - session bookkeeping: closing one of many sessions leaves the rest
//     deployed and detecting.

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cep_workload_test_util.h"
#include "common/rng.h"
#include "durability/snapshot.h"
#include "gesturedb/serialization.h"
#include "kinect/synthesizer.h"
#include "test_util.h"
#include "workflow/gesture_runtime.h"

namespace epl::workflow {
namespace {

using cep::testing::DetectionRecord;
using cep::testing::Recorder;
using cep::testing::TrainedDefinitions;
using core::GestureDefinition;
using core::SameDefinition;
using kinect::SkeletonFrame;

// ---------------------------------------------------------------------------
// The template key.

/// A random valid definition whose numbers all lie on the six-decimal grid
/// gesturedb text renders exactly, and never -0.0.
GestureDefinition RandomDefinition(Rng& rng) {
  static const kinect::JointId kJoints[] = {
      kinect::JointId::kRightHand, kinect::JointId::kLeftHand,
      kinect::JointId::kRightElbow, kinect::JointId::kHead};
  static const char* kNames[] = {"swipe", "wave", "push"};
  static const char* kNotes[] = {"", "learned", "session 7"};
  auto grid = [&rng](int64_t lo, int64_t hi) {
    return static_cast<double>(rng.UniformInt(lo, hi)) / 1000.0;
  };
  GestureDefinition definition;
  definition.name = kNames[rng.UniformInt(0, 2)];
  definition.source_stream = rng.Bernoulli(0.5) ? "kinect_t" : "kinect";
  definition.sample_count = static_cast<int>(rng.UniformInt(1, 4));
  definition.notes = kNotes[rng.UniformInt(0, 2)];
  const int num_joints = static_cast<int>(rng.UniformInt(1, 3));
  for (int j = 0; j < num_joints; ++j) {
    definition.joints.push_back(kJoints[j]);
  }
  const int num_poses = static_cast<int>(rng.UniformInt(1, 4));
  for (int p = 0; p < num_poses; ++p) {
    core::PoseWindow pose;
    pose.max_gap = p == 0 ? 0 : 1000 * rng.UniformInt(1, 2000);
    for (kinect::JointId joint : definition.joints) {
      core::JointWindow window;
      for (int axis = 0; axis < 3; ++axis) {
        window.center[axis] = grid(-3000000, 3000000);
        window.half_width[axis] = grid(1, 200000);
      }
      window.active = {true, rng.Bernoulli(0.8), rng.Bernoulli(0.8)};
      pose.joints[joint] = window;
    }
    definition.poses.push_back(std::move(pose));
  }
  return definition;
}

/// `definition` with one field changed -- possibly to the value it had.
GestureDefinition Mutate(GestureDefinition definition, Rng& rng) {
  core::PoseWindow& pose = definition.poses[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(definition.poses.size()) - 1))];
  core::JointWindow& window = pose.joints.begin()->second;
  const int axis = static_cast<int>(rng.UniformInt(0, 2));
  switch (rng.UniformInt(0, 7)) {
    case 0:
      definition.name = rng.Bernoulli(0.5) ? "swipe" : "wave";
      break;
    case 1:
      definition.source_stream = rng.Bernoulli(0.5) ? "kinect_t" : "kinect";
      break;
    case 2:
      definition.sample_count = static_cast<int>(rng.UniformInt(1, 2));
      break;
    case 3:
      definition.notes = rng.Bernoulli(0.5) ? "" : "learned";
      break;
    case 4:
      window.center[axis] += static_cast<double>(rng.UniformInt(0, 1)) / 1000;
      break;
    case 5:
      window.half_width[axis] =
          static_cast<double>(rng.UniformInt(1, 2)) / 1000;
      break;
    case 6:
      window.active[static_cast<size_t>(axis)] =
          !window.active[static_cast<size_t>(axis)] || rng.Bernoulli(0.5);
      break;
    default:
      pose.max_gap += 1000 * rng.UniformInt(0, 1);
      break;
  }
  return definition;
}

// Where the gesture database text is exact (six-decimal values, no -0.0),
// two definitions are the same exactly when their serialized texts are:
// SameDefinition misses no field Serialize writes, and compares nothing
// Serialize leaves out of a valid definition.
TEST(SameDefinitionTest, AgreesWithSerializedTextOnExactValues) {
  Rng rng(2024);
  int same = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const GestureDefinition a = RandomDefinition(rng);
    GestureDefinition b = a;
    if (rng.Bernoulli(0.25)) {
      b = RandomDefinition(rng);
    } else if (rng.Bernoulli(0.75)) {
      b = Mutate(a, rng);
    }
    const bool same_text = gesturedb::Serialize(a) == gesturedb::Serialize(b);
    ASSERT_EQ(SameDefinition(a, b), same_text)
        << gesturedb::Serialize(a) << "\nvs\n"
        << gesturedb::Serialize(b);
    ASSERT_EQ(SameDefinition(b, a), same_text);
    if (same_text) {
      ++same;
      EXPECT_EQ(core::HashDefinition(a), core::HashDefinition(b));
    }
  }
  // Both sides of the equivalence were exercised.
  EXPECT_GT(same, 400);
  EXPECT_LT(same, 3600);
}

// Beyond that grid the text is lossy and SameDefinition is not: values that
// print alike but differ in their bits key different templates.
TEST(SameDefinitionTest, ComparesDoublesBitForBit) {
  Rng rng(7);
  const GestureDefinition base = RandomDefinition(rng);
  auto with_center = [&base](double value) {
    GestureDefinition definition = base;
    definition.poses[0].joints.begin()->second.center.x = value;
    return definition;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits = 0;
  std::memcpy(&bits, &nan, sizeof(bits));
  ++bits;  // another NaN payload
  double other_nan = 0;
  std::memcpy(&other_nan, &bits, sizeof(bits));
  ASSERT_TRUE(std::isnan(other_nan));

  const std::vector<std::pair<double, double>> distinct = {
      {0.0, -0.0}, {0.1, std::nextafter(0.1, 1.0)}, {nan, other_nan}};
  for (const auto& [x, y] : distinct) {
    const GestureDefinition a = with_center(x);
    const GestureDefinition b = with_center(y);
    EXPECT_TRUE(SameDefinition(a, a));
    EXPECT_EQ(core::HashDefinition(a), core::HashDefinition(with_center(x)));
    EXPECT_FALSE(SameDefinition(a, b)) << x << " vs " << y;
  }
  // The same NaN bits are the same definition.
  EXPECT_TRUE(SameDefinition(with_center(nan), with_center(nan)));
}

// ---------------------------------------------------------------------------
// Templated runtime == compile-afresh runtime.

struct BackendCase {
  const char* name;
  RuntimeBackend backend;
  int shards;
  size_t batch;
};

GestureRuntimeOptions CaseOptions(const BackendCase& c,
                                  const std::string& dir) {
  GestureRuntimeOptions options;
  options.backend = c.backend;
  options.num_shards = c.shards;
  options.batch_size = c.batch;
  // Batched sharded channels deliver at batch boundaries and Flush.
  options.sync_detections = c.batch == 1;
  options.durability.dir = dir;
  return options;
}

std::vector<SkeletonFrame> PerformerFrames(uint64_t seed) {
  kinect::SessionBuilder builder(kinect::UserProfile(), seed);
  builder.Idle(0.1)
      .Perform(kinect::GestureShapes::SwipeRight(), 0.2)
      .Idle(0.2)
      .Perform(kinect::GestureShapes::RaiseHand(), 0.1)
      .Idle(0.1)
      .Perform(kinect::GestureShapes::SwipeRight(), 0.3);
  return builder.TakeFrames();
}

/// (session, name) -> (template text, live runs) of the runtime's newest
/// snapshot.
using SnapshotRows =
    std::map<std::pair<int, std::string>,
             std::pair<std::string, std::vector<cep::NfaRunState::Run>>>;

SnapshotRows ReadRows(const std::string& dir) {
  Result<durability::Snapshot> snapshot =
      durability::ReadLatestSnapshot(durability::DefaultFileSystem(), dir);
  EPL_CHECK(snapshot.ok()) << snapshot.status();
  SnapshotRows rows;
  for (const durability::QueryState& query : snapshot->queries) {
    std::string text =
        query.level == 0
            ? snapshot->templates[static_cast<size_t>(query.template_index)]
                  .query_text
            : query.definition;
    rows[{query.session, query.name}] = {std::move(text), query.runs.runs};
  }
  return rows;
}

bool SameRuns(const std::vector<cep::NfaRunState::Run>& a,
              const std::vector<cep::NfaRunState::Run>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].state != b[i].state || a[i].times != b[i].times) return false;
  }
  return true;
}

class TemplateEquivalenceTest : public ::testing::TestWithParam<BackendCase> {
};

// One randomized script -- sessions deploying overlapping gesture sets,
// identical and changed relearns, undeploys, redeploys, a mid-stream close
// and checkpoints -- drives two runtimes. The reference gives every session's
// definitions their own notes, so no two sessions share a template there
// although every generated query is the same: it compiles each deploy
// afresh. Detections, live runs and snapshot query texts must match.
TEST_P(TemplateEquivalenceTest, TemplatedRuntimeEqualsCompileAfresh) {
  const BackendCase& c = GetParam();
  constexpr int kSessions = 5;
  const std::vector<GestureDefinition> defs = TrainedDefinitions(6);
  std::vector<std::vector<SkeletonFrame>> frames;
  for (int s = 0; s < kSessions; ++s) {
    frames.push_back(PerformerFrames(300 + static_cast<uint64_t>(s)));
  }
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    epl::testing::ScopedTempDir templated_dir, afresh_dir;
    stream::StreamEngine templated_engine, afresh_engine;
    GestureRuntime templated(&templated_engine,
                             CaseOptions(c, templated_dir.path()));
    GestureRuntime afresh(&afresh_engine, CaseOptions(c, afresh_dir.path()));
    std::vector<std::vector<DetectionRecord>> got(kSessions),
        want(kSessions);
    // Gesture `d`, its poses moved by `shift` on y (a relearn that
    // changed the gesture keeps its name).
    auto definition = [&defs](int session, size_t d, int shift,
                              bool distinct) {
      GestureDefinition out = defs[d];
      for (core::PoseWindow& pose : out.poses) {
        for (auto& [joint, window] : pose.joints) {
          (void)joint;
          window.center.y += 3.0 * shift;
        }
      }
      if (distinct) out.notes = "session " + std::to_string(session);
      return out;
    };
    auto both = [&](const std::function<Status(GestureRuntime&, bool)>& op) {
      EPL_ASSERT_OK(op(templated, false));
      EPL_ASSERT_OK(op(afresh, true));
    };
    auto deploy = [&](int s, size_t d, int shift) {
      both([&](GestureRuntime& runtime, bool distinct) {
        auto& out = distinct ? want : got;
        return runtime.Deploy(s, definition(s, d, shift, distinct),
                              Recorder(&out[static_cast<size_t>(s)]));
      });
    };

    // Both runtimes' snapshots agree row for row; returns the live runs.
    auto compare_snapshots = [&]() -> size_t {
      const SnapshotRows templated_rows = ReadRows(templated_dir.path());
      const SnapshotRows afresh_rows = ReadRows(afresh_dir.path());
      EXPECT_EQ(templated_rows.size(), afresh_rows.size());
      size_t live_runs = 0;
      for (const auto& [key, row] : templated_rows) {
        const auto it = afresh_rows.find(key);
        if (it == afresh_rows.end()) {
          ADD_FAILURE() << "missing " << key.second;
          continue;
        }
        EXPECT_EQ(row.first, it->second.first) << key.second;
        EXPECT_TRUE(SameRuns(row.second, it->second.second)) << key.second;
        live_runs += row.second.size();
      }
      return live_runs;
    };

    Rng rng(seed);
    std::vector<bool> open(kSessions, true);
    size_t live_runs = 0;
    for (int s = 0; s < kSessions; ++s) {
      both([&](GestureRuntime& runtime, bool) {
        return runtime.OpenSession("user" + std::to_string(s)).status();
      });
      for (size_t d = 0; d < defs.size(); ++d) {
        if (rng.Bernoulli(0.6)) deploy(s, d, 0);
      }
    }
    const size_t length = frames[0].size();
    for (size_t f = 0; f < length; ++f) {
      for (int s = 0; s < kSessions; ++s) {
        if (!open[static_cast<size_t>(s)] ||
            f >= frames[static_cast<size_t>(s)].size()) {
          continue;
        }
        const SkeletonFrame& frame = frames[static_cast<size_t>(s)][f];
        both([&](GestureRuntime& runtime, bool) {
          return runtime.PushFrame(s, frame);
        });
      }
      if (rng.Bernoulli(0.15)) {
        const int s = static_cast<int>(rng.UniformInt(0, kSessions - 1));
        const size_t d =
            static_cast<size_t>(rng.UniformInt(0, defs.size() - 1));
        if (!open[static_cast<size_t>(s)]) continue;
        if (templated.IsDeployed(s, defs[d].name) && rng.Bernoulli(0.3)) {
          both([&](GestureRuntime& runtime, bool) {
            return runtime.Undeploy(s, defs[d].name);
          });
        } else {
          // A deploy, an identical relearn or a changed one.
          deploy(s, d, static_cast<int>(rng.UniformInt(0, 1)));
        }
      }
      if (f == length / 2) {
        const int s = static_cast<int>(seed % kSessions);
        both([&](GestureRuntime& runtime, bool) {
          return runtime.CloseSession(s);
        });
        open[static_cast<size_t>(s)] = false;
      }
      if (f % 20 == 10) {
        both([](GestureRuntime& runtime, bool) {
          return runtime.Checkpoint();
        });
        live_runs += compare_snapshots();
      }
    }
    both([](GestureRuntime& runtime, bool) { return runtime.Checkpoint(); });
    compare_snapshots();
    // Some checkpoint cut through a gesture in flight.
    EXPECT_GT(live_runs, 0u);

    size_t detections = 0;
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_EQ(got[static_cast<size_t>(s)], want[static_cast<size_t>(s)])
          << c.name << " seed " << seed << " session " << s;
      detections += got[static_cast<size_t>(s)].size();
    }
    EXPECT_GT(detections, 0u);
    EXPECT_EQ(templated.num_deployed(), afresh.num_deployed());
    // The reference shares nothing; the templated runtime shares across
    // sessions, so it holds at most one template per gesture.
    EXPECT_EQ(afresh.num_templates(), afresh.num_deployed());
    EXPECT_LE(templated.num_templates(), 2 * defs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TemplateEquivalenceTest,
    ::testing::Values(BackendCase{"Fused", RuntimeBackend::kFused, 1, 1},
                      BackendCase{"FusedBatched", RuntimeBackend::kFused, 1,
                                  64},
                      BackendCase{"Sharded1", RuntimeBackend::kSharded, 1, 1},
                      BackendCase{"Sharded1Batched", RuntimeBackend::kSharded,
                                  1, 64},
                      BackendCase{"Sharded4", RuntimeBackend::kSharded, 4, 1},
                      BackendCase{"Sharded4Batched", RuntimeBackend::kSharded,
                                  4, 64}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Template lifetime.

TEST(TemplateLifecycleTest, TemplatesLiveWhileBound) {
  constexpr int kSessions = 8;
  const std::vector<GestureDefinition> defs = TrainedDefinitions(16);
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  std::vector<SessionId> sessions;
  for (int s = 0; s < kSessions; ++s) {
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id,
                             runtime.OpenSession("u" + std::to_string(s)));
    sessions.push_back(id);
    for (const GestureDefinition& definition : defs) {
      EPL_ASSERT_OK(runtime.Deploy(id, definition, nullptr));
    }
  }
  EXPECT_EQ(runtime.num_deployed(), kSessions * defs.size());
  EXPECT_EQ(runtime.num_templates(), 16u);

  // Relearning an identical definition is a hit.
  Rng rng(11);
  for (int k = 0; k < 200; ++k) {
    const SessionId s = sessions[static_cast<size_t>(
        rng.UniformInt(0, kSessions - 1))];
    const GestureDefinition& definition =
        defs[static_cast<size_t>(rng.UniformInt(0, 15))];
    EPL_ASSERT_OK(runtime.Deploy(s, definition, nullptr));
    ASSERT_EQ(runtime.num_templates(), 16u) << "relearn " << k;
  }

  // A changed definition compiles one more; moving its last binding back
  // releases it.
  GestureDefinition changed = defs[0];
  changed.poses[0].joints.begin()->second.center.x += 1.0;
  EPL_ASSERT_OK(runtime.Deploy(sessions[0], changed, nullptr));
  EXPECT_EQ(runtime.num_templates(), 17u);
  EPL_ASSERT_OK(runtime.Deploy(sessions[0], defs[0], nullptr));
  EXPECT_EQ(runtime.num_templates(), 16u);

  // The same definition deployed locally is a template of its own scope.
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine, "kinect"));
  EPL_ASSERT_OK(runtime.Deploy(defs[0], nullptr));
  EXPECT_EQ(runtime.num_templates(), 17u);
  EPL_ASSERT_OK(runtime.Undeploy(defs[0].name));
  EXPECT_EQ(runtime.num_templates(), 16u);

  for (SessionId s : sessions) {
    EPL_ASSERT_OK(runtime.CloseSession(s));
  }
  EPL_ASSERT_OK(runtime.Flush());
  EXPECT_EQ(runtime.num_deployed(), 0u);
  EXPECT_EQ(runtime.num_templates(), 0u);
}

TEST(TemplateLifecycleTest, LegacyBackendCompilesEveryQuery) {
  GestureRuntimeOptions options;
  options.backend = RuntimeBackend::kLegacyPerQuery;
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine, options);
  const std::vector<GestureDefinition> defs = TrainedDefinitions(2);
  for (const char* user : {"a", "b"}) {
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession(user));
    for (const GestureDefinition& definition : defs) {
      EPL_ASSERT_OK(runtime.Deploy(id, definition, nullptr));
    }
  }
  EXPECT_EQ(runtime.num_deployed(), 4u);
  EXPECT_EQ(runtime.num_templates(), 0u);
}

// ---------------------------------------------------------------------------
// Session bookkeeping.

TEST(SessionBookkeepingTest, ClosingOneSessionLeavesTheOthersDetecting) {
  constexpr int kSessions = 6;
  const std::vector<GestureDefinition> defs = TrainedDefinitions(2);
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  std::vector<std::vector<DetectionRecord>> detections(kSessions);
  std::vector<SessionId> ids;
  for (int s = 0; s < kSessions; ++s) {
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id,
                             runtime.OpenSession("u" + std::to_string(s)));
    ids.push_back(id);
    for (const GestureDefinition& definition : defs) {
      EPL_ASSERT_OK(runtime.Deploy(
          id, definition, Recorder(&detections[static_cast<size_t>(s)])));
    }
  }
  const SessionId closed = ids[2];
  EPL_ASSERT_OK(runtime.CloseSession(closed));
  EXPECT_TRUE(runtime.DeployedGestures(closed).empty());
  EXPECT_EQ(runtime.num_deployed(), (kSessions - 1) * defs.size());
  const std::vector<std::string> names = {defs[1].name, defs[0].name};
  for (int s = 0; s < kSessions; ++s) {
    if (ids[static_cast<size_t>(s)] == closed) continue;
    // Sorted by name, and only the session's own.
    EXPECT_EQ(runtime.DeployedGestures(ids[static_cast<size_t>(s)]), names);
  }
  EXPECT_FALSE(runtime.PushFrame(closed, PerformerFrames(1)[0]).ok());

  const std::vector<SkeletonFrame> frames = PerformerFrames(77);
  for (const SkeletonFrame& frame : frames) {
    for (int s = 0; s < kSessions; ++s) {
      if (ids[static_cast<size_t>(s)] == closed) continue;
      EPL_ASSERT_OK(runtime.PushFrame(ids[static_cast<size_t>(s)], frame));
    }
  }
  EPL_ASSERT_OK(runtime.Flush());
  for (int s = 0; s < kSessions; ++s) {
    if (ids[static_cast<size_t>(s)] == closed) {
      EXPECT_TRUE(detections[static_cast<size_t>(s)].empty());
    } else {
      EXPECT_FALSE(detections[static_cast<size_t>(s)].empty()) << s;
      // Every open session saw the same performance.
      EXPECT_EQ(detections[static_cast<size_t>(s)], detections[0]);
    }
  }
  // The closed user may open a new session; the others stay taken.
  EPL_ASSERT_OK_AND_ASSIGN(SessionId reopened, runtime.OpenSession("u2"));
  EXPECT_NE(reopened, closed);
  EXPECT_FALSE(runtime.OpenSession("u3").ok());
}

// ---------------------------------------------------------------------------
// Snapshots.

/// The frames the committed snapshots were cut from (after 40 of them).
std::vector<SkeletonFrame> CommittedScriptFrames() {
  kinect::SessionBuilder builder(kinect::UserProfile(), 7);
  builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
  builder.Idle(0.2);
  builder.Perform(kinect::GestureShapes::RaiseHand(), 0.1);
  return builder.TakeFrames();
}

void CopySnapshots(const std::string& from, const std::string& to) {
  durability::FileSystem* fs = durability::DefaultFileSystem();
  Result<std::vector<std::string>> names = fs->ListDir(from);
  EPL_CHECK(names.ok()) << names.status();
  for (const std::string& name : *names) {
    Result<std::string> bytes = fs->ReadFile(from + "/" + name);
    EPL_CHECK(bytes.ok()) << bytes.status();
    Result<std::unique_ptr<durability::File>> file =
        fs->OpenAppend(to + "/" + name);
    EPL_CHECK(file.ok()) << file.status();
    EPL_CHECK((*file)->Append(*bytes).ok());
    EPL_CHECK((*file)->Close().ok());
  }
}

using SessionDetection = std::pair<int, DetectionRecord>;

/// Recovers the runtime in `dir` and plays the rest of the committed
/// script into sessions 0 and 1.
std::vector<SessionDetection> RecoverAndFinish(const std::string& dir,
                                               size_t* templates) {
  GestureRuntimeOptions options;
  options.durability.dir = dir;
  stream::StreamEngine engine;
  std::vector<SessionDetection> out;
  auto factory = [&out](SessionId session,
                        const std::string&) -> cep::DetectionCallback {
    return [&out, session](const cep::Detection& d) {
      out.emplace_back(session,
                       DetectionRecord{d.name, d.time, d.pose_times});
    };
  };
  Result<std::unique_ptr<GestureRuntime>> runtime =
      GestureRuntime::Recover(&engine, options, factory);
  EPL_CHECK(runtime.ok()) << runtime.status();
  *templates = (*runtime)->num_templates();
  const std::vector<SkeletonFrame> frames = CommittedScriptFrames();
  EPL_CHECK((*runtime)->ingested_events(0) == 40);
  for (size_t i = 40; i < frames.size(); ++i) {
    EPL_CHECK((*runtime)->PushFrame(0, frames[i]).ok());
    EPL_CHECK((*runtime)->PushFrame(1, frames[i]).ok());
  }
  EPL_CHECK((*runtime)->Flush().ok());
  return out;
}

// The committed files were written by the version 1 and 2 encoders (see
// SnapshotTest.CommittedV1AndV2SnapshotsDecode). Recovering them must
// still produce the detections recovery produced when they were written,
// and the same as recovering their contents re-encoded as version 3.
// (Snapshots do not carry the kinect_t views' smoothing state, so the
// recovered swipe completes one frame later than the uncrashed run's did,
// at 1699983; these expectations change when that state is restored.)
TEST(TemplateSnapshotTest, CommittedV1AndV2SnapshotsRecoverBitIdentically) {
  const std::vector<TimePoint> swipe = {1066656, 1299987, 1499985, 1699983,
                                        1733316};
  const std::vector<TimePoint> raise = {3533298, 3699963, 3833295, 3999960,
                                        4099959};
  std::vector<SessionDetection> expected = {
      {0, {"swipe_right_0", 1733316, swipe}},
      {1, {"swipe_right_0", 1733316, swipe}},
      {1, {"swipe_right_2", 1733316, swipe}},
      {0, {"raise_hand_1", 4099959, raise}},
  };
  for (const char* version : {"v1", "v2"}) {
    if (std::string(version) == "v2") {
      expected.push_back({0, {"combo", 4099959, {1733316, 4099959}}});
    }
    const std::string committed =
        epl::testing::TestDataDir() + "/snapshots/" + version;
    epl::testing::ScopedTempDir as_written, as_v3;
    CopySnapshots(committed, as_written.path());
    size_t templates = 0;
    EXPECT_EQ(RecoverAndFinish(as_written.path(), &templates), expected)
        << version;
    // Both swipe_right_0 queries bind one template.
    EXPECT_EQ(templates, 3u) << version;

    EPL_ASSERT_OK_AND_ASSIGN(
        durability::Snapshot snapshot,
        durability::ReadLatestSnapshot(durability::DefaultFileSystem(),
                                       committed));
    EPL_ASSERT_OK(durability::WriteSnapshot(durability::DefaultFileSystem(),
                                            as_v3.path(), snapshot));
    EXPECT_EQ(RecoverAndFinish(as_v3.path(), &templates), expected)
        << version << " re-encoded";
  }
}

GestureRuntimeOptions DurableFused(const std::string& dir) {
  GestureRuntimeOptions options;
  options.durability.dir = dir;
  return options;
}

/// The query text each (session, name) row of `snapshot` binds.
std::map<std::pair<int, std::string>, std::string> Bindings(
    const durability::Snapshot& snapshot) {
  std::map<std::pair<int, std::string>, std::string> out;
  for (const durability::QueryState& query : snapshot.queries) {
    out[{query.session, query.name}] =
        snapshot.templates[static_cast<size_t>(query.template_index)]
            .query_text;
  }
  return out;
}

// Version 3 writes each template's text once and recovery compiles each
// once. A recovered template binds only the restored queries: a deploy of
// its gesture after the cut -- WAL-replayed or live -- compiles a template
// of its own, once, and later deploys of that definition hit it.
TEST(TemplateSnapshotTest, V3RoundTripsAndRecoversEachTemplateOnce) {
  epl::testing::ScopedTempDir dir;
  const std::vector<GestureDefinition> defs = TrainedDefinitions(2);
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, DurableFused(dir.path()));
    for (const char* user : {"a", "b", "c"}) {
      EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession(user));
      EPL_ASSERT_OK(runtime.Deploy(id, defs[0], nullptr));
      EPL_ASSERT_OK(runtime.Deploy(id, defs[1], nullptr));
    }
    EPL_ASSERT_OK(runtime.Checkpoint());
    // In the WAL suffix: an identical relearn.
    EPL_ASSERT_OK(runtime.Deploy(1, defs[0], nullptr));
    EPL_ASSERT_OK(runtime.Flush());
  }
  EPL_ASSERT_OK_AND_ASSIGN(
      durability::Snapshot written,
      durability::ReadLatestSnapshot(durability::DefaultFileSystem(),
                                     dir.path()));
  ASSERT_EQ(written.templates.size(), 2u);
  ASSERT_EQ(written.queries.size(), 6u);

  stream::StreamEngine engine;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> recovered,
      GestureRuntime::Recover(&engine, DurableFused(dir.path()), nullptr));
  EXPECT_EQ(recovered->num_deployed(), 6u);
  // The two restored templates, plus the replayed relearn's own.
  EXPECT_EQ(recovered->num_templates(), 3u);
  EPL_ASSERT_OK(recovered->Deploy(2, defs[1], nullptr));
  EXPECT_EQ(recovered->num_templates(), 4u);
  EPL_ASSERT_OK(recovered->Deploy(0, defs[1], nullptr));
  EXPECT_EQ(recovered->num_templates(), 4u);

  // A second checkpoint binds every query to the same text as the first
  // (rows come in a new order: relearned queries have new ids).
  EPL_ASSERT_OK(recovered->Checkpoint());
  EPL_ASSERT_OK_AND_ASSIGN(
      durability::Snapshot rewritten,
      durability::ReadLatestSnapshot(durability::DefaultFileSystem(),
                                     dir.path()));
  EXPECT_EQ(rewritten.templates.size(), 4u);
  EXPECT_EQ(Bindings(rewritten), Bindings(written));
}

// A deploy whose definition is invalid as given is refused, even where
// the session's stream would make the generated query valid: the WAL logs
// the definition as given, and recovery must be able to replay it.
TEST(TemplateSnapshotTest, InvalidSessionDeployIsRefusedAndRecoveryHolds) {
  epl::testing::ScopedTempDir dir;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, DurableFused(dir.path()));
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession("a"));
    GestureDefinition streamless = TrainedDefinitions(1)[0];
    streamless.source_stream.clear();
    Status refused = runtime.Deploy(id, streamless, nullptr);
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused;
    EXPECT_FALSE(runtime.IsDeployed(id, streamless.name));
    EXPECT_EQ(runtime.num_templates(), 0u);
    EPL_ASSERT_OK(runtime.Flush());
  }
  stream::StreamEngine engine;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> recovered,
      GestureRuntime::Recover(&engine, DurableFused(dir.path()), nullptr));
  EXPECT_EQ(recovered->num_deployed(), 0u);
}

// Versions 1 and 2 group rows into templates by exact text, so a local
// query on the session stream and a session deploy of the same gesture
// share one template. Each query still restores in its own scope: the
// session query with its gate, the local one without.
TEST(TemplateSnapshotTest, TemplateBoundInBothScopesRestores) {
  epl::testing::ScopedTempDir source;
  GestureDefinition on_sessions = TrainedDefinitions(1)[0];
  on_sessions.source_stream = kSessionStreamName;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, DurableFused(source.path()));
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession("a"));
    EPL_ASSERT_OK(runtime.Deploy(id, on_sessions, nullptr));
    EPL_ASSERT_OK(runtime.Deploy(on_sessions, nullptr));
    EPL_ASSERT_OK(runtime.Checkpoint());
  }
  EPL_ASSERT_OK_AND_ASSIGN(
      durability::Snapshot snapshot,
      durability::ReadLatestSnapshot(durability::DefaultFileSystem(),
                                     source.path()));
  ASSERT_EQ(snapshot.queries.size(), 2u);
  ASSERT_EQ(snapshot.templates.size(), 2u);
  ASSERT_EQ(snapshot.templates[0].query_text,
            snapshot.templates[1].query_text);
  snapshot.templates.pop_back();
  for (durability::QueryState& query : snapshot.queries) {
    query.template_index = 0;
  }
  epl::testing::ScopedTempDir dir;
  EPL_ASSERT_OK(durability::WriteSnapshot(durability::DefaultFileSystem(),
                                          dir.path(), snapshot));

  stream::StreamEngine engine;
  std::vector<std::pair<int, DetectionRecord>> detections;
  auto factory = [&detections](SessionId session, const std::string&)
      -> cep::DetectionCallback {
    return [&detections, session](const cep::Detection& d) {
      detections.emplace_back(session,
                              DetectionRecord{d.name, d.time, d.pose_times});
    };
  };
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> recovered,
      GestureRuntime::Recover(&engine, DurableFused(dir.path()), factory));
  EXPECT_EQ(recovered->num_deployed(), 2u);
  EXPECT_EQ(recovered->num_templates(), 1u);
  EPL_ASSERT_OK_AND_ASSIGN(SessionId other, recovered->OpenSession("b"));
  // Only session a's performance reaches its query; the local query
  // reads the whole session stream and sees both.
  for (const SkeletonFrame& frame : PerformerFrames(77)) {
    EPL_ASSERT_OK(recovered->PushFrame(0, frame));
  }
  for (const SkeletonFrame& frame : PerformerFrames(78)) {
    EPL_ASSERT_OK(recovered->PushFrame(other, frame));
  }
  EPL_ASSERT_OK(recovered->Flush());
  size_t session_hits = 0;
  size_t local_hits = 0;
  for (const auto& [session, detection] : detections) {
    (session == kLocalSession ? local_hits : session_hits) += 1;
    EXPECT_TRUE(session == 0 || session == kLocalSession) << session;
  }
  EXPECT_GT(session_hits, 0u);
  EXPECT_GT(local_hits, session_hits);
}

// A snapshot whose template text is corrupt (with a valid CRC: the bytes
// were written that way) fails recovery with DataLoss instead of
// restoring a wrong query.
TEST(TemplateSnapshotTest, CorruptTemplateTextIsDataLoss) {
  epl::testing::ScopedTempDir source;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, DurableFused(source.path()));
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession("a"));
    EPL_ASSERT_OK(runtime.Deploy(id, TrainedDefinitions(1)[0], nullptr));
    EPL_ASSERT_OK(runtime.Checkpoint());
  }
  EPL_ASSERT_OK_AND_ASSIGN(
      durability::Snapshot corrupt,
      durability::ReadLatestSnapshot(durability::DefaultFileSystem(),
                                     source.path()));
  ASSERT_EQ(corrupt.templates.size(), 1u);
  corrupt.templates[0].query_text = "select from nowhere (";
  epl::testing::ScopedTempDir dir;
  EPL_ASSERT_OK(durability::WriteSnapshot(durability::DefaultFileSystem(),
                                          dir.path(), corrupt));
  stream::StreamEngine engine;
  Result<std::unique_ptr<GestureRuntime>> recovered =
      GestureRuntime::Recover(&engine, DurableFused(dir.path()), nullptr);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss)
      << recovered.status();
}

}  // namespace
}  // namespace epl::workflow
