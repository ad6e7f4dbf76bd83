// GestureRuntime durability semantics that the fork/kill harness
// (durability_crash_test.cc) does not pin down structurally: multi-session
// checkpoint/recover state restoration, WAL replay of session open/close
// and deploy/undeploy mutations, recovery from an empty directory, the
// legacy-backend guard, the re-entry and deferral contract of detection
// callbacks, recovery of callback-issued mutations -- plus the session GC
// regression: a close -> reopen cycle leaves no trace in the engine.

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cep_workload_test_util.h"
#include "gesturedb/store.h"
#include "kinect/gesture_shapes.h"
#include "kinect/sensor.h"
#include "kinect/synthesizer.h"
#include "test_util.h"
#include "workflow/gesture_runtime.h"

namespace epl::workflow {
namespace {

using cep::testing::DetectionRecord;
using cep::testing::Recorder;
using cep::testing::TrainedDefinitions;
using kinect::SkeletonFrame;
using kinect::UserProfile;

std::vector<SkeletonFrame> SomeFrames(uint64_t seed) {
  kinect::SessionBuilder builder(UserProfile(), seed);
  builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
  builder.Idle(0.2);
  builder.Perform(kinect::GestureShapes::RaiseHand(), 0.1);
  return builder.TakeFrames();
}

GestureRuntimeOptions DurableOptions(const std::string& dir) {
  GestureRuntimeOptions options;
  options.backend = RuntimeBackend::kFused;
  options.durability.dir = dir;
  options.durability.segment_bytes = 2048;
  options.durability.sync_every_records = 8;
  return options;
}

// ---------------------------------------------------------------------------
// Session GC (regression): close -> reopen leaves no trace.

TEST(SessionGcTest, CloseUnregistersNamespacedStreams) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  const std::vector<std::string> before = engine.StreamNames();

  EPL_ASSERT_OK_AND_ASSIGN(SessionId session, runtime.OpenSession("alice"));
  EXPECT_TRUE(engine.HasStream("alice/kinect"));
  EXPECT_TRUE(engine.HasStream("alice/kinect_t"));
  const std::vector<SkeletonFrame> frames = SomeFrames(5);
  EPL_ASSERT_OK(runtime.PushFrame(session, frames[0]));

  EPL_ASSERT_OK(runtime.CloseSession(session));
  EPL_ASSERT_OK(runtime.Flush());
  EXPECT_FALSE(engine.HasStream("alice/kinect"));
  EXPECT_FALSE(engine.HasStream("alice/kinect_t"));
  // Only the shared session stream (registered on first use, shared by
  // future sessions) may remain beyond the initial set.
  for (const std::string& name : engine.StreamNames()) {
    EXPECT_TRUE(name == kSessionStreamName ||
                std::find(before.begin(), before.end(), name) != before.end())
        << "leaked stream: " << name;
  }
}

TEST(SessionGcTest, CloseReopenCycleIsClean) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  const std::vector<core::GestureDefinition> defs = TrainedDefinitions(1);
  const std::vector<SkeletonFrame> frames = SomeFrames(6);

  std::vector<DetectionRecord> first_cycle, second_cycle;
  for (int cycle = 0; cycle < 2; ++cycle) {
    auto* out = cycle == 0 ? &first_cycle : &second_cycle;
    EPL_ASSERT_OK_AND_ASSIGN(SessionId session, runtime.OpenSession("alice"));
    EPL_ASSERT_OK(runtime.Deploy(session, defs[0], Recorder(out)));
    EPL_ASSERT_OK(runtime.PushFrames(session, frames));
    EPL_ASSERT_OK(runtime.Flush());
    EPL_ASSERT_OK(runtime.CloseSession(session));
    EPL_ASSERT_OK(runtime.Flush());
    EXPECT_EQ(runtime.DeployedGestures(session).size(), 0u);
  }
  // A reopened session behaves exactly like the first one.
  EXPECT_EQ(second_cycle, first_cycle);
  EXPECT_FALSE(first_cycle.empty());
}

TEST(SessionGcTest, ReopenWhileOpenStillFails) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  EPL_ASSERT_OK(runtime.OpenSession("alice").status());
  EXPECT_FALSE(runtime.OpenSession("alice").ok());
}

// ---------------------------------------------------------------------------
// Checkpoint / Recover structural semantics.

TEST(WorkflowDurabilityTest, RecoverRestoresSessionsQueriesAndCounters) {
  epl::testing::ScopedTempDir dir;
  const GestureRuntimeOptions options = DurableOptions(dir.path());
  const std::vector<core::GestureDefinition> defs = TrainedDefinitions(3);
  const std::vector<SkeletonFrame> frames = SomeFrames(7);
  const size_t half = frames.size() / 2;

  SessionId alice = -1;
  SessionId bob = -1;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, options);
    std::vector<DetectionRecord> sink;
    EPL_ASSERT_OK_AND_ASSIGN(alice, runtime.OpenSession("alice"));
    EPL_ASSERT_OK_AND_ASSIGN(bob, runtime.OpenSession("bob"));
    EPL_ASSERT_OK(runtime.Deploy(alice, defs[0], Recorder(&sink)));
    EPL_ASSERT_OK(runtime.Deploy(bob, defs[1], Recorder(&sink)));
    for (size_t i = 0; i < half; ++i) {
      EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
      EPL_ASSERT_OK(runtime.PushFrame(bob, frames[i]));
    }
    EPL_ASSERT_OK(runtime.Checkpoint());
    // Everything below lands in the WAL suffix and must replay.
    EPL_ASSERT_OK(runtime.Deploy(alice, defs[2], Recorder(&sink)));
    EPL_ASSERT_OK(runtime.Undeploy(alice, defs[0].name));
    EPL_ASSERT_OK(runtime.CloseSession(bob));
    for (size_t i = half; i < frames.size(); ++i) {
      EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
    }
    // No Flush, no clean shutdown: the runtime simply goes away.
  }

  stream::StreamEngine engine;
  std::vector<DetectionRecord> recovered_detections;
  RecoverStats stats;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> runtime,
      GestureRuntime::Recover(
          &engine, options,
          [&](SessionId, const std::string&) {
            return Recorder(&recovered_detections);
          },
          &stats));

  // The snapshot covered the pre-checkpoint prefix; the mutations and the
  // second half of alice's frames were replayed from the WAL.
  EXPECT_GT(stats.snapshot_seq, 0u);
  EXPECT_GT(stats.replayed_records, 0u);
  EXPECT_EQ(stats.ingested[alice], frames.size());
  EXPECT_EQ(runtime->ingested_events(alice), frames.size());

  // Alice survived with her post-checkpoint deployment set; bob's close
  // replayed, leaving no session and no streams.
  EPL_ASSERT_OK(runtime->SessionViewStream(alice).status());
  EXPECT_TRUE(runtime->IsDeployed(alice, defs[2].name));
  EXPECT_FALSE(runtime->IsDeployed(alice, defs[0].name));
  EXPECT_FALSE(runtime->SessionViewStream(bob).ok());
  EXPECT_FALSE(engine.HasStream("bob/kinect"));
  EXPECT_FALSE(engine.HasStream("bob/kinect_t"));
  EXPECT_TRUE(engine.HasStream("alice/kinect"));

  // The recovered runtime keeps working: new frames, new sessions, another
  // checkpoint cycle.
  EPL_ASSERT_OK(runtime->PushFrames(alice, SomeFrames(8)));
  EPL_ASSERT_OK(runtime->Flush());
  EPL_ASSERT_OK(runtime->Checkpoint());
  EPL_ASSERT_OK_AND_ASSIGN(SessionId carol, runtime->OpenSession("carol"));
  EXPECT_NE(carol, alice);
  EXPECT_NE(carol, bob);
}

TEST(WorkflowDurabilityTest, SessionIdsNeverRecycleAcrossRecovery) {
  epl::testing::ScopedTempDir dir;
  const GestureRuntimeOptions options = DurableOptions(dir.path());
  SessionId bob = -1;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, options);
    EPL_ASSERT_OK(runtime.OpenSession("alice").status());
    EPL_ASSERT_OK_AND_ASSIGN(bob, runtime.OpenSession("bob"));
    EPL_ASSERT_OK(runtime.CloseSession(bob));
    EPL_ASSERT_OK(runtime.Flush());
    EPL_ASSERT_OK(runtime.Checkpoint());
  }
  stream::StreamEngine engine;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> runtime,
      GestureRuntime::Recover(&engine, options,
                              [](SessionId, const std::string&) {
                                return [](const cep::Detection&) {};
                              }));
  // A new session must not reuse bob's id, even though bob is gone: gates
  // and WAL records encode ids, so recycling one would cross-wire them.
  EPL_ASSERT_OK_AND_ASSIGN(SessionId carol, runtime->OpenSession("carol"));
  EXPECT_GT(carol, bob);
}

TEST(WorkflowDurabilityTest, RecoverFromEmptyDirIsAFreshStart) {
  epl::testing::ScopedTempDir dir;
  const GestureRuntimeOptions options = DurableOptions(dir.path() + "/new");
  stream::StreamEngine engine;
  RecoverStats stats;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> runtime,
      GestureRuntime::Recover(&engine, options,
                              [](SessionId, const std::string&) {
                                return [](const cep::Detection&) {};
                              },
                              &stats));
  EXPECT_EQ(stats.snapshot_seq, 0u);
  EXPECT_EQ(stats.replayed_records, 0u);
  EXPECT_EQ(runtime->num_deployed(), 0u);
  // And it is a perfectly usable durable runtime.
  EPL_ASSERT_OK_AND_ASSIGN(SessionId session, runtime->OpenSession("alice"));
  EPL_ASSERT_OK(runtime->PushFrames(session, SomeFrames(9)));
  EPL_ASSERT_OK(runtime->Checkpoint());
}

TEST(WorkflowDurabilityTest, DurabilityRequiresSharedBackend) {
  epl::testing::ScopedTempDir dir;
  GestureRuntimeOptions options = DurableOptions(dir.path());
  options.backend = RuntimeBackend::kLegacyPerQuery;
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine, options);
  Status status = runtime.OpenSession("alice").status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
}

TEST(WorkflowDurabilityTest, CheckpointRequiresDurability) {
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);  // no durability dir
  EXPECT_EQ(runtime.Checkpoint().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Regression: a mutation issued by a detection callback is applied at the
// next PushFrame/Flush boundary -- after the window whose delivery issued
// it, where the WAL records it -- so recovery from the WAL alone
// reproduces the live detections at every window alignment. (Applied
// mid-window live, a copy deployed from the callback fires once more live
// than after recovery for some lead-ins.)

class CallbackMutationRecoveryTest
    : public ::testing::TestWithParam<std::tuple<RuntimeBackend, bool>> {};

TEST_P(CallbackMutationRecoveryTest, RecoveredDetectionsEqualLive) {
  const auto [backend, undeploy] = GetParam();
  const core::GestureDefinition swipe = TrainedDefinitions(1)[0];
  core::GestureDefinition copy = swipe;
  copy.name += "_copy";
  for (int lead = 0; lead <= 60; lead += 4) {
    SCOPED_TRACE(::testing::Message() << "lead-in " << lead << " frames");
    kinect::SessionBuilder builder(UserProfile(), 7);
    builder.Still(lead / 30.0);
    for (int i = 0; i < 6; ++i) {
      builder.Perform(kinect::GestureShapes::SwipeRight());
    }
    const std::vector<SkeletonFrame> frames = builder.TakeFrames();

    epl::testing::ScopedTempDir dir;
    GestureRuntimeOptions options = DurableOptions(dir.path());
    options.backend = backend;
    options.batch_size = 64;
    options.num_shards = 2;
    std::vector<DetectionRecord> live;
    {
      stream::StreamEngine engine;
      GestureRuntime runtime(&engine, options);
      EPL_ASSERT_OK_AND_ASSIGN(SessionId alice, runtime.OpenSession("alice"));
      bool mutated = false;
      EPL_ASSERT_OK(runtime.Deploy(
          alice, swipe, [&](const cep::Detection& detection) {
            Recorder(&live)(detection);
            if (mutated) {
              return;
            }
            mutated = true;
            EPL_EXPECT_OK(undeploy
                              ? runtime.Undeploy(alice, copy.name)
                              : runtime.Deploy(alice, copy, Recorder(&live)));
          }));
      if (undeploy) {
        EPL_ASSERT_OK(runtime.Deploy(alice, copy, Recorder(&live)));
      }
      EPL_ASSERT_OK(runtime.PushFrames(alice, frames));
      EPL_ASSERT_OK(runtime.Flush());
      ASSERT_TRUE(mutated) << "the swipe was never detected";
    }
    ASSERT_TRUE(std::any_of(live.begin(), live.end(),
                            [&](const DetectionRecord& record) {
                              return record.name == copy.name;
                            }))
        << "the copy never fired live";

    stream::StreamEngine engine;
    std::vector<DetectionRecord> recovered;
    EPL_ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<GestureRuntime> runtime,
        GestureRuntime::Recover(&engine, options,
                                [&](SessionId, const std::string&) {
                                  return Recorder(&recovered);
                                }));
    EPL_ASSERT_OK(runtime->Flush());
    EXPECT_EQ(recovered, live);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CallbackMutationRecoveryTest,
    ::testing::Combine(::testing::Values(RuntimeBackend::kFused,
                                         RuntimeBackend::kSharded),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<RuntimeBackend, bool>>&
           info) {
      return std::string(std::get<0>(info.param) == RuntimeBackend::kFused
                             ? "Fused"
                             : "Sharded") +
             (std::get<1>(info.param) ? "Undeploy" : "Deploy");
    });

// ---------------------------------------------------------------------------
// Re-entry contract: from inside a detection callback, the calls that
// cannot run mid-dispatch return FailedPrecondition -- they neither hang
// nor corrupt the runtime, which keeps detecting afterwards.

class GestureRuntimeReentryTest
    : public ::testing::TestWithParam<RuntimeBackend> {};

TEST_P(GestureRuntimeReentryTest, ControlCallsFromCallbackFail) {
  epl::testing::ScopedTempDir dir;
  GestureRuntimeOptions options = DurableOptions(dir.path() + "/wal");
  options.backend = GetParam();
  options.num_shards = 2;
  EPL_ASSERT_OK_AND_ASSIGN(
      gesturedb::GestureStore store,
      gesturedb::GestureStore::Open(dir.path() + "/store"));
  const core::GestureDefinition swipe = TrainedDefinitions(1)[0];
  kinect::SessionBuilder builder(UserProfile(), 7);
  builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2).Idle(0.5);
  const size_t second_swipe = builder.frames().size();
  builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
  const std::vector<SkeletonFrame> frames = builder.TakeFrames();

  stream::StreamEngine engine;
  GestureRuntime runtime(&engine, options);
  EPL_ASSERT_OK_AND_ASSIGN(SessionId alice, runtime.OpenSession("alice"));
  int detections = 0;
  std::vector<std::pair<std::string, Status>> reentered;
  auto reenter = [&](const cep::Detection&) {
    if (detections++ > 0) {
      return;
    }
    reentered.emplace_back("Flush", runtime.Flush());
    reentered.emplace_back("Checkpoint", runtime.Checkpoint());
    reentered.emplace_back("ResizeShards", runtime.ResizeShards(1));
    reentered.emplace_back("PushFrame", runtime.PushFrame(alice, frames[0]));
    reentered.emplace_back("OpenSession", runtime.OpenSession("bob").status());
    reentered.emplace_back("LoadStore",
                           runtime.LoadStore(alice, store, nullptr).status());
  };
  EPL_ASSERT_OK(runtime.Deploy(alice, swipe, reenter));

  for (size_t i = 0; i < second_swipe; ++i) {
    EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
  }
  EPL_ASSERT_OK(runtime.Flush());
  ASSERT_GT(detections, 0) << "the first swipe was not detected";
  ASSERT_EQ(reentered.size(), 6u);
  for (const auto& [call, status] : reentered) {
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << call << " from a detection callback: " << status;
  }

  // The runtime is intact: the next swipe is detected too.
  const int after_first = detections;
  for (size_t i = second_swipe; i < frames.size(); ++i) {
    EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
  }
  EPL_ASSERT_OK(runtime.Flush());
  EXPECT_GT(detections, after_first);
  EXPECT_EQ(runtime.num_deployed(), 1u);
}

// The deferral contract, identical on every backend: Deploy,
// DeployComposite and Undeploy from a callback return OK, change nothing
// visible until the next PushFrame/Flush boundary, and then apply in
// request order -- the composite after the input it consumes, the
// undeploy of `temp` after its deploy (either inversion would fail the
// Flush with NotFound).
TEST_P(GestureRuntimeReentryTest, MutationsFromCallbackApplyAtNextBoundary) {
  GestureRuntimeOptions options;
  options.backend = GetParam();
  options.num_shards = 2;
  const std::vector<core::GestureDefinition> defs = TrainedDefinitions(2);
  const core::GestureDefinition& swipe = defs[0];
  const core::GestureDefinition& raise = defs[1];
  core::GestureDefinition copy = swipe;
  copy.name += "_copy";
  core::GestureDefinition temp = swipe;
  temp.name += "_temp";
  CompositeDefinition combo;
  combo.name = "combo";
  combo.steps.push_back(CompositeStep{kAnySession, copy.name, 1});
  kinect::SessionBuilder builder(UserProfile(), 7);
  builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2).Idle(0.5);
  const size_t second_swipe = builder.frames().size();
  builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
  const std::vector<SkeletonFrame> frames = builder.TakeFrames();

  stream::StreamEngine engine;
  GestureRuntime runtime(&engine, options);
  EPL_ASSERT_OK_AND_ASSIGN(SessionId alice, runtime.OpenSession("alice"));
  std::vector<DetectionRecord> records;
  bool mutated = false;
  EPL_ASSERT_OK(runtime.Deploy(
      alice, swipe, [&](const cep::Detection& detection) {
        Recorder(&records)(detection);
        if (mutated) {
          return;
        }
        mutated = true;
        EPL_EXPECT_OK(runtime.Deploy(alice, copy, Recorder(&records)));
        EPL_EXPECT_OK(
            runtime.DeployComposite(alice, combo, Recorder(&records)));
        EPL_EXPECT_OK(runtime.Undeploy(alice, raise.name));
        EPL_EXPECT_OK(runtime.Deploy(alice, temp, nullptr));
        EPL_EXPECT_OK(runtime.Undeploy(alice, temp.name));
        EXPECT_FALSE(runtime.IsDeployed(alice, copy.name));
        EXPECT_FALSE(runtime.IsDeployed(alice, combo.name));
        EXPECT_TRUE(runtime.IsDeployed(alice, raise.name));
      }));
  EPL_ASSERT_OK(runtime.Deploy(alice, raise, nullptr));

  for (size_t i = 0; i < second_swipe && !mutated; ++i) {
    EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
  }
  ASSERT_TRUE(mutated) << "the first swipe was not detected";
  // The PushFrame that delivered the detection has returned; nothing has
  // been applied yet.
  EXPECT_FALSE(runtime.IsDeployed(alice, copy.name));
  EXPECT_TRUE(runtime.IsDeployed(alice, raise.name));

  EPL_ASSERT_OK(runtime.Flush());
  EXPECT_TRUE(runtime.IsDeployed(alice, copy.name));
  EXPECT_TRUE(runtime.IsDeployed(alice, combo.name));
  EXPECT_FALSE(runtime.IsDeployed(alice, raise.name));
  EXPECT_FALSE(runtime.IsDeployed(alice, temp.name));
  EXPECT_EQ(runtime.num_deployed(), 3u);

  // The applied set is live: the second swipe fires the gesture, its copy
  // and the composite over the copy.
  records.clear();
  for (size_t i = second_swipe; i < frames.size(); ++i) {
    EPL_ASSERT_OK(runtime.PushFrame(alice, frames[i]));
  }
  EPL_ASSERT_OK(runtime.Flush());
  for (const std::string& name : {swipe.name, copy.name, combo.name}) {
    EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                            [&](const DetectionRecord& record) {
                              return record.name == name;
                            }))
        << name << " did not fire after the boundary";
  }
}

// A deferred mutation that fails at its boundary -- here an Undeploy of a
// gesture that was never deployed, which only the boundary can tell --
// costs the PushFrame that reached the boundary nothing: every frame is
// pushed and logged, the mutation queued behind the failing one still
// applies, and the next Flush reports the error, once. The WAL holds no
// trace of the failed mutation, so recovery reproduces the live run.
TEST_P(GestureRuntimeReentryTest, FailedDeferredMutationNeverFailsPushFrame) {
  epl::testing::ScopedTempDir dir;
  GestureRuntimeOptions options = DurableOptions(dir.path());
  options.backend = GetParam();
  options.num_shards = 2;
  const core::GestureDefinition swipe = TrainedDefinitions(1)[0];
  core::GestureDefinition copy = swipe;
  copy.name += "_copy";
  kinect::SessionBuilder builder(UserProfile(), 7);
  for (int i = 0; i < 3; ++i) {
    builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2).Idle(0.3);
  }
  const std::vector<SkeletonFrame> frames = builder.TakeFrames();

  std::vector<DetectionRecord> live;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine, options);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId alice, runtime.OpenSession("alice"));
    bool mutated = false;
    EPL_ASSERT_OK(runtime.Deploy(
        alice, swipe, [&](const cep::Detection& detection) {
          Recorder(&live)(detection);
          if (mutated) {
            return;
          }
          mutated = true;
          EPL_EXPECT_OK(runtime.Undeploy(alice, "no_such_gesture"));
          EPL_EXPECT_OK(runtime.Deploy(alice, copy, Recorder(&live)));
        }));
    for (const SkeletonFrame& frame : frames) {
      EPL_ASSERT_OK(runtime.PushFrame(alice, frame));
    }
    ASSERT_TRUE(mutated) << "the swipe was never detected";
    EXPECT_EQ(runtime.ingested_events(alice), frames.size());
    EXPECT_TRUE(runtime.IsDeployed(alice, copy.name));
    const Status first = runtime.Flush();
    EXPECT_EQ(first.code(), StatusCode::kNotFound) << first;
    EPL_EXPECT_OK(runtime.Flush());
  }
  ASSERT_TRUE(std::any_of(live.begin(), live.end(),
                          [&](const DetectionRecord& record) {
                            return record.name == copy.name;
                          }))
      << "the copy never fired live";

  stream::StreamEngine engine;
  std::vector<DetectionRecord> recovered;
  RecoverStats stats;
  EPL_ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<GestureRuntime> runtime,
      GestureRuntime::Recover(&engine, options,
                              [&](SessionId, const std::string&) {
                                return Recorder(&recovered);
                              },
                              &stats));
  EXPECT_EQ(stats.snapshot_seq, 0u);  // the WAL alone
  EPL_ASSERT_OK(runtime->Flush());
  EXPECT_EQ(recovered, live);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, GestureRuntimeReentryTest,
    ::testing::Values(RuntimeBackend::kFused, RuntimeBackend::kSharded),
    [](const ::testing::TestParamInfo<RuntimeBackend>& info) {
      return info.param == RuntimeBackend::kFused ? "Fused" : "Sharded";
    });

}  // namespace
}  // namespace epl::workflow
