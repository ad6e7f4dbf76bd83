// GestureRuntime: the session layer multiplexing the learning workflow
// over the shared matching runtime.
//
// The headline property is the DIFFERENTIAL GUARANTEE of the refactor: a
// full interactive controller session -- control gestures, three learned
// gestures, one mid-session re-learn, all driven purely by performed
// gestures -- produces bit-identical detections whether the controller's
// queries run on the legacy per-query deployment, on one fused operator,
// or on a sharded engine at 1 or 4 shards.

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cep_workload_test_util.h"
#include "gesturedb/store.h"
#include "kinect/sensor.h"
#include "test_util.h"
#include "workflow/controller.h"
#include "workflow/gesture_runtime.h"

namespace epl::workflow {
namespace {

using cep::testing::DetectionRecord;
using cep::testing::Recorder;
using cep::testing::Train;
using cep::testing::Workload;
using kinect::GestureShapes;
using kinect::JointId;
using kinect::SkeletonFrame;
using kinect::UserProfile;

// ---------------------------------------------------------------------------
// Full-session differential across backends.

/// One scripted interactive session: the frame stream plus controller
/// actions to fire at exact frame indices. Built once, replayed against
/// every backend.
struct SessionScript {
  std::vector<SkeletonFrame> frames;
  std::vector<std::pair<size_t, std::function<Status(LearningController&)>>>
      actions;
};

SessionScript BuildScript() {
  SessionScript script;
  UserProfile user;
  kinect::SessionBuilder builder(user, 4242);
  auto act = [&](std::function<Status(LearningController&)> action) {
    script.actions.emplace_back(builder.frames().size(), std::move(action));
  };
  auto learn = [&](const std::string& name, const kinect::GestureShape& shape,
                   int samples) {
    act([name](LearningController& controller) {
      return controller.BeginGesture(name, {JointId::kRightHand,
                                            JointId::kLeftHand});
    });
    builder.Idle(0.5);
    for (int i = 0; i < samples; ++i) {
      builder.Perform(GestureShapes::Wave());  // control: arm recording
      builder.Perform(shape, /*dwell_s=*/0.9);
      builder.Idle(0.4);
    }
    builder.Perform(GestureShapes::TwoHandSwipe());  // control: finish
    builder.Idle(0.5);
    builder.Perform(shape, 0.4);  // testing-phase detection
    builder.Idle(0.5);
  };

  learn("g_swipe", GestureShapes::SwipeRight(), 2);
  learn("g_raise", GestureShapes::RaiseHand(), 2);
  learn("g_push", GestureShapes::PushForward(), 2);
  // Re-learn the second gesture mid-session: the live query hot-swaps.
  learn("g_raise", GestureShapes::RaiseHand(), 1);
  // Testing tail exercising every live gesture.
  builder.Perform(GestureShapes::SwipeRight(), 0.4);
  builder.Idle(0.4);
  builder.Perform(GestureShapes::RaiseHand(), 0.4);
  builder.Idle(0.4);
  builder.Perform(GestureShapes::PushForward(), 0.4);
  builder.Idle(0.4);
  script.frames = builder.TakeFrames();
  return script;
}

struct SessionResult {
  std::vector<DetectionRecord> detections;
  std::vector<std::string> deployed_events;  // on_deployed, in order
  std::vector<std::string> statuses;
  int samples = 0;
  ControllerPhase phase = ControllerPhase::kIdle;

  bool operator==(const SessionResult& other) const {
    return detections == other.detections &&
           deployed_events == other.deployed_events &&
           statuses == other.statuses && samples == other.samples &&
           phase == other.phase;
  }
};

SessionResult RunSession(const SessionScript& script,
                         const GestureRuntimeOptions& runtime_options) {
  SessionResult result;
  stream::StreamEngine engine;
  ControllerConfig config;
  config.runtime = runtime_options;
  ControllerEvents events;
  events.on_status = [&](const std::string& s) {
    result.statuses.push_back(s);
  };
  events.on_deployed = [&](const std::string& name, const std::string&) {
    result.deployed_events.push_back(name);
  };
  events.on_sample = [&](int index, int) { result.samples = index; };
  events.on_detection = [&](const cep::Detection& d) {
    result.detections.push_back(
        DetectionRecord{d.name, d.time, d.pose_times});
  };
  LearningController controller(&engine, nullptr, config, events);
  EPL_CHECK(controller.Init().ok());
  size_t next_action = 0;
  for (size_t i = 0; i < script.frames.size(); ++i) {
    while (next_action < script.actions.size() &&
           script.actions[next_action].first == i) {
      Status status = script.actions[next_action].second(controller);
      EPL_CHECK(status.ok()) << status;
      ++next_action;
    }
    Status status = controller.PushFrame(script.frames[i]);
    EPL_CHECK(status.ok()) << status;
  }
  result.phase = controller.phase();
  return result;
}

// The acceptance differential: control gestures + 3 learned gestures + one
// re-learn, bit-identical on the shared runtime vs the legacy per-query
// deployment, at 1 shard and 4 shards.
TEST(GestureRuntimeDifferentialTest, FullControllerSessionAllBackends) {
  const SessionScript script = BuildScript();

  GestureRuntimeOptions legacy;
  legacy.backend = RuntimeBackend::kLegacyPerQuery;
  const SessionResult baseline = RunSession(script, legacy);

  // The session actually exercised the workflow: every gesture was
  // deployed (g_raise twice -- the re-learn), detections fired.
  EXPECT_EQ(baseline.deployed_events,
            (std::vector<std::string>{"g_swipe", "g_raise", "g_push",
                                      "g_raise"}));
  EXPECT_EQ(baseline.phase, ControllerPhase::kTesting);
  EXPECT_FALSE(baseline.detections.empty());
  std::map<std::string, int> per_gesture;
  for (const DetectionRecord& record : baseline.detections) {
    ++per_gesture[record.name];
  }
  EXPECT_GE(per_gesture["g_swipe"], 1);
  EXPECT_GE(per_gesture["g_raise"], 1);
  EXPECT_GE(per_gesture["g_push"], 1);

  GestureRuntimeOptions fused;
  fused.backend = RuntimeBackend::kFused;
  EXPECT_TRUE(RunSession(script, fused) == baseline)
      << "fused runtime diverged from legacy per-query deployment";

  GestureRuntimeOptions sharded1;
  sharded1.backend = RuntimeBackend::kSharded;
  sharded1.num_shards = 1;
  EXPECT_TRUE(RunSession(script, sharded1) == baseline)
      << "1-shard runtime diverged from legacy per-query deployment";

  GestureRuntimeOptions sharded4;
  sharded4.backend = RuntimeBackend::kSharded;
  sharded4.num_shards = 4;
  EXPECT_TRUE(RunSession(script, sharded4) == baseline)
      << "4-shard runtime diverged from legacy per-query deployment";
}

// ---------------------------------------------------------------------------
// Multi-session: one shared runtime, per-session routing and isolation.

/// Merges per-user frame scripts into one global timestamp-ordered push
/// sequence (the merged session stream is one timeline). Stable: ties and
/// within-session order keep the listed session order.
std::vector<std::pair<SessionId, SkeletonFrame>> MergeByTime(
    const std::vector<std::pair<SessionId, std::vector<SkeletonFrame>>>&
        per_user) {
  std::vector<std::pair<SessionId, SkeletonFrame>> merged;
  for (const auto& [session, frames] : per_user) {
    for (const SkeletonFrame& frame : frames) {
      merged.emplace_back(session, frame);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.timestamp < b.second.timestamp;
                   });
  return merged;
}

TEST(GestureRuntimeSessionTest, SessionsShareOneRuntimeWithIsolation) {
  const core::GestureDefinition swipe = Train(GestureShapes::SwipeRight(), 10);
  const core::GestureDefinition raise = Train(GestureShapes::RaiseHand(), 20);

  UserProfile user;
  kinect::SessionBuilder alice_builder(user, 501);
  alice_builder.Idle(0.4).Perform(GestureShapes::SwipeRight(), 0.3).Idle(0.5);
  kinect::SessionBuilder bob_builder(user, 502);
  bob_builder.Idle(0.5).Perform(GestureShapes::RaiseHand(), 0.3).Idle(0.4);

  // Reference: each user on a private runtime.
  std::vector<DetectionRecord> alice_solo, bob_solo;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId alice, runtime.OpenSession("alice"));
    EPL_ASSERT_OK(runtime.Deploy(alice, swipe, Recorder(&alice_solo)));
    EPL_ASSERT_OK(runtime.PushFrames(alice, alice_builder.frames()));
  }
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId bob, runtime.OpenSession("bob"));
    EPL_ASSERT_OK(runtime.Deploy(bob, raise, Recorder(&bob_solo)));
    EPL_ASSERT_OK(runtime.PushFrames(bob, bob_builder.frames()));
  }
  ASSERT_FALSE(alice_solo.empty());
  ASSERT_FALSE(bob_solo.empty());

  // Both users on ONE shared runtime, frames interleaved: detections are
  // routed per session and identical to the private runs.
  std::vector<DetectionRecord> alice_shared, bob_shared;
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine);
  EPL_ASSERT_OK_AND_ASSIGN(SessionId alice, runtime.OpenSession("alice"));
  EPL_ASSERT_OK_AND_ASSIGN(SessionId bob, runtime.OpenSession("bob"));
  // Both sessions deploy BOTH gestures: isolation must come from session
  // routing, not from disjoint query sets.
  EPL_ASSERT_OK(runtime.Deploy(alice, swipe, Recorder(&alice_shared)));
  EPL_ASSERT_OK(runtime.Deploy(alice, raise, Recorder(&alice_shared)));
  EPL_ASSERT_OK(runtime.Deploy(bob, swipe, Recorder(&bob_shared)));
  EPL_ASSERT_OK(runtime.Deploy(bob, raise, Recorder(&bob_shared)));
  // One shared channel hosts all four queries.
  EXPECT_EQ(runtime.num_channels(), 1u);
  EXPECT_EQ(runtime.num_deployed(), 4u);

  for (const auto& [session, frame] :
       MergeByTime({{alice, alice_builder.frames()},
                    {bob, bob_builder.frames()}})) {
    EPL_ASSERT_OK(runtime.PushFrame(session, frame));
  }
  // Alice deployed `raise` too but never performed it; bob vice versa --
  // the private-run reference (which only had the performed gesture) must
  // match exactly, proving no cross-session leakage.
  EXPECT_EQ(alice_shared, alice_solo);
  EXPECT_EQ(bob_shared, bob_solo);

  // Closing a session retires its queries; the other session is untouched.
  EPL_ASSERT_OK(runtime.CloseSession(bob));
  EXPECT_EQ(runtime.num_deployed(), 2u);
  EXPECT_TRUE(runtime.IsDeployed(alice, "swipe_right"));
  EXPECT_FALSE(runtime.IsDeployed(bob, "raise_hand"));
}

// Session gates are disjoint intervals on the session field, so the
// matcher resolves every one of them by key: no gate group is left on the
// general path, on either backend, while detections stay per session.
TEST(GestureRuntimeSessionTest, SessionGatesTakeTheKeyPath) {
  const core::GestureDefinition swipe = Train(GestureShapes::SwipeRight(), 10);
  const core::GestureDefinition raise = Train(GestureShapes::RaiseHand(), 20);
  UserProfile user;
  kinect::SessionBuilder alice_builder(user, 501);
  alice_builder.Idle(0.4).Perform(GestureShapes::SwipeRight(), 0.3).Idle(0.5);
  kinect::SessionBuilder bob_builder(user, 502);
  bob_builder.Idle(0.5).Perform(GestureShapes::RaiseHand(), 0.3).Idle(0.4);

  for (RuntimeBackend backend :
       {RuntimeBackend::kFused, RuntimeBackend::kSharded}) {
    SCOPED_TRACE(backend == RuntimeBackend::kFused ? "fused" : "sharded");
    stream::StreamEngine engine;
    GestureRuntimeOptions options;
    options.backend = backend;
    options.num_shards = 2;
    GestureRuntime runtime(&engine, options);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId alice, runtime.OpenSession("alice"));
    EPL_ASSERT_OK_AND_ASSIGN(SessionId bob, runtime.OpenSession("bob"));
    std::vector<DetectionRecord> alice_records, bob_records;
    for (const core::GestureDefinition* definition : {&swipe, &raise}) {
      EPL_ASSERT_OK(
          runtime.Deploy(alice, *definition, Recorder(&alice_records)));
      EPL_ASSERT_OK(runtime.Deploy(bob, *definition, Recorder(&bob_records)));
    }
    for (const auto& [session, frame] :
         MergeByTime({{alice, alice_builder.frames()},
                      {bob, bob_builder.frames()}})) {
      EPL_ASSERT_OK(runtime.PushFrame(session, frame));
    }
    EPL_ASSERT_OK(runtime.Flush());
    EXPECT_EQ(runtime.general_gate_groups(), 0u);
    // Each user performed one gesture and saw only that one.
    ASSERT_FALSE(alice_records.empty());
    ASSERT_FALSE(bob_records.empty());
    for (const DetectionRecord& record : alice_records) {
      EXPECT_EQ(record.name, "swipe_right");
    }
    for (const DetectionRecord& record : bob_records) {
      EXPECT_EQ(record.name, "raise_hand");
    }
  }
}

// Closing a session from inside one of its own detection callbacks takes
// effect synchronously for later requests (a close-then-deploy sequence
// cannot invert), while the close itself -- like a deploy requested just
// before it -- applies in request order at the next event boundary, on
// every backend.
TEST(GestureRuntimeSessionTest, CloseSessionFromCallbackRejectsDeploys) {
  const core::GestureDefinition swipe = Train(GestureShapes::SwipeRight(), 10);
  const core::GestureDefinition raise = Train(GestureShapes::RaiseHand(), 20);
  core::GestureDefinition before_close = raise;
  before_close.name = "before_close";
  UserProfile user;
  kinect::SessionBuilder builder(user, 501);
  builder.Idle(0.4).Perform(GestureShapes::SwipeRight(), 0.3).Idle(0.5);

  for (RuntimeBackend backend :
       {RuntimeBackend::kFused, RuntimeBackend::kSharded}) {
    SCOPED_TRACE(backend == RuntimeBackend::kFused ? "fused" : "sharded");
    stream::StreamEngine engine;
    GestureRuntimeOptions options;
    options.backend = backend;
    options.num_shards = 2;
    GestureRuntime runtime(&engine, options);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession("u"));
    int detections = 0;
    EPL_ASSERT_OK(runtime.Deploy(
        id, swipe, [&](const cep::Detection&) {
          ++detections;
          if (detections > 1) {
            return;
          }
          EPL_EXPECT_OK(runtime.Deploy(id, before_close, nullptr));
          EPL_CHECK(runtime.CloseSession(id).ok());
          Status rejected = runtime.Deploy(id, raise, nullptr);
          EXPECT_EQ(rejected.code(), StatusCode::kNotFound);
        }));
    // Push until the mid-callback close makes the session reject frames.
    Status push_status = OkStatus();
    for (const SkeletonFrame& frame : builder.frames()) {
      push_status = runtime.PushFrame(id, frame);
      if (!push_status.ok()) {
        break;
      }
    }
    EXPECT_GE(detections, 1);
    EXPECT_EQ(push_status.code(), StatusCode::kNotFound);
    // The queued deploy and close both ran at the next frame boundary.
    EXPECT_EQ(runtime.num_deployed(), 0u);
    EXPECT_FALSE(runtime.IsDeployed(id, "swipe_right"));
    EXPECT_FALSE(runtime.IsDeployed(id, before_close.name));
  }
}

TEST(GestureRuntimeSessionTest, ShardedSessionsDetectLikeFused) {
  const core::GestureDefinition swipe = Train(GestureShapes::SwipeRight(), 10);
  UserProfile user;
  kinect::SessionBuilder builder(user, 501);
  builder.Idle(0.4).Perform(GestureShapes::SwipeRight(), 0.3).Idle(0.5);

  std::vector<DetectionRecord> fused_records, sharded_records;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession("u"));
    EPL_ASSERT_OK(runtime.Deploy(id, swipe, Recorder(&fused_records)));
    EPL_ASSERT_OK(runtime.PushFrames(id, builder.frames()));
    EPL_ASSERT_OK(runtime.Flush());
  }
  {
    stream::StreamEngine engine;
    GestureRuntimeOptions options;
    options.backend = RuntimeBackend::kSharded;
    options.num_shards = 3;
    GestureRuntime runtime(&engine, options);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession("u"));
    EPL_ASSERT_OK(runtime.Deploy(id, swipe, Recorder(&sharded_records)));
    EPL_ASSERT_OK(runtime.PushFrames(id, builder.frames()));
    EPL_ASSERT_OK(runtime.Flush());
  }
  EXPECT_EQ(sharded_records, fused_records);
  EXPECT_FALSE(fused_records.empty());
}

TEST(GestureRuntimeSessionTest, ResizeShardsMidStreamKeepsDetections) {
  const core::GestureDefinition swipe = Train(GestureShapes::SwipeRight(), 10);
  UserProfile user;
  kinect::SessionBuilder builder(user, 501);
  builder.Idle(0.4).Perform(GestureShapes::SwipeRight(), 0.3).Idle(0.5);
  const std::vector<SkeletonFrame>& frames = builder.frames();

  std::vector<DetectionRecord> fused_records, resized_records;
  {
    stream::StreamEngine engine;
    GestureRuntime runtime(&engine);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession("u"));
    EPL_ASSERT_OK(runtime.Deploy(id, swipe, Recorder(&fused_records)));
    EPL_ASSERT_OK(runtime.PushFrames(id, frames));
    EPL_ASSERT_OK(runtime.Flush());
    // ResizeShards is a sharded-backend control.
    EXPECT_EQ(runtime.ResizeShards(2).code(),
              StatusCode::kFailedPrecondition);
  }
  {
    stream::StreamEngine engine;
    GestureRuntimeOptions options;
    options.backend = RuntimeBackend::kSharded;
    options.num_shards = 1;
    GestureRuntime runtime(&engine, options);
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id, runtime.OpenSession("u"));
    EPL_ASSERT_OK(runtime.Deploy(id, swipe, Recorder(&resized_records)));
    const size_t half = frames.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      EPL_ASSERT_OK(runtime.PushFrame(id, frames[i]));
    }
    // Grow the fleet mid-gesture; the matcher migrates with its partial
    // runs, so detections spanning the resize must still fire.
    EPL_ASSERT_OK(runtime.ResizeShards(3));
    for (size_t i = half; i < frames.size(); ++i) {
      EPL_ASSERT_OK(runtime.PushFrame(id, frames[i]));
    }
    EPL_ASSERT_OK(runtime.Flush());
  }
  EXPECT_EQ(resized_records, fused_records);
  EXPECT_FALSE(fused_records.empty());
}

// ---------------------------------------------------------------------------
// Boot-time bulk load from the gesture store.

TEST(GestureRuntimeStoreTest, LoadStoreDeploysAllStoredGestures) {
  testing::ScopedTempDir dir;
  EPL_ASSERT_OK_AND_ASSIGN(gesturedb::GestureStore store,
                           gesturedb::GestureStore::Open(dir.path()));
  core::GestureDefinition swipe = Train(GestureShapes::SwipeRight(), 10);
  core::GestureDefinition raise = Train(GestureShapes::RaiseHand(), 20);
  swipe.source_stream = "kinect";
  raise.source_stream = "kinect";
  EPL_ASSERT_OK(store.Put(swipe));
  EPL_ASSERT_OK(store.Put(raise));
  // A poisoned store entry under a reserved control name must be skipped,
  // never hot-swapping a live control query.
  core::GestureDefinition poisoned = swipe;
  poisoned.name = kControlWaveName;
  EPL_ASSERT_OK(store.Put(poisoned));

  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  GestureRuntime runtime(&engine);
  std::vector<DetectionRecord> records;
  EPL_ASSERT_OK_AND_ASSIGN(int loaded,
                           runtime.LoadStore(store, Recorder(&records)));
  EXPECT_EQ(loaded, 2);
  EXPECT_FALSE(runtime.IsDeployed(kControlWaveName));
  EXPECT_EQ(runtime.DeployedGestures(),
            (std::vector<std::string>{"raise_hand", "swipe_right"}));
  // All loaded gestures share ONE fused operator.
  EXPECT_EQ(engine.deployment_count(), 1u);

  for (const stream::Event& event : Workload(77)) {
    EPL_ASSERT_OK(engine.Push("kinect", event));
  }
  bool saw_swipe = false;
  bool saw_raise = false;
  for (const DetectionRecord& record : records) {
    saw_swipe |= record.name == "swipe_right";
    saw_raise |= record.name == "raise_hand";
  }
  EXPECT_TRUE(saw_swipe);
  EXPECT_TRUE(saw_raise);
}

// A controller booting against a non-empty store redeploys the stored
// gestures and reports their detections in the idle phase.
TEST(GestureRuntimeStoreTest, ControllerBootLoadsStoredGestures) {
  testing::ScopedTempDir dir;
  EPL_ASSERT_OK_AND_ASSIGN(gesturedb::GestureStore store,
                           gesturedb::GestureStore::Open(dir.path()));
  core::GestureDefinition stored = Train(GestureShapes::SwipeRight(), 10);
  // The controller feeds raw frames through its kinect_t view.
  stored.source_stream = transform::kKinectTViewName;
  EPL_ASSERT_OK(store.Put(stored));

  stream::StreamEngine engine;
  std::vector<cep::Detection> detections;
  ControllerEvents events;
  events.on_detection = [&](const cep::Detection& d) {
    detections.push_back(d);
  };
  LearningController controller(&engine, &store, ControllerConfig(), events);
  EPL_ASSERT_OK(controller.Init());
  EXPECT_EQ(controller.deployed_gestures(),
            (std::vector<std::string>{"swipe_right"}));

  UserProfile user;
  kinect::SessionBuilder builder(user, 88);
  builder.Idle(0.4).Perform(GestureShapes::SwipeRight(), 0.3).Idle(0.5);
  EPL_ASSERT_OK(controller.PushFrames(builder.frames()));
  ASSERT_FALSE(detections.empty());
  EXPECT_EQ(detections[0].name, "swipe_right");
}

}  // namespace
}  // namespace epl::workflow
