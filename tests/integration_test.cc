// Cross-module integration tests: the full production flow the README
// advertises — learn, persist, reload, deploy, exchange at runtime — plus
// randomized round-trip properties that cross module boundaries.

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "apps/binding.h"
#include "common/rng.h"
#include "core/learner.h"
#include "gesturedb/serialization.h"
#include "gesturedb/store.h"
#include "kinect/sensor.h"
#include "kinect/synthesizer.h"
#include "kinect/trace_io.h"
#include "optimize/overlap.h"
#include "query/compiler.h"
#include "query/unparser.h"
#include "test_util.h"
#include "transform/transform.h"
#include "transform/view.h"

namespace epl {
namespace {

using kinect::GestureShape;
using kinect::GestureShapes;
using kinect::JointId;
using kinect::SkeletonFrame;
using kinect::UserProfile;

core::GestureDefinition Train(const GestureShape& shape, int samples,
                              uint64_t seed) {
  core::GestureLearner learner(shape.name, shape.InvolvedJoints());
  for (int i = 0; i < samples; ++i) {
    std::vector<SkeletonFrame> frames = kinect::SynthesizeSample(
        UserProfile(), shape, seed + static_cast<uint64_t>(i));
    for (SkeletonFrame& frame : frames) {
      frame = transform::TransformFrame(frame, transform::TransformConfig());
    }
    EPL_CHECK(learner.AddSample(frames).ok());
  }
  Result<core::GestureDefinition> definition = learner.Learn();
  EPL_CHECK(definition.ok());
  return std::move(definition).value();
}

TEST(IntegrationTest, LearnPersistReloadDetect) {
  // Learn -> store -> reload from disk -> generate query text -> parse ->
  // deploy -> detect. Exercises every serialization boundary.
  testing::ScopedTempDir dir;
  EPL_ASSERT_OK_AND_ASSIGN(gesturedb::GestureStore store,
                           gesturedb::GestureStore::Open(dir.path()));
  GestureShape shape = GestureShapes::RaiseHand();
  EPL_ASSERT_OK(store.Put(Train(shape, 3, 100)));

  EPL_ASSERT_OK_AND_ASSIGN(core::GestureDefinition loaded,
                           store.Get("raise_hand"));
  EPL_ASSERT_OK_AND_ASSIGN(std::string query_text,
                           core::GenerateQueryText(loaded));
  EPL_ASSERT_OK_AND_ASSIGN(query::ParsedQuery parsed,
                           query::ParseQuery(query_text));

  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  EPL_ASSERT_OK(transform::RegisterKinectTView(&engine));
  int detections = 0;
  EPL_ASSERT_OK(query::DeployQuery(&engine, parsed,
                                   [&detections](const cep::Detection&) {
                                     ++detections;
                                   })
                    .status());
  UserProfile user;
  user.height_mm = 1500;
  kinect::SessionBuilder session(user, 200);
  session.Idle(0.5).Perform(shape, 0.4).Idle(0.5);
  EPL_ASSERT_OK(kinect::PlayFrames(&engine, session.frames()));
  EXPECT_EQ(detections, 1);
}

TEST(IntegrationTest, RuntimeGestureExchange) {
  // The paper's demo finale: swap the deployed gesture while the engine
  // keeps running.
  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  EPL_ASSERT_OK(transform::RegisterKinectTView(&engine));

  int swipe_hits = 0;
  int circle_hits = 0;
  core::GestureDefinition swipe = Train(GestureShapes::SwipeRight(), 3, 300);
  core::GestureDefinition circle = Train(GestureShapes::Circle(), 3, 310);

  EPL_ASSERT_OK_AND_ASSIGN(
      stream::DeploymentId swipe_id,
      core::DeployGesture(&engine, swipe, [&swipe_hits](const cep::Detection&) {
        ++swipe_hits;
      }));

  UserProfile user;
  kinect::SessionBuilder first(user, 320);
  first.Idle(0.5).Perform(GestureShapes::SwipeRight(), 0.4).Idle(0.5);
  EPL_ASSERT_OK(kinect::PlayFrames(&engine, first.frames()));
  EXPECT_EQ(swipe_hits, 1);

  // Exchange: undeploy swipe, deploy circle.
  EPL_ASSERT_OK(engine.Undeploy(swipe_id));
  EPL_ASSERT_OK(core::DeployGesture(&engine, circle,
                                    [&circle_hits](const cep::Detection&) {
                                      ++circle_hits;
                                    })
                    .status());
  kinect::SessionBuilder second(user, 321);
  second.Idle(0.5)
      .Perform(GestureShapes::SwipeRight(), 0.4)  // no longer detected
      .Idle(0.4)
      .Perform(GestureShapes::Circle(), 0.4)
      .Idle(0.5);
  EPL_ASSERT_OK(kinect::PlayFrames(&engine, second.frames()));
  EXPECT_EQ(swipe_hits, 1) << "undeployed gesture must stay silent";
  EXPECT_EQ(circle_hits, 1);
}

TEST(IntegrationTest, ThreadedRunnerDetectsGestures) {
  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  EPL_ASSERT_OK(transform::RegisterKinectTView(&engine));
  core::GestureDefinition def = Train(GestureShapes::PushForward(), 3, 400);
  std::atomic<int> detections{0};
  EPL_ASSERT_OK(core::DeployGesture(&engine, def,
                                    [&detections](const cep::Detection&) {
                                      detections.fetch_add(1);
                                    })
                    .status());
  kinect::SessionBuilder session(UserProfile(), 410);
  session.Idle(0.5).Perform(GestureShapes::PushForward(), 0.4).Idle(0.5);

  // A thread other than the one that deployed drives the stream.
  Status producer_status;
  std::thread producer([&] {
    for (const SkeletonFrame& frame : session.frames()) {
      producer_status = engine.Push("kinect", kinect::FrameToEvent(frame));
      if (!producer_status.ok()) {
        return;
      }
    }
  });
  producer.join();
  EPL_ASSERT_OK(producer_status);
  EXPECT_EQ(detections.load(), 1);
}

TEST(IntegrationTest, StoredVocabularyValidatesWithoutOverlap) {
  // A store full of learned gestures passes the Sec. 3.3.3 validator.
  testing::ScopedTempDir dir;
  EPL_ASSERT_OK_AND_ASSIGN(gesturedb::GestureStore store,
                           gesturedb::GestureStore::Open(dir.path()));
  const char* names[] = {"swipe_right", "circle", "push_forward"};
  uint64_t seed = 500;
  for (const char* name : names) {
    EPL_ASSERT_OK_AND_ASSIGN(GestureShape shape, GestureShapes::ByName(name));
    EPL_ASSERT_OK(store.Put(Train(shape, 3, seed += 10)));
  }
  EPL_ASSERT_OK_AND_ASSIGN(std::vector<std::string> stored, store.List());
  std::vector<core::GestureDefinition> vocabulary;
  for (const std::string& name : stored) {
    EPL_ASSERT_OK_AND_ASSIGN(core::GestureDefinition def, store.Get(name));
    vocabulary.push_back(std::move(def));
  }
  EXPECT_TRUE(optimize::ValidateVocabulary(vocabulary).empty());
}

TEST(IntegrationTest, RouterDrivesDetectionsFromEngine) {
  // Detections flow engine -> router -> application command.
  stream::StreamEngine engine;
  EPL_ASSERT_OK(kinect::RegisterKinectStream(&engine));
  EPL_ASSERT_OK(transform::RegisterKinectTView(&engine));
  apps::GestureCommandRouter router;
  int commands = 0;
  router.Bind("hands_up", [&commands](const cep::Detection&) { ++commands; });
  core::GestureDefinition def = Train(GestureShapes::HandsUp(), 3, 600);
  EPL_ASSERT_OK(
      core::DeployGesture(&engine, def, router.AsCallback()).status());
  kinect::SessionBuilder session(UserProfile(), 610);
  session.Idle(0.5).Perform(GestureShapes::HandsUp(), 0.4).Idle(0.5);
  EPL_ASSERT_OK(kinect::PlayFrames(&engine, session.frames()));
  EXPECT_EQ(commands, 1);
  EXPECT_EQ(router.unhandled(), 0u);
}

// Randomized property: serialization round-trips arbitrary well-formed
// definitions bit-exactly through text.
class SerializationRoundTripProperty : public ::testing::TestWithParam<int> {
};

TEST_P(SerializationRoundTripProperty, RandomDefinitionsRoundTrip) {
  Rng rng(900 + static_cast<uint64_t>(GetParam()));
  core::GestureDefinition def;
  def.name = "g" + std::to_string(GetParam());
  def.sample_count = static_cast<int>(rng.UniformInt(1, 9));
  def.joints = {JointId::kRightHand};
  if (rng.Bernoulli(0.5)) {
    def.joints.push_back(JointId::kLeftHand);
  }
  int poses = static_cast<int>(rng.UniformInt(1, 6));
  for (int p = 0; p < poses; ++p) {
    core::PoseWindow pose;
    for (JointId joint : def.joints) {
      core::JointWindow window;
      window.center = Vec3(rng.Uniform(-900, 900), rng.Uniform(-900, 900),
                           rng.Uniform(-900, 900));
      window.half_width =
          Vec3(rng.Uniform(1, 300), rng.Uniform(1, 300),
               rng.Uniform(1, 300));
      // Randomly deactivate one axis (keep at least one active).
      if (rng.Bernoulli(0.3)) {
        window.active[static_cast<size_t>(rng.UniformInt(0, 2))] = false;
      }
      pose.joints[joint] = window;
    }
    pose.max_gap = p == 0 ? 0 : rng.UniformInt(1, 5) * kSecond;
    def.poses.push_back(std::move(pose));
  }
  EPL_ASSERT_OK(def.Validate());

  std::string text = gesturedb::Serialize(def);
  EPL_ASSERT_OK_AND_ASSIGN(core::GestureDefinition loaded,
                           gesturedb::Deserialize(text));
  // Serialization is canonical: serializing again yields identical text.
  EXPECT_EQ(gesturedb::Serialize(loaded), text);
  // And the generated queries agree.
  Result<std::string> original_query = core::GenerateQueryText(def);
  Result<std::string> loaded_query = core::GenerateQueryText(loaded);
  ASSERT_EQ(original_query.ok(), loaded_query.ok());
  if (original_query.ok()) {
    EXPECT_EQ(*original_query, *loaded_query);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SerializationRoundTripProperty,
                         ::testing::Range(0, 25));

// Randomized property: generated query text always re-parses and
// compiles against the kinect_t schema, for arbitrary learned gestures.
class QueryRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(QueryRoundTripProperty, GeneratedQueriesReparseAndCompile) {
  std::vector<std::string> names = GestureShapes::Names();
  const std::string& name = names[static_cast<size_t>(GetParam()) %
                                  names.size()];
  EPL_ASSERT_OK_AND_ASSIGN(GestureShape shape, GestureShapes::ByName(name));
  core::GestureDefinition def =
      Train(shape, 2 + GetParam() % 3,
            1000 + 37 * static_cast<uint64_t>(GetParam()));
  EPL_ASSERT_OK_AND_ASSIGN(std::string text, core::GenerateQueryText(def));
  EPL_ASSERT_OK_AND_ASSIGN(query::ParsedQuery parsed,
                           query::ParseQuery(text));
  EXPECT_EQ(query::FormatQuery(parsed), text);
  EPL_ASSERT_OK_AND_ASSIGN(
      query::CompiledQuery compiled,
      query::CompileQuery(parsed, transform::KinectTSchema()));
  EXPECT_EQ(compiled.pattern.num_states(),
            static_cast<int>(def.poses.size()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, QueryRoundTripProperty,
                         ::testing::Range(0, 16));

TEST(IntegrationTest, PaperTraceEndToEndViaQueryText) {
  // The E1 flow as a regression test: paper trace -> learn -> query text
  // -> parse -> deploy -> exactly one detection.
  std::string path = testing::TestDataDir() + "/fig1_swipe_right.csv";
  EPL_ASSERT_OK_AND_ASSIGN(std::vector<stream::Event> events,
                           kinect::ReadPaperTrace(path));
  std::vector<core::SamplePoint> points;
  for (const stream::Event& event : events) {
    core::SamplePoint point;
    point.timestamp = event.timestamp;
    point.joints[JointId::kRightHand] =
        Vec3(event.values[3] - event.values[0],
             event.values[4] - event.values[1],
             event.values[5] - event.values[2]);
    points.push_back(std::move(point));
  }
  core::LearnerConfig config;
  config.sampler.threshold_pct = 0.34;
  config.source_stream = "trace";
  core::GestureLearner learner("swipe_right", {JointId::kRightHand},
                               config);
  EPL_ASSERT_OK(learner.AddSamplePoints(points));
  EPL_ASSERT_OK_AND_ASSIGN(core::GestureDefinition def, learner.Learn());
  EXPECT_EQ(def.poses.size(), 3u);  // the paper's three windows

  EPL_ASSERT_OK_AND_ASSIGN(std::string text, learner.GenerateQueryText());
  stream::StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream(
      "trace",
      stream::Schema(std::vector<std::string>{"rHand_x", "rHand_y",
                                              "rHand_z"})));
  int detections = 0;
  EPL_ASSERT_OK_AND_ASSIGN(query::ParsedQuery parsed, query::ParseQuery(text));
  EPL_ASSERT_OK(query::DeployQuery(&engine, parsed,
                                   [&detections](const cep::Detection&) {
                                     ++detections;
                                   })
                    .status());
  for (const stream::Event& event : events) {
    stream::Event relative(event.timestamp,
                           {event.values[3] - event.values[0],
                            event.values[4] - event.values[1],
                            event.values[5] - event.values[2]});
    EPL_ASSERT_OK(engine.Push("trace", relative));
  }
  EXPECT_EQ(detections, 1);
}

}  // namespace
}  // namespace epl
