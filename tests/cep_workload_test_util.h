// Shared workload/fixture helpers for the sharded-engine and dynamic-query
// tests: synthesized kinect event streams and learned gesture definitions
// (same construction as tests/cep_multi_matcher_test.cc).

#ifndef EPL_TESTS_CEP_WORKLOAD_TEST_UTIL_H_
#define EPL_TESTS_CEP_WORKLOAD_TEST_UTIL_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/learner.h"
#include "core/query_gen.h"
#include "kinect/gesture_shapes.h"
#include "kinect/sensor.h"
#include "kinect/synthesizer.h"
#include "query/compiler.h"
#include "transform/transform.h"

namespace epl::cep::testing {

/// Pre-rendered kinect workload: swipes interleaved with idle and
/// distractor motion, in raw sensor space (queries read "kinect").
inline std::vector<stream::Event> Workload(uint64_t seed) {
  kinect::SessionBuilder builder(kinect::UserProfile(), seed);
  for (int i = 0; i < 3; ++i) {
    builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
    builder.Idle(0.2);
    builder.Perform(kinect::GestureShapes::RaiseHand(), 0.1);
    builder.Distract(0.3);
  }
  transform::TransformConfig config;
  std::vector<stream::Event> events;
  events.reserve(builder.frames().size());
  for (const kinect::SkeletonFrame& frame : builder.frames()) {
    events.push_back(
        kinect::FrameToEvent(transform::TransformFrame(frame, config)));
  }
  return events;
}

/// Learns a gesture definition from synthesized recordings, reading the
/// raw "kinect" stream (the workload above is already transformed).
inline core::GestureDefinition Train(const kinect::GestureShape& shape,
                                     uint64_t seed) {
  core::GestureLearner learner(shape.name, shape.InvolvedJoints());
  for (int i = 0; i < 3; ++i) {
    std::vector<kinect::SkeletonFrame> frames = kinect::SynthesizeSample(
        kinect::UserProfile(), shape, seed + static_cast<uint64_t>(i));
    for (kinect::SkeletonFrame& frame : frames) {
      frame = transform::TransformFrame(frame, transform::TransformConfig());
    }
    Status status = learner.AddSample(frames);
    EPL_CHECK(status.ok()) << status;
  }
  Result<core::GestureDefinition> definition = learner.Learn();
  EPL_CHECK(definition.ok()) << definition.status();
  definition->source_stream = "kinect";
  return std::move(definition).value();
}

/// `count` gesture definitions with unique names: jittered variants of two
/// learned base gestures, so queries are mostly distinct yet all fire on
/// the workload. Trained bases are cached across calls.
inline std::vector<core::GestureDefinition> TrainedDefinitions(int count) {
  static const std::vector<core::GestureDefinition>* bases = [] {
    auto* out = new std::vector<core::GestureDefinition>();
    out->push_back(Train(kinect::GestureShapes::SwipeRight(), 100));
    out->push_back(Train(kinect::GestureShapes::RaiseHand(), 200));
    return out;
  }();
  std::vector<core::GestureDefinition> definitions;
  definitions.reserve(static_cast<size_t>(count));
  for (int q = 0; q < count; ++q) {
    core::GestureDefinition variant = (*bases)[q % bases->size()];
    variant.name = variant.name + "_" + std::to_string(q);
    double jitter = 4.0 * ((q / 2) % 3);
    for (core::PoseWindow& pose : variant.poses) {
      for (auto& [joint, window] : pose.joints) {
        (void)joint;
        window.center.y += jitter;
      }
    }
    definitions.push_back(std::move(variant));
  }
  return definitions;
}

/// Compiles the generated query of every definition against the kinect
/// schema.
inline std::vector<query::CompiledQuery> CompileDefinitions(
    const std::vector<core::GestureDefinition>& definitions) {
  std::vector<query::CompiledQuery> compiled;
  compiled.reserve(definitions.size());
  for (const core::GestureDefinition& definition : definitions) {
    Result<query::ParsedQuery> parsed = core::GenerateQuery(definition);
    EPL_CHECK(parsed.ok()) << parsed.status();
    Result<query::CompiledQuery> query =
        query::CompileQuery(*parsed, kinect::KinectSchema());
    EPL_CHECK(query.ok()) << query.status();
    compiled.push_back(std::move(query).value());
  }
  return compiled;
}

/// One recorded detection, comparable across deployments.
struct DetectionRecord {
  std::string name;
  TimePoint time = 0;
  std::vector<TimePoint> pose_times;

  bool operator==(const DetectionRecord& other) const {
    return name == other.name && time == other.time &&
           pose_times == other.pose_times;
  }
  /// gtest prints a mismatching record as "name@time".
  friend void PrintTo(const DetectionRecord& record, std::ostream* os) {
    *os << record.name << "@" << record.time;
  }
};

/// Callback appending (name, time, pose_times) records to `out`.
inline DetectionCallback Recorder(std::vector<DetectionRecord>* out) {
  return [out](const Detection& detection) {
    out->push_back(DetectionRecord{detection.name, detection.time,
                                   detection.pose_times});
  };
}

/// QuerySpec consuming a compiled query.
inline MultiMatchOperator::QuerySpec MakeSpec(query::CompiledQuery compiled,
                                              DetectionCallback callback) {
  MultiMatchOperator::QuerySpec spec;
  spec.output_name = std::move(compiled.name);
  spec.pattern = std::move(compiled.pattern);
  spec.measures = std::move(compiled.measures);
  spec.callback = std::move(callback);
  return spec;
}

}  // namespace epl::cep::testing

#endif  // EPL_TESTS_CEP_WORKLOAD_TEST_UTIL_H_
