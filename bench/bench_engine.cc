// E9 (paper Sec. 3.3.1): the Kinect delivers tuples at 30 Hz, so the
// whole pipeline — transformation view plus all deployed gesture queries —
// has a 33 ms per-frame budget. This bench measures the end-to-end
// per-frame cost with a realistic vocabulary deployed.

#include <benchmark/benchmark.h>

#include "exp_util.h"

namespace epl {
namespace {

std::vector<stream::Event> RawWorkload() {
  kinect::SessionBuilder builder(kinect::UserProfile(), 314);
  for (int i = 0; i < 3; ++i) {
    builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
    builder.Perform(kinect::GestureShapes::Circle(), 0.2);
    builder.Idle(0.5);
  }
  std::vector<stream::Event> events;
  for (const kinect::SkeletonFrame& frame : builder.frames()) {
    events.push_back(kinect::FrameToEvent(frame));
  }
  return events;
}

void BM_EndToEndPipeline(benchmark::State& state) {
  int vocabulary = static_cast<int>(state.range(0));
  stream::StreamEngine engine;
  EPL_CHECK(kinect::RegisterKinectStream(&engine).ok());
  EPL_CHECK(transform::RegisterKinectTView(&engine).ok());
  std::vector<std::string> names = kinect::GestureShapes::Names();
  uint64_t detections = 0;
  for (int q = 0; q < vocabulary; ++q) {
    Result<kinect::GestureShape> shape = kinect::GestureShapes::ByName(
        names[static_cast<size_t>(q) % names.size()]);
    EPL_CHECK(shape.ok());
    core::GestureDefinition definition = bench::TrainDefinition(
        *shape, 3, 40000 + 100 * static_cast<uint64_t>(q));
    definition.name += "_" + std::to_string(q);
    EPL_CHECK(core::DeployGesture(
                  &engine, definition,
                  [&detections](const cep::Detection&) { ++detections; })
                  .ok());
  }

  std::vector<stream::Event> events = RawWorkload();
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      Status status = engine.Push("kinect", event);
      benchmark::DoNotOptimize(status.ok());
    }
  }
  int64_t frames = state.iterations() * static_cast<int64_t>(events.size());
  state.SetItemsProcessed(frames);
  state.counters["queries"] = vocabulary;
  state.counters["frame_budget_us"] = 33333;
  benchmark::DoNotOptimize(detections);
}
BENCHMARK(BM_EndToEndPipeline)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

void BM_TransformViewOnly(benchmark::State& state) {
  stream::StreamEngine engine;
  EPL_CHECK(kinect::RegisterKinectStream(&engine).ok());
  EPL_CHECK(transform::RegisterKinectTView(&engine).ok());
  std::vector<stream::Event> events = RawWorkload();
  for (auto _ : state) {
    for (const stream::Event& event : events) {
      Status status = engine.Push("kinect", event);
      benchmark::DoNotOptimize(status.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_TransformViewOnly);

}  // namespace
}  // namespace epl
