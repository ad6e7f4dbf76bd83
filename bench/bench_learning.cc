// E11: learning cost. The paper's workflow is interactive — after each
// recorded sample the miner runs and partial results merge incrementally —
// so learning must be far below human reaction time.

#include <benchmark/benchmark.h>

#include "query/compiler.h"
#include "exp_util.h"

namespace epl {
namespace {

std::vector<std::vector<kinect::SkeletonFrame>> TransformedSamples(
    int count, double duration_s) {
  kinect::GestureShape shape = kinect::GestureShapes::Circle();
  kinect::MotionParams params;
  params.duration_s = duration_s;
  std::vector<std::vector<kinect::SkeletonFrame>> samples;
  for (int i = 0; i < count; ++i) {
    std::vector<kinect::SkeletonFrame> frames = kinect::SynthesizeSample(
        kinect::UserProfile(), shape, 50000 + static_cast<uint64_t>(i),
        params);
    for (kinect::SkeletonFrame& frame : frames) {
      frame = transform::TransformFrame(frame, transform::TransformConfig());
    }
    samples.push_back(std::move(frames));
  }
  return samples;
}

void BM_LearnerFullPipeline(benchmark::State& state) {
  int num_samples = static_cast<int>(state.range(0));
  std::vector<std::vector<kinect::SkeletonFrame>> samples =
      TransformedSamples(num_samples, 1.8);
  kinect::GestureShape shape = kinect::GestureShapes::Circle();
  for (auto _ : state) {
    core::GestureLearner learner(shape.name, shape.InvolvedJoints());
    for (const auto& sample : samples) {
      Status status = learner.AddSample(sample);
      benchmark::DoNotOptimize(status.ok());
    }
    Result<std::string> query = learner.GenerateQueryText();
    benchmark::DoNotOptimize(query.ok());
  }
  state.counters["samples"] = num_samples;
}
BENCHMARK(BM_LearnerFullPipeline)->Arg(1)->Arg(3)->Arg(5)->Arg(10);

void BM_SamplerBySampleLength(benchmark::State& state) {
  double duration = static_cast<double>(state.range(0));
  std::vector<std::vector<kinect::SkeletonFrame>> samples =
      TransformedSamples(1, duration);
  std::vector<core::SamplePoint> points = core::PointsFromFrames(
      samples[0], {kinect::JointId::kRightHand});
  core::DistanceSampler sampler;
  for (auto _ : state) {
    Result<core::SampleSummary> summary = sampler.Run(points);
    benchmark::DoNotOptimize(summary.ok());
  }
  state.counters["frames"] = static_cast<double>(points.size());
}
BENCHMARK(BM_SamplerBySampleLength)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_IncrementalMergeStep(benchmark::State& state) {
  // Cost of adding one more sample to an already trained learner — the
  // per-recording latency the interactive user experiences.
  std::vector<std::vector<kinect::SkeletonFrame>> samples =
      TransformedSamples(6, 1.8);
  kinect::GestureShape shape = kinect::GestureShapes::Circle();
  for (auto _ : state) {
    state.PauseTiming();
    core::GestureLearner learner(shape.name, shape.InvolvedJoints());
    for (int i = 0; i < 5; ++i) {
      EPL_CHECK(learner.AddSample(samples[static_cast<size_t>(i)]).ok());
    }
    state.ResumeTiming();
    Status status = learner.AddSample(samples[5]);
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_IncrementalMergeStep);

void BM_QueryGeneration(benchmark::State& state) {
  core::GestureDefinition definition = bench::TrainDefinition(
      kinect::GestureShapes::Circle(), 4, 51000);
  for (auto _ : state) {
    Result<std::string> text = core::GenerateQueryText(definition);
    benchmark::DoNotOptimize(text.ok());
  }
}
BENCHMARK(BM_QueryGeneration);

void BM_QueryParseCompileDeploy(benchmark::State& state) {
  core::GestureDefinition definition = bench::TrainDefinition(
      kinect::GestureShapes::Circle(), 4, 52000);
  Result<std::string> text = core::GenerateQueryText(definition);
  EPL_CHECK(text.ok());
  for (auto _ : state) {
    stream::StreamEngine engine;
    EPL_CHECK(kinect::RegisterKinectStream(&engine).ok());
    EPL_CHECK(transform::RegisterKinectTView(&engine).ok());
    Result<query::ParsedQuery> parsed = query::ParseQuery(*text);
    EPL_CHECK(parsed.ok());
    Result<stream::DeploymentId> id =
        query::DeployQuery(&engine, *parsed, nullptr);
    benchmark::DoNotOptimize(id.ok());
  }
}
BENCHMARK(BM_QueryParseCompileDeploy);

}  // namespace
}  // namespace epl
