// Producer-thread heap traffic of sharded session ingest.
//
// This executable replaces the global operator new with one that counts
// allocations per thread, so it is built only without sanitizers (their
// runtimes own operator new). It drives a sharded, routed GestureRuntime
// the way a replay client does and checks that, once the window pool and
// every scratch buffer are warm, PushFrame reaches the shard sweep without
// allocating on the producer thread.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cep_workload_test_util.h"
#include "kinect/gesture_shapes.h"
#include "kinect/sensor.h"
#include "stream/engine.h"
#include "test_util.h"
#include "transform/transform.h"
#include "workflow/gesture_runtime.h"

namespace {

thread_local uint64_t t_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* memory = std::malloc(size == 0 ? 1 : size)) {
    return memory;
  }
  throw std::bad_alloc();
}

void operator delete(void* memory) noexcept { std::free(memory); }

void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace epl::workflow {
namespace {

using kinect::GestureShapes;
using kinect::SkeletonFrame;

constexpr int kSessions = 16;
constexpr int kGesturesPerSession = 16;
constexpr size_t kBatch = 128;

TEST(ProducerAllocTest, ShardedRoutedIngestAllocatesNothingPerFrame) {
  // Two learned shapes, deployed under 16 names per session: 256 queries.
  const core::GestureDefinition swipe =
      cep::testing::Train(GestureShapes::SwipeRight(), 10);
  const core::GestureDefinition raise =
      cep::testing::Train(GestureShapes::RaiseHand(), 20);

  // Pre-transformed frames, as a replay client feeds them: each session
  // idles, swipes, idles, raises a hand and idles.
  const transform::TransformConfig config;
  std::vector<std::vector<SkeletonFrame>> scripts;
  size_t longest = 0;
  TimePoint last = 0;
  for (int s = 0; s < kSessions; ++s) {
    kinect::SessionBuilder builder(kinect::UserProfile(),
                                   700 + static_cast<uint64_t>(s));
    builder.Idle(0.1 + 0.05 * s)
        .Perform(GestureShapes::SwipeRight(), 0.2)
        .Idle(0.3)
        .Perform(GestureShapes::RaiseHand(), 0.2)
        .Idle(0.3);
    std::vector<SkeletonFrame> frames = builder.TakeFrames();
    for (SkeletonFrame& frame : frames) {
      frame = transform::TransformFrame(frame, config);
    }
    longest = std::max(longest, frames.size());
    last = std::max(last, frames.back().timestamp);
    scripts.push_back(std::move(frames));
  }
  const TimePoint period = last + kSecond;

  GestureRuntimeOptions options;
  options.backend = RuntimeBackend::kSharded;
  options.num_shards = 2;
  options.batch_size = kBatch;
  options.sync_detections = false;
  options.transform_sessions = false;
  stream::StreamEngine engine;
  GestureRuntime runtime(&engine, options);
  uint64_t detections = 0;
  for (int s = 0; s < kSessions; ++s) {
    EPL_ASSERT_OK_AND_ASSIGN(SessionId id,
                             runtime.OpenSession("user" + std::to_string(s)));
    ASSERT_EQ(id, s);
    for (int g = 0; g < kGesturesPerSession; ++g) {
      core::GestureDefinition definition = g % 2 == 0 ? swipe : raise;
      definition.name += "_" + std::to_string(g);
      EPL_ASSERT_OK(runtime.Deploy(
          s, definition, [&detections](const cep::Detection&) {
            ++detections;
          }));
    }
  }

  // One pass: every session's script, frames interleaved round-robin,
  // shifted forward by `pass` periods so each stream stays monotonic. The
  // client flushes after every fan-out window, so at most one window (and
  // its routed sub-batches) is in flight: the pool's high-water mark, and
  // with it the steady state, is then the same in every pass whatever the
  // shard threads' timing. Flush itself is measured too.
  uint64_t frames_pushed = 0;
  const auto push_pass = [&](int pass) {
    for (size_t i = 0; i < longest; ++i) {
      for (int s = 0; s < kSessions; ++s) {
        const std::vector<SkeletonFrame>& script =
            scripts[static_cast<size_t>(s)];
        if (i >= script.size()) {
          continue;
        }
        SkeletonFrame frame = script[i];
        frame.timestamp += pass * period;
        EPL_CHECK(runtime.PushFrame(s, frame).ok());
        if (++frames_pushed % kBatch == 0) {
          EPL_CHECK(runtime.Flush().ok());
        }
      }
    }
  };

  // Warm-up: the window pool, the FIFOs, every scratch buffer and the
  // delivery path reach their steady-state capacity.
  for (int pass = 0; pass < 2; ++pass) {
    push_pass(pass);
  }
  EPL_ASSERT_OK(runtime.Flush());
  const uint64_t warm_detections = detections;
  ASSERT_GT(warm_detections, 0u);

  const uint64_t warm_frames = frames_pushed;
  const uint64_t before = t_allocations;
  for (int pass = 2; pass < 6; ++pass) {
    push_pass(pass);
  }
  const uint64_t allocations = t_allocations - before;
  const uint64_t frames = frames_pushed - warm_frames;
  EPL_ASSERT_OK(runtime.Flush());
  ASSERT_GT(frames, 0u);
  EXPECT_GT(detections, warm_detections) << "measured passes detected nothing";
  const double per_frame =
      static_cast<double>(allocations) / static_cast<double>(frames);
  EXPECT_LT(per_frame, 0.1) << allocations << " producer-thread allocations "
                            << "over " << frames << " frames";
}

}  // namespace
}  // namespace epl::workflow
