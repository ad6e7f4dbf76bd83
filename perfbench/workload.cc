#include "workload.h"

#include <algorithm>

#include "cep/composite.h"
#include "cep/matcher.h"
#include "core/learner.h"
#include "kinect/sensor.h"
#include "kinect/synthesizer.h"
#include "query/compiler.h"
#include "stream/engine.h"
#include "transform/transform.h"

namespace epl::perfbench {

using kinect::SkeletonFrame;
using workflow::RuntimeBackend;

namespace {

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull +
               b * 0x94D049BB133111EBull + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr int kSamplesPerGesture = 3;

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "fleet_replay") {
    // Offline replay of a large fleet: pre-transformed frames, sharded and
    // routed with session affinity, 2 shards + the producer thread. With 3
    // shards (4 busy threads on 4 vCPUs) over a quarter of a run's latency
    // stretches stalled for milliseconds on a shared host, against under a
    // tenth with 2, and 2 shards also push more frames per second.
    spec.sessions = 256;
    spec.backend = RuntimeBackend::kSharded;
    spec.batch_size = 128;
    spec.num_shards = 2;
    spec.transform = false;
    // A replay client with at most 2048 frames (16 fan-out batches) in
    // flight. Without the bound, a closed loop's detection latency is the
    // depth of the shard FIFOs the producer runs ahead into (up to 64
    // batches each): it flipped between ~0.4 ms and 3 to 8 ms from one
    // stretch of a run to the next with whether the shards or the producer
    // were the slower side.
    spec.flush_every_frames = 2048;
    // 4 passes: ~16k detections, ~250 ms.
    spec.window_passes = 4;
    // A restart deploys 4096 queries into a running sharded engine, ~4 s
    // of single-threaded, memory-bound work whose time follows the host's
    // other tenants: eight, spread over the run, steady its median.
    spec.recover_repeats = 8;
  } else if (name == "durable_ingest") {
    // The full stack with durability on: transform, WAL appends,
    // checkpoints inside the timed phase, then Recover of a fixed suffix.
    // Composites ride along: recovery re-derives them from the replayed
    // base detections. Fused backend: behind a sharded engine, a closed
    // loop's detection latency is the depth of the shard FIFOs the
    // producer runs ahead into, and on a shared host the p99 flipped
    // between 0.3 ms and 5 ms from run to run with whether the shards or
    // the producer were the slower side. The sharded path is measured on
    // fleet_replay.
    spec.sessions = 64;
    spec.composite = true;
    spec.backend = RuntimeBackend::kFused;
    spec.batch_size = 32;
    spec.transform = true;
    spec.durable = true;
    // One checkpoint cycle per window, two passes before its end: every
    // recovery between windows replays the same two-pass WAL suffix.
    spec.checkpoint_every_passes = 4;
    spec.suffix_passes = 2;
    // ~4k detections, ~170 ms.
    spec.window_passes = 4;
    // A set-up or a recovery takes ~0.1 to 0.2 s.
    spec.setup_repeats = 15;
    spec.recover_repeats = 25;
  } else {
    return InvalidArgumentError("unknown workload: " + name);
  }
  if (tiny) {
    spec.sessions = std::max(2, spec.sessions / 32);
    spec.setup_repeats = 1;
    spec.recover_repeats = std::min(spec.recover_repeats, 2);
    spec.checkpoint_every_passes = std::min(spec.checkpoint_every_passes, 2);
    spec.suffix_passes = std::min(spec.suffix_passes, 1);
    spec.window_passes = 2;
  }
  return spec;
}

workflow::GestureRuntimeOptions RuntimeOptions(const WorkloadSpec& spec) {
  workflow::GestureRuntimeOptions options;
  options.backend = spec.backend;
  options.batch_size = spec.batch_size;
  options.num_shards = spec.num_shards;
  options.transform_sessions = spec.transform;
  // Throughput mode: detections surface at batch boundaries and Flush().
  options.sync_detections = false;
  if (spec.durable) {
    // Recover() does not restore the kinect_t view's smoothing state, so
    // with smoothing the detections re-delivered after recovery can differ
    // from the original run's (e.g. 10 of 1998 at seed 25). Per-frame
    // estimates keep the view stateless and recovery exact; the transform
    // does the same work per frame.
    options.transform.estimate_smoothing = 1.0;
    // No fsync between checkpoints: no time-based group commit, and
    // segments large enough (a 4-pass cycle writes ~18 MB) that only
    // Checkpoint() rotates them. An fsync inside PushFrame holds back every
    // detection in flight, and on a shared host its cost followed the
    // disk's other tenants: with the defaults the p99 read 0.3 ms in some
    // runs and 3 to 6 ms in others. Every frame is still appended
    // (buffered write()s), and Checkpoint() still syncs.
    options.durability.sync_interval_ms = 0;
    options.durability.segment_bytes = 64ull << 20;
  }
  return options;
}

GestureSet MakeGestureSet(int count, uint64_t seed) {
  GestureSet set;
  const transform::TransformConfig config;
  for (int g = 0; g < count; ++g) {
    kinect::GestureShape shape = g % 2 == 0
                                     ? kinect::GestureShapes::SwipeRight()
                                     : kinect::GestureShapes::RaiseHand();
    set.names.push_back(shape.name + "_" + std::to_string(g));
    std::vector<std::vector<SkeletonFrame>> samples;
    for (int i = 0; i < kSamplesPerGesture; ++i) {
      std::vector<SkeletonFrame> frames = kinect::SynthesizeSample(
          kinect::UserProfile(), shape,
          Mix(seed, static_cast<uint64_t>(g) + 1, static_cast<uint64_t>(i)));
      for (SkeletonFrame& frame : frames) {
        frame = transform::TransformFrame(frame, config);
      }
      samples.push_back(std::move(frames));
    }
    set.shapes.push_back(std::move(shape));
    set.samples.push_back(std::move(samples));
  }
  return set;
}

Result<core::GestureDefinition> LearnGesture(const GestureSet& set, int g) {
  const size_t index = static_cast<size_t>(g);
  core::GestureLearner learner(set.names[index],
                               set.shapes[index].InvolvedJoints());
  for (const std::vector<SkeletonFrame>& sample : set.samples[index]) {
    EPL_RETURN_IF_ERROR(learner.AddSample(sample));
  }
  return learner.Learn();
}

workflow::CompositeDefinition MakeComposite(const GestureSet& set,
                                            int session) {
  workflow::CompositeDefinition definition;
  definition.name = kCompositeName;
  definition.steps.push_back(
      workflow::CompositeStep{session, set.names[kCompositeFirst], 1});
  definition.steps.push_back(
      workflow::CompositeStep{session, set.names[kCompositeSecond], 1});
  definition.within_seconds = 4.0;
  return definition;
}

Feed MakeFeed(const WorkloadSpec& spec, uint64_t seed) {
  Feed feed;
  const transform::TransformConfig config;
  // Session s starts s / sessions of the way into a 1.6 s stagger, so the
  // fleet's gestures complete spread over the pass, not in one burst.
  constexpr Duration kStagger = 1600 * kMillisecond;
  for (int s = 0; s < spec.sessions; ++s) {
    kinect::SessionBuilder builder(kinect::UserProfile(),
                                   Mix(seed, 1000, static_cast<uint64_t>(s)));
    builder.Idle(0.5);
    builder.Perform(kinect::GestureShapes::SwipeRight(), 0.2);
    builder.Idle(0.4);
    builder.Perform(kinect::GestureShapes::RaiseHand(), 0.1);
    builder.Idle(0.8);
    std::vector<SkeletonFrame> frames = builder.TakeFrames();
    const Duration offset = kStagger * s / spec.sessions;
    for (SkeletonFrame& frame : frames) {
      if (!spec.transform) frame = transform::TransformFrame(frame, config);
      frame.timestamp += offset;
    }
    feed.period = std::max(feed.period,
                           frames.back().timestamp + kinect::kFramePeriod);
    feed.scripts.push_back(std::move(frames));
  }
  for (int s = 0; s < spec.sessions; ++s) {
    for (size_t i = 0; i < feed.scripts[static_cast<size_t>(s)].size(); ++i) {
      feed.order.emplace_back(s, static_cast<int>(i));
    }
  }
  std::stable_sort(feed.order.begin(), feed.order.end(),
                   [&feed](const auto& a, const auto& b) {
                     return feed.scripts[a.first][a.second].timestamp <
                            feed.scripts[b.first][b.second].timestamp;
                   });
  return feed;
}

Status CheckMonotonic(const Feed& feed) {
  for (size_t s = 0; s < feed.scripts.size(); ++s) {
    const std::vector<SkeletonFrame>& script = feed.scripts[s];
    if (script.empty()) {
      return InternalError("session " + std::to_string(s) + " has no frames");
    }
    for (size_t i = 1; i < script.size(); ++i) {
      if (script[i].timestamp <= script[i - 1].timestamp) {
        return InternalError("session " + std::to_string(s) +
                             " timestamps not monotonic at frame " +
                             std::to_string(i));
      }
    }
    // The next pass starts at front + period: it must come strictly later.
    if (script.front().timestamp < 0 ||
        script.back().timestamp >= script.front().timestamp + feed.period) {
      return InternalError("session " + std::to_string(s) +
                           " pass does not fit the pass period");
    }
  }
  return OkStatus();
}

DetKey MakeKey(int gesture, const cep::Detection& detection, Duration shift) {
  DetKey key;
  key.gesture = gesture;
  key.time = detection.time - shift;
  uint64_t hash = 1469598103934665603ull;
  for (TimePoint t : detection.pose_times) {
    hash = (hash ^ static_cast<uint64_t>(t - shift)) * 1099511628211ull;
  }
  key.poses = hash;
  return key;
}

Result<Reference> BuildReference(
    const WorkloadSpec& spec, const Feed& feed,
    const std::vector<core::GestureDefinition>& definitions,
    const GestureSet& set) {
  constexpr int kPasses = 4;
  const int gestures = static_cast<int>(definitions.size());
  std::vector<Expected> got(kPasses, Expected(spec.sessions));
  // Base detections per session in delivery order, for the composite
  // oracle.
  std::vector<std::vector<std::pair<int, cep::Detection>>> base(spec.sessions);
  {
    stream::StreamEngine engine;
    workflow::GestureRuntimeOptions options = RuntimeOptions(spec);
    options.backend = RuntimeBackend::kLegacyPerQuery;
    workflow::GestureRuntime runtime(&engine, options);
    for (int s = 0; s < spec.sessions; ++s) {
      EPL_ASSIGN_OR_RETURN(workflow::SessionId id,
                           runtime.OpenSession("user" + std::to_string(s)));
      if (id != s) return InternalError("unexpected session id");
      for (int g = 0; g < gestures; ++g) {
        EPL_RETURN_IF_ERROR(runtime.Deploy(
            s, definitions[static_cast<size_t>(g)],
            [&, s, g](const cep::Detection& d) {
              const int64_t pass = d.time / feed.period;
              got[static_cast<size_t>(pass)][static_cast<size_t>(s)]
                  .push_back(MakeKey(g, d, pass * feed.period));
              base[static_cast<size_t>(s)].emplace_back(g, d);
            }));
      }
    }
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& [s, i] : feed.order) {
        SkeletonFrame frame = feed.scripts[static_cast<size_t>(s)]
                                          [static_cast<size_t>(i)];
        frame.timestamp += pass * feed.period;
        EPL_RETURN_IF_ERROR(runtime.PushFrame(s, frame));
      }
    }
    EPL_RETURN_IF_ERROR(runtime.Flush());
  }
  if (spec.composite) {
    for (int s = 0; s < spec.sessions; ++s) {
      workflow::CompositeDefinition definition = MakeComposite(set, s);
      EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                           workflow::BuildCompositeQuery(definition));
      EPL_ASSIGN_OR_RETURN(query::CompiledQuery compiled,
                           query::CompileQuery(parsed, cep::DetectionSchema()));
      cep::NfaMatcher matcher(&compiled.pattern);
      std::vector<cep::PatternMatch> matches;
      for (const auto& [g, d] : base[static_cast<size_t>(s)]) {
        matches.clear();
        matcher.Process(
            cep::MakeDerivedEvent(
                cep::GestureTag(set.names[static_cast<size_t>(g)]),
                static_cast<double>(s), d),
            &matches);
        for (const cep::PatternMatch& match : matches) {
          cep::Detection composite;
          composite.time = match.end_time();
          composite.pose_times = match.state_times;
          const int64_t pass = composite.time / feed.period;
          got[static_cast<size_t>(pass)][static_cast<size_t>(s)].push_back(
              MakeKey(gestures, composite, pass * feed.period));
        }
      }
    }
  }
  for (Expected& pass : got) {
    for (std::vector<DetKey>& keys : pass) std::sort(keys.begin(), keys.end());
  }
  for (int pass = 2; pass < kPasses; ++pass) {
    if (got[static_cast<size_t>(pass)] != got[1]) {
      return InternalError("reference detections differ between pass 1 and " +
                           std::to_string(pass) +
                           ": the steady-state expectation is not exact");
    }
  }
  size_t total = 0;
  for (const std::vector<DetKey>& keys : got[1]) total += keys.size();
  if (total == 0) return InternalError("reference produced no detections");
  Reference reference;
  reference.first = std::move(got[0]);
  reference.steady = std::move(got[1]);
  return reference;
}

}  // namespace epl::perfbench
