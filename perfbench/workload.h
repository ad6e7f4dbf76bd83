// Workloads of the end-to-end benchmark: their shapes, the seeded inputs
// the load generator produces for them, and the reference detections a
// run is checked against.
//
// Everything random derives from the run's --seed: the learner's training
// samples and every session's SessionBuilder script. The runtime only ever
// receives the generated frames.

#ifndef EPL_PERFBENCH_WORKLOAD_H_
#define EPL_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/gesture_definition.h"
#include "kinect/gesture_shapes.h"
#include "kinect/skeleton.h"
#include "workflow/composite.h"
#include "workflow/gesture_runtime.h"

namespace epl::perfbench {

struct WorkloadSpec {
  std::string name;
  int sessions = 1;
  int gestures = 16;
  /// One "swipe then raise" composite per session.
  bool composite = false;
  workflow::RuntimeBackend backend = workflow::RuntimeBackend::kFused;
  size_t batch_size = 1;
  int num_shards = 1;
  /// Raw Kinect frames through each session's kinect_t view; off feeds
  /// frames already transformed by the generator.
  bool transform = true;
  bool durable = false;
  /// Durable: one Checkpoint() per this many passes.
  int checkpoint_every_passes = 0;
  /// Durable: passes between a checkpoint and the end of its window (the
  /// WAL suffix each recovery replays).
  int suffix_passes = 0;
  /// Set-ups per run, the serving one included; their median is reported.
  int setup_repeats = 3;
  /// Recoveries (durable) or cold restarts per run; their median is
  /// reported.
  int recover_repeats = 3;
  /// Passes per window. Probes (set-ups, recoveries, relearns) run between
  /// windows; a durable window holds one whole checkpoint cycle.
  int window_passes = 4;
  /// Frames pushed between two Flush() calls inside a pass (0: a pass
  /// ends with the only Flush), bounding the frames in flight.
  int flush_every_frames = 0;
};

/// The named workload; `tiny` shrinks it for the harness self-test.
Result<WorkloadSpec> FindWorkload(const std::string& name, bool tiny);

/// Runtime options of a workload (WAL directory filled in by the caller).
workflow::GestureRuntimeOptions RuntimeOptions(const WorkloadSpec& spec);

/// Training material of the gesture set: per gesture, its shape and the
/// recorded (kinect_t) samples it is learned from.
struct GestureSet {
  std::vector<std::string> names;
  std::vector<kinect::GestureShape> shapes;
  std::vector<std::vector<std::vector<kinect::SkeletonFrame>>> samples;
};

GestureSet MakeGestureSet(int count, uint64_t seed);

/// AddSample x k + Learn for gesture `g` of `set`.
Result<core::GestureDefinition> LearnGesture(const GestureSet& set, int g);

/// Index of the gestures the per-session composite consumes (a swipe, then
/// a raise); every other gesture may be re-learned.
inline constexpr int kCompositeFirst = 0;
inline constexpr int kCompositeSecond = 1;

inline constexpr char kCompositeName[] = "swipe_then_raise";

/// The composite of session `session`: swipe (gesture 0) then raise
/// (gesture 1) within 4 s.
workflow::CompositeDefinition MakeComposite(const GestureSet& set,
                                            int session);

/// The frames of one pass. Each pass replays every session's script with
/// its timestamps shifted forward by pass * period, so each session's
/// stream stays monotonic across passes.
struct Feed {
  /// Per session, one pass of frames at pass-0 timestamps (raw camera
  /// space with transform on, kinect_t space otherwise).
  std::vector<std::vector<kinect::SkeletonFrame>> scripts;
  /// Arrival order of one pass: (session, frame index), merged by
  /// timestamp across sessions.
  std::vector<std::pair<int, int>> order;
  /// Every session's script lies in [0, period); sessions start at
  /// staggered offsets so their gestures do not all complete at once.
  /// Every script ends in 0.8 s of idle, so a re-learn between passes
  /// lands after every gesture of the pass has completed.
  Duration period = 0;
};

Feed MakeFeed(const WorkloadSpec& spec, uint64_t seed);

/// Startup check: every session's timestamps strictly increase within a
/// pass and across the pass boundary.
Status CheckMonotonic(const Feed& feed);

/// One detection as the checker compares it: gesture index (the composite
/// is index `gestures`), completing-frame time relative to its pass, and a
/// hash of the relative pose times.
struct DetKey {
  int gesture = 0;
  int64_t time = 0;
  uint64_t poses = 0;

  bool operator<(const DetKey& o) const {
    if (gesture != o.gesture) return gesture < o.gesture;
    if (time != o.time) return time < o.time;
    return poses < o.poses;
  }
  bool operator==(const DetKey& o) const {
    return gesture == o.gesture && time == o.time && poses == o.poses;
  }
};

DetKey MakeKey(int gesture, const cep::Detection& detection, Duration shift);

/// Expected detections of one pass, per session, sorted.
using Expected = std::vector<std::vector<DetKey>>;

/// The first pass starts from fresh state (no partial runs, no kinect_t
/// smoothing history), so it may differ from the steady state every later
/// pass reproduces.
struct Reference {
  Expected first;
  Expected steady;
};

/// Runs the first passes through the kLegacyPerQuery backend (one
/// NfaMatcher-backed operator per query) and, for composites, an
/// NfaMatcher over the derived detection events. Fails unless passes 1..3
/// agree, i.e. the steady-state expectation is exact.
Result<Reference> BuildReference(
    const WorkloadSpec& spec, const Feed& feed,
    const std::vector<core::GestureDefinition>& definitions,
    const GestureSet& set);

}  // namespace epl::perfbench

#endif  // EPL_PERFBENCH_WORKLOAD_H_
