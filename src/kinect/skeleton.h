// Skeleton model: the 15 OpenNI joints tracked by the (simulated) Kinect.
//
// Coordinate system (camera space, millimeters, matching the paper's
// Fig. 1 sensor trace): origin at the camera, X to the camera's right,
// Y up, Z depth away from the camera. A user standing in front of the
// camera and facing it has "in front of the user" at decreasing Z.

#ifndef EPL_KINECT_SKELETON_H_
#define EPL_KINECT_SKELETON_H_

#include <array>
#include <string>

#include "common/result.h"
#include "common/time_util.h"
#include "common/vec3.h"
#include "stream/event.h"
#include "stream/schema.h"

namespace epl::kinect {

enum class JointId : int {
  kHead = 0,
  kNeck,
  kTorso,
  kLeftShoulder,
  kLeftElbow,
  kLeftHand,
  kRightShoulder,
  kRightElbow,
  kRightHand,
  kLeftHip,
  kLeftKnee,
  kLeftFoot,
  kRightHip,
  kRightKnee,
  kRightFoot,
};

inline constexpr int kNumJoints = 15;

/// Field-name prefix used in schemas and queries, e.g. "rHand" (paper
/// naming: rHand_x, torso_z, ...).
std::string_view JointName(JointId joint);

/// Inverse of JointName.
Result<JointId> JointFromName(std::string_view name);

/// All joints in enum order.
const std::array<JointId, kNumJoints>& AllJoints();

/// One sensor reading: positions of all joints at one instant.
struct SkeletonFrame {
  TimePoint timestamp = 0;
  int player = 1;
  std::array<Vec3, kNumJoints> joints;

  const Vec3& joint(JointId id) const {
    return joints[static_cast<size_t>(id)];
  }
  Vec3& joint(JointId id) { return joints[static_cast<size_t>(id)]; }
};

/// Schema of the raw `kinect` stream: "player", then "<joint>_x|y|z" for
/// every joint in enum order (46 fields).
const stream::Schema& KinectSchema();

/// Converts a frame to an event of KinectSchema().
stream::Event FrameToEvent(const SkeletonFrame& frame);
/// Same, overwriting `out` in place: a reused event keeps its values
/// capacity, so a producer that recycles one event allocates nothing.
void FrameToEvent(const SkeletonFrame& frame, stream::Event* out);

/// Parses an event of KinectSchema() back into a frame.
Result<SkeletonFrame> FrameFromEvent(const stream::Event& event);

/// The paper streams at 30 Hz.
inline constexpr double kSensorFps = 30.0;
inline constexpr Duration kFramePeriod =
    static_cast<Duration>(kSecond / kSensorFps);

}  // namespace epl::kinect

#endif  // EPL_KINECT_SKELETON_H_
