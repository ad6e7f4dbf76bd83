#include "kinect/skeleton.h"

#include "common/logging.h"

namespace epl::kinect {
namespace {

constexpr std::string_view kJointNames[kNumJoints] = {
    "head",      "neck",   "torso",  "lShoulder", "lElbow",
    "lHand",     "rShoulder", "rElbow", "rHand",  "lHip",
    "lKnee",     "lFoot",  "rHip",   "rKnee",     "rFoot",
};

}  // namespace

std::string_view JointName(JointId joint) {
  return kJointNames[static_cast<size_t>(joint)];
}

Result<JointId> JointFromName(std::string_view name) {
  for (int i = 0; i < kNumJoints; ++i) {
    if (kJointNames[i] == name) {
      return static_cast<JointId>(i);
    }
  }
  return NotFoundError("unknown joint: " + std::string(name));
}

const std::array<JointId, kNumJoints>& AllJoints() {
  static const std::array<JointId, kNumJoints>* joints = [] {
    auto* array = new std::array<JointId, kNumJoints>();
    for (int i = 0; i < kNumJoints; ++i) {
      (*array)[i] = static_cast<JointId>(i);
    }
    return array;
  }();
  return *joints;
}

const stream::Schema& KinectSchema() {
  static const stream::Schema* schema = [] {
    auto* built = new stream::Schema();
    built->AddField("player");
    for (JointId joint : AllJoints()) {
      std::string prefix(JointName(joint));
      built->AddField(prefix + "_x");
      built->AddField(prefix + "_y");
      built->AddField(prefix + "_z");
    }
    EPL_CHECK(built->Validate().ok());
    return built;
  }();
  return *schema;
}

stream::Event FrameToEvent(const SkeletonFrame& frame) {
  stream::Event event;
  FrameToEvent(frame, &event);
  return event;
}

void FrameToEvent(const SkeletonFrame& frame, stream::Event* out) {
  out->timestamp = frame.timestamp;
  out->values.clear();
  out->values.reserve(1 + 3 * kNumJoints);
  out->values.push_back(static_cast<double>(frame.player));
  for (const Vec3& joint : frame.joints) {
    out->values.push_back(joint.x);
    out->values.push_back(joint.y);
    out->values.push_back(joint.z);
  }
}

Result<SkeletonFrame> FrameFromEvent(const stream::Event& event) {
  if (event.values.size() != 1 + 3 * kNumJoints) {
    return InvalidArgumentError("event is not a kinect frame");
  }
  SkeletonFrame frame;
  frame.timestamp = event.timestamp;
  frame.player = static_cast<int>(event.values[0]);
  for (int i = 0; i < kNumJoints; ++i) {
    frame.joints[i] = Vec3(event.values[1 + 3 * i], event.values[2 + 3 * i],
                           event.values[3 + 3 * i]);
  }
  return frame;
}

}  // namespace epl::kinect
