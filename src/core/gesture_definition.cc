#include "core/gesture_definition.h"

#include <cstdint>
#include <cstring>
#include <functional>

#include "common/string_util.h"

namespace epl::core {

namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool SameBits(const Vec3& a, const Vec3& b) {
  return Bits(a.x) == Bits(b.x) && Bits(a.y) == Bits(b.y) &&
         Bits(a.z) == Bits(b.z);
}

bool SameWindow(const JointWindow& a, const JointWindow& b) {
  return SameBits(a.center, b.center) &&
         SameBits(a.half_width, b.half_width) && a.active == b.active;
}

void Mix(size_t* seed, uint64_t value) {
  *seed ^= std::hash<uint64_t>()(value) + 0x9e3779b97f4a7c15ull +
           (*seed << 6) + (*seed >> 2);
}

}  // namespace

bool SameDefinition(const GestureDefinition& a, const GestureDefinition& b) {
  if (a.name != b.name || a.source_stream != b.source_stream ||
      a.sample_count != b.sample_count || a.notes != b.notes ||
      a.joints != b.joints || a.poses.size() != b.poses.size()) {
    return false;
  }
  for (size_t i = 0; i < a.poses.size(); ++i) {
    const PoseWindow& pa = a.poses[i];
    const PoseWindow& pb = b.poses[i];
    if (pa.max_gap != pb.max_gap || pa.joints.size() != pb.joints.size()) {
      return false;
    }
    for (auto ia = pa.joints.begin(), ib = pb.joints.begin();
         ia != pa.joints.end(); ++ia, ++ib) {
      if (ia->first != ib->first || !SameWindow(ia->second, ib->second)) {
        return false;
      }
    }
  }
  return true;
}

size_t HashDefinition(const GestureDefinition& definition) {
  size_t seed = std::hash<std::string>()(definition.name);
  Mix(&seed, std::hash<std::string>()(definition.source_stream));
  Mix(&seed, std::hash<std::string>()(definition.notes));
  Mix(&seed, static_cast<uint64_t>(definition.sample_count));
  for (kinect::JointId joint : definition.joints) {
    Mix(&seed, static_cast<uint64_t>(joint));
  }
  for (const PoseWindow& pose : definition.poses) {
    Mix(&seed, static_cast<uint64_t>(pose.max_gap));
    for (const auto& [joint, window] : pose.joints) {
      Mix(&seed, static_cast<uint64_t>(joint));
      for (int axis = 0; axis < 3; ++axis) {
        Mix(&seed, Bits(window.center[axis]));
        Mix(&seed, Bits(window.half_width[axis]));
        Mix(&seed, window.active[static_cast<size_t>(axis)]);
      }
    }
  }
  return seed;
}

Status GestureDefinition::Validate() const {
  if (name.empty()) {
    return InvalidArgumentError("gesture has no name");
  }
  if (source_stream.empty()) {
    return InvalidArgumentError("gesture has no source stream");
  }
  if (joints.empty()) {
    return InvalidArgumentError("gesture involves no joints");
  }
  if (poses.empty()) {
    return InvalidArgumentError("gesture has no poses");
  }
  for (size_t i = 0; i < poses.size(); ++i) {
    const PoseWindow& pose = poses[i];
    for (kinect::JointId joint : joints) {
      auto it = pose.joints.find(joint);
      if (it == pose.joints.end()) {
        return InvalidArgumentError(
            StrFormat("pose %zu does not constrain joint %s", i,
                      std::string(kinect::JointName(joint)).c_str()));
      }
      for (int axis = 0; axis < 3; ++axis) {
        if (it->second.active[static_cast<size_t>(axis)] &&
            it->second.half_width[axis] <= 0.0) {
          return InvalidArgumentError(
              StrFormat("pose %zu joint %s axis %s has non-positive width",
                        i, std::string(kinect::JointName(joint)).c_str(),
                        std::string(AxisName(axis)).c_str()));
        }
      }
    }
    if (i > 0 && pose.max_gap <= 0) {
      return InvalidArgumentError(
          StrFormat("pose %zu has non-positive time budget", i));
    }
  }
  return OkStatus();
}

int GestureDefinition::NumActiveConstraints() const {
  int count = 0;
  for (const PoseWindow& pose : poses) {
    for (const auto& [joint, window] : pose.joints) {
      count += window.NumActiveAxes();
    }
  }
  return count;
}

std::string GestureDefinition::ToString() const {
  std::string out = StrFormat("gesture '%s' on %s (%d samples, %zu poses)\n",
                              name.c_str(), source_stream.c_str(),
                              sample_count, poses.size());
  for (size_t i = 0; i < poses.size(); ++i) {
    out += StrFormat("  pose %zu: %s\n", i, poses[i].ToString().c_str());
  }
  return out;
}

}  // namespace epl::core
