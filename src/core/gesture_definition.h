// GestureDefinition: the learned, declarative description of one gesture —
// an ordered list of pose windows with step time budgets. This is what the
// gesture database stores and what the query generator turns into CEP
// query text (paper Fig. 2 center/right).

#ifndef EPL_CORE_GESTURE_DEFINITION_H_
#define EPL_CORE_GESTURE_DEFINITION_H_

#include <string>
#include <vector>

#include "core/window.h"

namespace epl::core {

struct GestureDefinition {
  /// Output value of the generated query (e.g. "swipe_right").
  std::string name;
  /// Stream/view the gesture is detected on (normally "kinect_t").
  std::string source_stream = "kinect_t";
  /// Involved joints in a fixed order.
  std::vector<kinect::JointId> joints;
  /// Characteristic poses in sequence order. poses[i].max_gap is the time
  /// budget between pose i-1 and pose i (ignored for i = 0).
  std::vector<PoseWindow> poses;
  /// How many samples were merged into this definition.
  int sample_count = 0;
  /// Free-form provenance notes.
  std::string notes;

  /// Structural checks: non-empty name/joints/poses, every pose constrains
  /// every involved joint, positive widths on active axes, positive gaps.
  Status Validate() const;

  /// Total number of active (joint, axis) constraints over all poses.
  int NumActiveConstraints() const;

  std::string ToString() const;
};

/// Field-wise, bit-exact equality over every field gesturedb::Serialize
/// writes -- name, source stream, joints, poses, sample_count and notes --
/// plus any pose window entries Serialize skips. Doubles compare by bit
/// pattern, so -0.0 and 0.0 differ and a NaN equals only the same NaN
/// bits. Serialize renders numbers to six decimals, so equal serialized
/// text does not imply SameDefinition; the converse holds. This is the key
/// of GestureRuntime's template table: two deploys share one compiled
/// gesture only when their definitions are the same bits, and a field added
/// to the struct must be added here (and to HashDefinition) too.
bool SameDefinition(const GestureDefinition& a, const GestureDefinition& b);

/// Hash consistent with SameDefinition (same definitions hash equal).
size_t HashDefinition(const GestureDefinition& definition);

}  // namespace epl::core

#endif  // EPL_CORE_GESTURE_DEFINITION_H_
