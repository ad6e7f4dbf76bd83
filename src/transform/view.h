// The kinect_t view: on-the-fly transformation of the raw kinect stream
// (paper Sec. 3.2: "we defined a kinect_t view letting AnduIN calculate
// all coordinates on-the-fly").
//
// kinect_t events contain every joint in user space plus derived forearm
// roll/pitch/yaw fields for both arms, so queries can range over either
// positions (window predicates) or rotations (e.g. a wave via yaw).

#ifndef EPL_TRANSFORM_VIEW_H_
#define EPL_TRANSFORM_VIEW_H_

#include <memory>
#include <string>

#include "stream/engine.h"
#include "stream/operator.h"
#include "transform/rpy.h"
#include "transform/transform.h"

namespace epl::transform {

/// Schema of kinect_t: KinectSchema() fields followed by rForearm_roll,
/// rForearm_pitch, rForearm_yaw, lForearm_roll, lForearm_pitch,
/// lForearm_yaw (angles in radians).
const stream::Schema& KinectTSchema();

/// Stream operator implementing the transformation. Stateful: it smooths
/// the per-frame forearm-length and yaw estimates with an exponential
/// moving average (TransformConfig::estimate_smoothing) since both are
/// physical constants of the tracked user.
class TransformOperator : public stream::Operator {
 public:
  explicit TransformOperator(TransformConfig config = TransformConfig());

  Status Process(const stream::Event& event) override;
  std::string name() const override { return "kinect_t"; }

 private:
  TransformConfig config_;
  bool has_estimates_ = false;
  double smoothed_yaw_ = 0.0;
  double smoothed_forearm_ = 0.0;
  stream::Event out_;  // output event, capacity reused across frames
};

/// Name used for the transformed view.
inline constexpr char kKinectTViewName[] = "kinect_t";

/// Registers the "kinect_t" view over the "kinect" stream (which must
/// already be registered).
Status RegisterKinectTView(stream::StreamEngine* engine,
                           TransformConfig config = TransformConfig());

/// Registers a kinect_t view under a custom name over a custom source
/// stream (e.g. "alice/kinect_t" over "alice/kinect" for the multi-user
/// runtime's per-session views).
Status RegisterKinectTView(stream::StreamEngine* engine,
                           const std::string& view_name,
                           const std::string& source_name,
                           TransformConfig config = TransformConfig());

}  // namespace epl::transform

#endif  // EPL_TRANSFORM_VIEW_H_
