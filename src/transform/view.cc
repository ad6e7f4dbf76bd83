#include "transform/view.h"

#include "common/logging.h"
#include "kinect/skeleton.h"

namespace epl::transform {

using kinect::FrameFromEvent;
using kinect::FrameToEvent;
using kinect::KinectSchema;
using kinect::SkeletonFrame;

const stream::Schema& KinectTSchema() {
  static const stream::Schema* schema = [] {
    auto* built = new stream::Schema(KinectSchema());
    built->AddField("rForearm_roll");
    built->AddField("rForearm_pitch");
    built->AddField("rForearm_yaw");
    built->AddField("lForearm_roll");
    built->AddField("lForearm_pitch");
    built->AddField("lForearm_yaw");
    EPL_CHECK(built->Validate().ok());
    return built;
  }();
  return *schema;
}

TransformOperator::TransformOperator(TransformConfig config)
    : config_(config) {}

Status TransformOperator::Process(const stream::Event& event) {
  EPL_ASSIGN_OR_RETURN(SkeletonFrame frame, FrameFromEvent(event));

  double yaw = EstimateYaw(frame);
  double forearm = MeasureForearmLength(frame);
  double alpha = config_.estimate_smoothing;
  if (!has_estimates_ || alpha >= 1.0) {
    smoothed_yaw_ = yaw;
    smoothed_forearm_ = forearm;
    has_estimates_ = true;
  } else {
    // Shortest-path blend for the angle to behave across the +-pi seam.
    double delta = yaw - smoothed_yaw_;
    while (delta > M_PI) {
      delta -= 2.0 * M_PI;
    }
    while (delta < -M_PI) {
      delta += 2.0 * M_PI;
    }
    smoothed_yaw_ += alpha * delta;
    smoothed_forearm_ += alpha * (forearm - smoothed_forearm_);
  }
  SkeletonFrame transformed =
      TransformFrameExplicit(frame, config_, smoothed_yaw_, smoothed_forearm_);

  FrameToEvent(transformed, &out_);
  RollPitchYaw right = ForearmAngles(transformed, /*right_side=*/true);
  RollPitchYaw left = ForearmAngles(transformed, /*right_side=*/false);
  out_.values.push_back(right.roll);
  out_.values.push_back(right.pitch);
  out_.values.push_back(right.yaw);
  out_.values.push_back(left.roll);
  out_.values.push_back(left.pitch);
  out_.values.push_back(left.yaw);
  return Forward(out_);
}

Status RegisterKinectTView(stream::StreamEngine* engine,
                           TransformConfig config) {
  return RegisterKinectTView(engine, kKinectTViewName, "kinect", config);
}

Status RegisterKinectTView(stream::StreamEngine* engine,
                           const std::string& view_name,
                           const std::string& source_name,
                           TransformConfig config) {
  return engine->RegisterView(view_name, source_name,
                              std::make_unique<TransformOperator>(config),
                              KinectTSchema());
}

}  // namespace epl::transform
