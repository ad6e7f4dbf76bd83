// StreamEngine: named streams, derived views, and operator subscriptions.
//
// This is the AnduIN-substitute data stream management core (DESIGN.md S2).
// Sources push events into named streams; views transform a source stream
// on-the-fly (paper Sec. 3.2: the kinect_t view); match operators and sinks
// subscribe to streams or views. Deployments can be added and removed at
// runtime, which is what enables the paper's "exchange gestures during
// runtime" demonstration.
//
// The engine is single-threaded and deterministic: one thread at a time
// pushes events and mutates deployments.

#ifndef EPL_STREAM_ENGINE_H_
#define EPL_STREAM_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "stream/operator.h"
#include "stream/schema.h"

namespace epl::stream {

/// Handle for a deployed operator; used to undeploy.
using DeploymentId = uint64_t;

class StreamEngine {
 public:
  StreamEngine() = default;

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Declares a base stream that sources push into.
  Status RegisterStream(const std::string& name, Schema schema);

  /// Declares `view_name` as the result of applying `transform` to every
  /// event of `source_name`. Events the transform forwards are dispatched
  /// to the view's subscribers. The engine takes ownership of `transform`.
  Status RegisterView(const std::string& view_name,
                      const std::string& source_name,
                      std::unique_ptr<Operator> transform, Schema view_schema);

  /// Removes a stream or view (the reverse of RegisterStream/RegisterView),
  /// freeing its name for re-registration. Fails with FailedPrecondition
  /// while anything still depends on it: a live deployment subscribed to
  /// it, or a view deriving from it. Unregistering a view detaches and
  /// closes its transform. Must not be called from inside a dispatch.
  Status UnregisterStream(const std::string& name);

  /// Attaches `op` (engine takes ownership) as a subscriber of the stream
  /// or view `name`. Returns a handle for Undeploy().
  Result<DeploymentId> Deploy(const std::string& name,
                              std::unique_ptr<Operator> op);

  /// Detaches and destroys a previously deployed operator.
  Status Undeploy(DeploymentId id);

  /// Name of the stream or view a deployment subscribes to (used by the
  /// runtime add-query paths to validate that a new query reads the same
  /// stream as the deployment it joins).
  Result<std::string> DeploymentStream(DeploymentId id) const;

  /// Pushes one event into a base stream (error for views).
  Status Push(const std::string& stream_name, const Event& event);

  bool HasStream(const std::string& name) const;
  Result<Schema> GetSchema(const std::string& name) const;

  /// Number of events dispatched into `name` so far.
  Result<uint64_t> EventCount(const std::string& name) const;

  /// Names of all registered streams and views (sorted).
  std::vector<std::string> StreamNames() const;

  /// Number of live deployments (excluding view transforms).
  size_t deployment_count() const { return deployments_.size(); }

 private:
  struct Node {
    Schema schema;
    bool is_view = false;
    std::vector<Operator*> subscribers;
    uint64_t event_count = 0;
  };

  struct Deployment {
    std::string node_name;
    std::unique_ptr<Operator> op;
  };

  /// A view's machinery: the transform subscribed to the source stream and
  /// the sink dispatching its output into the view node. Keyed by view
  /// name so UnregisterStream can detach exactly this view again.
  struct View {
    std::string source;
    std::unique_ptr<Operator> transform;
    std::unique_ptr<Operator> dispatcher;
  };

  Status Dispatch(Node& node, const Event& event);

  Result<Node*> FindNode(const std::string& name);
  Result<const Node*> FindNode(const std::string& name) const;

  std::map<std::string, Node> nodes_;
  std::map<DeploymentId, Deployment> deployments_;
  std::map<std::string, View> views_;
  DeploymentId next_deployment_id_ = 1;
};

}  // namespace epl::stream

#endif  // EPL_STREAM_ENGINE_H_
