#include "stream/engine.h"

#include <algorithm>

#include "stream/operators.h"

namespace epl::stream {

Status StreamEngine::RegisterStream(const std::string& name, Schema schema) {
  EPL_RETURN_IF_ERROR(schema.Validate());
  if (nodes_.count(name) > 0) {
    return AlreadyExistsError("stream already registered: " + name);
  }
  Node node;
  node.schema = std::move(schema);
  nodes_.emplace(name, std::move(node));
  return OkStatus();
}

Status StreamEngine::RegisterView(const std::string& view_name,
                                  const std::string& source_name,
                                  std::unique_ptr<Operator> transform,
                                  Schema view_schema) {
  EPL_RETURN_IF_ERROR(view_schema.Validate());
  if (nodes_.count(view_name) > 0) {
    return AlreadyExistsError("stream already registered: " + view_name);
  }
  EPL_ASSIGN_OR_RETURN(Node * source, FindNode(source_name));
  (void)source;

  Node node;
  node.schema = std::move(view_schema);
  node.is_view = true;
  Node* view_node = &nodes_.emplace(view_name, std::move(node)).first->second;

  // The transform's output is dispatched into the view node. std::map
  // nodes are stable, and UnregisterStream destroys this dispatcher before
  // it erases the node, so the pointer outlives every use.
  auto dispatcher =
      std::make_unique<CallbackSink>([this, view_node](const Event& e) {
        // Dispatch errors inside a view are surfaced via the source Push
        // call chain; CallbackSink has a void callback, so check here.
        Status status = Dispatch(*view_node, e);
        EPL_CHECK(status.ok()) << "view dispatch failed: " << status;
      });
  transform->AddDownstream(dispatcher.get());
  EPL_RETURN_IF_ERROR(transform->Open());

  auto source_it = nodes_.find(source_name);
  source_it->second.subscribers.push_back(transform.get());
  View view;
  view.source = source_name;
  view.transform = std::move(transform);
  view.dispatcher = std::move(dispatcher);
  views_.emplace(view_name, std::move(view));
  return OkStatus();
}

Status StreamEngine::UnregisterStream(const std::string& name) {
  auto node_it = nodes_.find(name);
  if (node_it == nodes_.end()) {
    return NotFoundError("unknown stream: " + name);
  }
  for (const auto& [id, deployment] : deployments_) {
    (void)id;
    if (deployment.node_name == name) {
      return FailedPreconditionError(
          "stream still has a deployed subscriber: " + name);
    }
  }
  for (const auto& [view_name, view] : views_) {
    if (view.source == name) {
      return FailedPreconditionError("stream still feeds view " + view_name +
                                     ": " + name);
    }
  }
  auto view_it = views_.find(name);
  if (view_it != views_.end()) {
    auto source_it = nodes_.find(view_it->second.source);
    if (source_it != nodes_.end()) {
      auto& subs = source_it->second.subscribers;
      subs.erase(std::remove(subs.begin(), subs.end(),
                             view_it->second.transform.get()),
                 subs.end());
    }
    Status closed = view_it->second.transform->Close();
    views_.erase(view_it);
    EPL_RETURN_IF_ERROR(closed);
  }
  nodes_.erase(node_it);
  return OkStatus();
}

Result<DeploymentId> StreamEngine::Deploy(const std::string& name,
                                          std::unique_ptr<Operator> op) {
  EPL_ASSIGN_OR_RETURN(Node * node, FindNode(name));
  EPL_RETURN_IF_ERROR(op->Open());
  node->subscribers.push_back(op.get());
  DeploymentId id = next_deployment_id_++;
  deployments_.emplace(id, Deployment{name, std::move(op)});
  return id;
}

Status StreamEngine::Undeploy(DeploymentId id) {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return NotFoundError("unknown deployment id");
  }
  auto node_it = nodes_.find(it->second.node_name);
  if (node_it != nodes_.end()) {
    auto& subs = node_it->second.subscribers;
    subs.erase(std::remove(subs.begin(), subs.end(), it->second.op.get()),
               subs.end());
  }
  EPL_RETURN_IF_ERROR(it->second.op->Close());
  deployments_.erase(it);
  return OkStatus();
}

Result<std::string> StreamEngine::DeploymentStream(DeploymentId id) const {
  auto it = deployments_.find(id);
  if (it == deployments_.end()) {
    return NotFoundError("unknown deployment id");
  }
  return it->second.node_name;
}

Status StreamEngine::Push(const std::string& stream_name, const Event& event) {
  EPL_ASSIGN_OR_RETURN(Node * node, FindNode(stream_name));
  if (node->is_view) {
    return FailedPreconditionError(
        "cannot push directly into view: " + stream_name);
  }
  if (static_cast<int>(event.values.size()) != node->schema.num_fields()) {
    return InvalidArgumentError(
        "event arity does not match schema of stream " + stream_name);
  }
  return Dispatch(*node, event);
}

Status StreamEngine::Dispatch(Node& node, const Event& event) {
  ++node.event_count;
  // Index up to the subscriber count seen on entry: a Process callback may
  // Deploy new operators, which appends to (and may reallocate) the
  // subscriber vector, so re-read it by index each step. Operators
  // deployed mid-dispatch start with the next event. Undeploy must not be
  // called from within a callback; defer it to between events instead.
  const size_t count = node.subscribers.size();
  for (size_t i = 0; i < count; ++i) {
    EPL_RETURN_IF_ERROR(node.subscribers[i]->Process(event));
  }
  return OkStatus();
}

bool StreamEngine::HasStream(const std::string& name) const {
  return nodes_.count(name) > 0;
}

Result<Schema> StreamEngine::GetSchema(const std::string& name) const {
  EPL_ASSIGN_OR_RETURN(const Node* node, FindNode(name));
  return node->schema;
}

Result<uint64_t> StreamEngine::EventCount(const std::string& name) const {
  EPL_ASSIGN_OR_RETURN(const Node* node, FindNode(name));
  return node->event_count;
}

std::vector<std::string> StreamEngine::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& [name, node] : nodes_) {
    names.push_back(name);
  }
  return names;
}

Result<StreamEngine::Node*> StreamEngine::FindNode(const std::string& name) {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return NotFoundError("unknown stream: " + name);
  }
  return &it->second;
}

Result<const StreamEngine::Node*> StreamEngine::FindNode(
    const std::string& name) const {
  auto it = nodes_.find(name);
  if (it == nodes_.end()) {
    return NotFoundError("unknown stream: " + name);
  }
  return &it->second;
}

}  // namespace epl::stream
