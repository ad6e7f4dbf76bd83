#include "core/query_gen.h"

#include "query/compiler.h"
#include "query/unparser.h"

namespace epl::core {

using cep::Expr;
using cep::ExprPtr;
using cep::PatternExpr;
using cep::PatternExprPtr;

namespace {

/// Conjunction of range predicates for one pose, in joint order and x,y,z
/// axis order (the paper's predicate order).
ExprPtr PosePredicate(const GestureDefinition& definition,
                      const PoseWindow& pose) {
  std::vector<ExprPtr> terms;
  for (kinect::JointId joint : definition.joints) {
    const JointWindow& window = pose.joints.at(joint);
    for (int axis = 0; axis < 3; ++axis) {
      if (!window.active[static_cast<size_t>(axis)]) {
        continue;
      }
      std::string field = std::string(kinect::JointName(joint)) + "_" +
                          std::string(AxisName(axis));
      terms.push_back(Expr::RangePredicate(field, window.center[axis],
                                           window.half_width[axis]));
    }
  }
  return Expr::And(std::move(terms));
}

}  // namespace

Result<query::ParsedQuery> GenerateQuery(const GestureDefinition& definition,
                                         const QueryGenConfig& config) {
  EPL_RETURN_IF_ERROR(definition.Validate());
  if (definition.NumActiveConstraints() == 0) {
    return FailedPreconditionError(
        "gesture '" + definition.name +
        "' has no active constraints; cannot generate a query");
  }

  std::vector<PatternExprPtr> poses;
  poses.reserve(definition.poses.size());
  for (const PoseWindow& pose : definition.poses) {
    poses.push_back(PatternExpr::Pose(definition.source_stream,
                                      PosePredicate(definition, pose)));
  }

  query::ParsedQuery query;
  query.name = definition.name;
  if (poses.size() == 1) {
    query.pattern = std::move(poses[0]);
    return query;
  }

  bool uniform_gaps = true;
  for (size_t i = 2; i < definition.poses.size(); ++i) {
    if (definition.poses[i].max_gap != definition.poses[1].max_gap) {
      uniform_gaps = false;
      break;
    }
  }

  if (!config.nest_like_paper && uniform_gaps) {
    // Flat chain: one within bounds every step (gap semantics).
    query.pattern =
        PatternExpr::Sequence(std::move(poses), definition.poses[1].max_gap);
    return query;
  }

  // Left-nested binary sequences, each carrying the right element's step
  // budget — the Fig. 1 shape.
  PatternExprPtr node = std::move(poses[0]);
  for (size_t i = 1; i < poses.size(); ++i) {
    std::vector<PatternExprPtr> pair;
    pair.push_back(std::move(node));
    pair.push_back(std::move(poses[i]));
    node = PatternExpr::Sequence(std::move(pair), definition.poses[i].max_gap);
  }
  query.pattern = std::move(node);
  return query;
}

Result<std::string> GenerateQueryText(const GestureDefinition& definition,
                                      const QueryGenConfig& config) {
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       GenerateQuery(definition, config));
  return query::FormatQuery(parsed);
}

Result<stream::DeploymentId> DeployGesture(
    stream::StreamEngine* engine, const GestureDefinition& definition,
    cep::DetectionCallback callback, const QueryGenConfig& config,
    cep::MatcherOptions matcher_options) {
  EPL_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                       GenerateQuery(definition, config));
  // A single-query fused operator instead of a standalone MatchOperator,
  // so every learned gesture -- even a lone one -- runs on the
  // bank-backed flat runtime. Compiled first, so a bad query leaves no
  // empty operator deployed behind an error.
  EPL_ASSIGN_OR_RETURN(
      cep::MultiMatchOperator::QuerySpec spec,
      query::CompileQuerySpec(engine, parsed, std::move(callback)));
  EPL_ASSIGN_OR_RETURN(
      query::FusedDeployment deployment,
      query::DeployFusedOperator(engine, parsed.pattern->SourceStream(),
                                 matcher_options));
  deployment.op->AddQuery(std::move(spec));
  return deployment.id;
}

}  // namespace epl::core
