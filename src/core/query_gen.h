// Query generation (paper Sec. 3.3.4): turns a GestureDefinition into a
// CEP query — the range predicates
//     abs(center_{j,i} - coord_{j,i}) < width_{j,i}
// conjoined per pose, poses joined with nested sequence operators, exactly
// the Fig. 1 shape.

#ifndef EPL_CORE_QUERY_GEN_H_
#define EPL_CORE_QUERY_GEN_H_

#include <string>

#include "cep/detection.h"
#include "cep/matcher.h"
#include "core/gesture_definition.h"
#include "query/compiler.h"
#include "query/parser.h"
#include "stream/engine.h"

namespace epl::core {

struct QueryGenConfig {
  /// Left-nested binary sequences with a per-step `within` at every level,
  /// as in the paper's Fig. 1. When false and all step budgets are equal,
  /// a flat sequence with a single `within` is produced instead.
  bool nest_like_paper = true;
};

/// Builds the query AST (pattern + output name) for a gesture.
Result<query::ParsedQuery> GenerateQuery(
    const GestureDefinition& definition,
    const QueryGenConfig& config = QueryGenConfig());

/// Generated query text in the paper's layout; re-parses to the same
/// query (round-trip tested).
Result<std::string> GenerateQueryText(
    const GestureDefinition& definition,
    const QueryGenConfig& config = QueryGenConfig());

/// Generates and deploys the gesture's query on its source stream, as a
/// single-query fused operator (query::DeployFusedOperator +
/// query::CompileQuerySpec + AddQuery), NOT a standalone MatchOperator,
/// so lone gestures still run on the bank-backed flat runtime. Undeploy
/// the returned handle to remove the gesture. For query fleets, build on
/// the same blocks: one DeployFusedOperator / DeployShardedOperator per
/// stream, then GenerateQuery + CompileQuerySpec + AddQuery per gesture;
/// for named deploy/undeploy, hot-swap and multi-session use
/// workflow::GestureRuntime.
Result<stream::DeploymentId> DeployGesture(
    stream::StreamEngine* engine, const GestureDefinition& definition,
    cep::DetectionCallback callback,
    const QueryGenConfig& config = QueryGenConfig(),
    cep::MatcherOptions matcher_options = cep::MatcherOptions());

}  // namespace epl::core

#endif  // EPL_CORE_QUERY_GEN_H_
