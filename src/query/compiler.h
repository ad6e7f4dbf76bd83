// Semantic analysis and compilation of parsed queries, plus deployment
// into a StreamEngine.
//
// Two ways to deploy. DeployQuery runs one query on its own per-query
// MatchOperator: the reference path the legacy backend and the benchmark
// oracle use. Shared deployments are assembled from building blocks:
// deploy an empty operator on the source stream (DeployFusedOperator, or
// DeployShardedOperator for multi-core scaling), compile each query into
// a spec (CompileQuerySpec), and add or remove queries while the stream
// is live (AddQuery / RemoveQuery on the returned operator or engine).
// workflow::GestureRuntime builds named deploy, hot-swap and recovery on
// exactly these blocks.

#ifndef EPL_QUERY_COMPILER_H_
#define EPL_QUERY_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "cep/detection.h"
#include "cep/match_operator.h"
#include "cep/multi_match_operator.h"
#include "cep/nfa.h"
#include "cep/sharded_engine.h"
#include "query/parser.h"
#include "stream/engine.h"

namespace epl::query {

/// A fully analyzed query, ready to instantiate match operators.
struct CompiledQuery {
  std::string name;
  std::string source_stream;
  cep::CompiledPattern pattern;
  std::vector<cep::ExprProgram> measures;
};

/// Binds the query against `schema` (the schema of its source stream) and
/// compiles pattern and measures.
Result<CompiledQuery> CompileQuery(const ParsedQuery& parsed,
                                   const stream::Schema& schema);

/// Compiles `parsed` against the schema of its source stream in `engine`
/// and deploys a match operator there. Detections go to `callback`.
/// Returns the deployment handle (Undeploy to remove the gesture at
/// runtime).
Result<stream::DeploymentId> DeployQuery(stream::StreamEngine* engine,
                                         const ParsedQuery& parsed,
                                         cep::DetectionCallback callback,
                                         cep::MatcherOptions options = {});

/// Handle for a fused deployment: the engine-owned operator stays
/// addressable so queries can be exchanged at runtime.
struct FusedDeployment {
  stream::DeploymentId id = 0;
  /// Owned by the StreamEngine; valid until the deployment is undeployed.
  cep::MultiMatchOperator* op = nullptr;
};

/// Handle for a sharded deployment: the adapter operator is engine-owned,
/// the ShardedEngine it wraps stays addressable for runtime add/remove,
/// Flush, and statistics.
struct ShardedDeployment {
  stream::DeploymentId id = 0;
  /// Owned by the deployed ShardedMatchOperator; valid until undeployed.
  cep::ShardedEngine* engine = nullptr;
};

/// Compiles `parsed` against the schema of its source stream in `engine`
/// into a QuerySpec ready for MultiMatchOperator::AddQuery /
/// ShardedEngine::AddQuery (or RestoreQuery), with `callback` and the
/// optional group `gate` attached (see MultiPatternMatcher::AddPattern).
/// The spec does not record the stream: adding it to an operator that
/// subscribes to another stream is the caller's error to avoid.
Result<cep::MultiMatchOperator::QuerySpec> CompileQuerySpec(
    stream::StreamEngine* engine, const ParsedQuery& parsed,
    cep::DetectionCallback callback,
    std::shared_ptr<const cep::CompiledPattern> gate = nullptr);

/// Deploys an EMPTY fused operator subscribing to `stream`; queries are
/// added afterwards via FusedDeployment::op->AddQuery (runtime add/remove
/// is the normal mode of operation). `batch_size` > 1 makes the operator
/// accumulate that many events per matcher sweep (offline replays;
/// detections then fire at flush boundaries, still in exact per-event
/// order -- see MultiMatchOperator). Drain the tail of a finished stream
/// with `deployment.op->FlushBatchedEvents()` (Undeploy flushes via
/// Close).
Result<FusedDeployment> DeployFusedOperator(stream::StreamEngine* engine,
                                            const std::string& stream,
                                            cep::MatcherOptions options = {},
                                            size_t batch_size = 1);

/// Deploys an EMPTY sharded engine subscribing to `stream` (workers
/// started); queries are added afterwards via
/// ShardedDeployment::engine->AddQuery. Detections are merged back in
/// deterministic (event-seq, query-id) order and delivered during stream
/// pushes; call `deployment.engine->Flush()` to force out everything
/// pending, or set `sync_delivery` to flush after every event (see
/// cep::ShardedMatchOperator). Undeploying stops the shard workers.
Result<ShardedDeployment> DeployShardedOperator(
    stream::StreamEngine* engine, const std::string& stream,
    cep::ShardedEngineOptions options = {}, bool sync_delivery = false);

}  // namespace epl::query

#endif  // EPL_QUERY_COMPILER_H_
