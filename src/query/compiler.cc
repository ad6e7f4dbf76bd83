#include "query/compiler.h"

#include "cep/multi_match_operator.h"

namespace epl::query {

Result<CompiledQuery> CompileQuery(const ParsedQuery& parsed,
                                   const stream::Schema& schema) {
  if (parsed.pattern == nullptr) {
    return InvalidArgumentError("query has no pattern");
  }
  if (parsed.name.empty()) {
    return InvalidArgumentError("query has no output name");
  }
  CompiledQuery compiled;
  compiled.name = parsed.name;
  compiled.source_stream = parsed.pattern->SourceStream();
  EPL_ASSIGN_OR_RETURN(compiled.pattern,
                       cep::CompiledPattern::Compile(*parsed.pattern, schema));
  for (const cep::ExprPtr& measure : parsed.measures) {
    cep::ExprPtr bound = measure->Clone();
    Status bind_status = bound->Bind(schema);
    if (!bind_status.ok()) {
      return bind_status.WithContext("output measure '" + measure->ToString() +
                                     "'");
    }
    EPL_ASSIGN_OR_RETURN(cep::ExprProgram program,
                         cep::ExprProgram::Compile(*bound));
    compiled.measures.push_back(std::move(program));
  }
  return compiled;
}

Result<stream::DeploymentId> DeployQuery(stream::StreamEngine* engine,
                                         const ParsedQuery& parsed,
                                         cep::DetectionCallback callback,
                                         cep::MatcherOptions options) {
  if (parsed.pattern == nullptr) {
    return InvalidArgumentError("query has no pattern");
  }
  std::string source = parsed.pattern->SourceStream();
  Result<stream::Schema> schema = engine->GetSchema(source);
  if (!schema.ok()) {
    return schema.status().WithContext("query '" + parsed.name +
                                       "' reads undeclared stream");
  }
  EPL_ASSIGN_OR_RETURN(CompiledQuery compiled, CompileQuery(parsed, *schema));
  auto op = std::make_unique<cep::MatchOperator>(
      compiled.name, std::move(compiled.pattern), std::move(callback),
      std::move(compiled.measures), options);
  return engine->Deploy(source, std::move(op));
}

Result<cep::MultiMatchOperator::QuerySpec> CompileQuerySpec(
    stream::StreamEngine* engine, const ParsedQuery& parsed,
    cep::DetectionCallback callback,
    std::shared_ptr<const cep::CompiledPattern> gate) {
  if (parsed.pattern == nullptr) {
    return InvalidArgumentError("query '" + parsed.name + "' has no pattern");
  }
  std::string source = parsed.pattern->SourceStream();
  Result<stream::Schema> schema = engine->GetSchema(source);
  if (!schema.ok()) {
    return schema.status().WithContext("query '" + parsed.name +
                                       "' reads undeclared stream");
  }
  EPL_ASSIGN_OR_RETURN(CompiledQuery compiled, CompileQuery(parsed, *schema));
  cep::MultiMatchOperator::QuerySpec spec;
  spec.output_name = std::move(compiled.name);
  spec.pattern = std::move(compiled.pattern);
  spec.measures = std::move(compiled.measures);
  spec.callback = std::move(callback);
  spec.gate = std::move(gate);
  return spec;
}

Result<FusedDeployment> DeployFusedOperator(stream::StreamEngine* engine,
                                            const std::string& stream,
                                            cep::MatcherOptions options,
                                            size_t batch_size) {
  EPL_RETURN_IF_ERROR(engine->GetSchema(stream).status());
  auto op = std::make_unique<cep::MultiMatchOperator>(options, batch_size);
  cep::MultiMatchOperator* raw = op.get();
  EPL_ASSIGN_OR_RETURN(stream::DeploymentId id,
                       engine->Deploy(stream, std::move(op)));
  return FusedDeployment{id, raw};
}

Result<ShardedDeployment> DeployShardedOperator(
    stream::StreamEngine* engine, const std::string& stream,
    cep::ShardedEngineOptions options, bool sync_delivery) {
  EPL_RETURN_IF_ERROR(engine->GetSchema(stream).status());
  auto op = std::make_unique<cep::ShardedMatchOperator>(options, sync_delivery);
  cep::ShardedEngine* sharded = &op->engine();
  // Deploy calls Open(), which starts the shard workers.
  EPL_ASSIGN_OR_RETURN(stream::DeploymentId id,
                       engine->Deploy(stream, std::move(op)));
  return ShardedDeployment{id, sharded};
}

}  // namespace epl::query
