#include "cep/nfa.h"

#include <cstdio>

#include "common/string_util.h"

namespace epl::cep {
namespace {

// Walks the pattern tree assigning state indices to poses and collecting
// time constraints. Returns the [first, last] state range of the subtree.
struct StateRange {
  int first;
  int last;
};

StateRange LowerNode(const PatternExpr& node, int* next_state,
                     std::vector<const PatternExpr*>* poses,
                     std::vector<TimeConstraint>* constraints) {
  if (node.kind() == PatternKind::kPose) {
    int state = (*next_state)++;
    poses->push_back(&node);
    return {state, state};
  }
  std::vector<StateRange> child_ranges;
  child_ranges.reserve(node.children().size());
  for (const PatternExprPtr& child : node.children()) {
    child_ranges.push_back(LowerNode(*child, next_state, poses, constraints));
  }
  StateRange range{child_ranges.front().first, child_ranges.back().last};
  if (node.within().has_value()) {
    if (node.within_mode() == WithinMode::kGap) {
      for (size_t i = 0; i + 1 < child_ranges.size(); ++i) {
        constraints->push_back(TimeConstraint{child_ranges[i].last,
                                              child_ranges[i + 1].last,
                                              *node.within()});
      }
    } else {
      if (range.last != range.first) {
        constraints->push_back(
            TimeConstraint{range.first, range.last, *node.within()});
      }
    }
  }
  return range;
}

// Exact canonical rendering of a bound predicate, used as the dedup key.
// Unlike Expr::ToString (which truncates constants to 6 decimals for
// readability), constants render as hexfloats and fields as bound indices,
// so predicates merge only when they are bit-identical.
void AppendCanonicalKey(const Expr& expr, std::string* out) {
  switch (expr.kind()) {
    case ExprKind::kConst: {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%a", expr.constant_value());
      out->append(buffer);
      return;
    }
    case ExprKind::kFieldRef:
      out->push_back('f');
      out->append(std::to_string(expr.field_index()));
      return;
    case ExprKind::kUnary:
      out->push_back('u');
      out->append(std::to_string(static_cast<int>(expr.unary_op())));
      out->push_back('(');
      AppendCanonicalKey(expr.arg(0), out);
      out->push_back(')');
      return;
    case ExprKind::kBinary:
      out->push_back('b');
      out->append(std::to_string(static_cast<int>(expr.binary_op())));
      out->push_back('(');
      AppendCanonicalKey(expr.arg(0), out);
      out->push_back(',');
      AppendCanonicalKey(expr.arg(1), out);
      out->push_back(')');
      return;
    case ExprKind::kCall:
      out->push_back('c');
      out->append(expr.function_name());
      out->push_back('(');
      for (size_t i = 0; i < expr.args().size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        AppendCanonicalKey(expr.arg(static_cast<int>(i)), out);
      }
      out->push_back(')');
      return;
  }
}

std::string CanonicalKey(const Expr& expr) {
  std::string key;
  AppendCanonicalKey(expr, &key);
  return key;
}

}  // namespace

CompiledPattern::CompiledPattern() {
  // Every empty pattern shares one empty body.
  static const std::shared_ptr<const Body> empty = std::make_shared<Body>();
  body_ = empty;
}

Result<CompiledPattern> CompiledPattern::Compile(
    const PatternExpr& pattern, const stream::Schema& schema) {
  EPL_RETURN_IF_ERROR(pattern.Validate());

  auto body = std::make_shared<Body>();
  int next_state = 0;
  std::vector<const PatternExpr*> poses;
  LowerNode(pattern, &next_state, &poses, &body->constraints);

  body->predicate_exprs.reserve(poses.size());
  body->predicate_ids.reserve(poses.size());
  for (const PatternExpr* pose : poses) {
    ExprPtr bound = pose->predicate().Clone();
    EPL_RETURN_IF_ERROR(bound->Bind(schema));
    // States with structurally identical predicates share one compiled
    // program (and one memoization slot in the matcher).
    std::string key = CanonicalKey(*bound);
    int slot = -1;
    for (size_t i = 0; i < body->predicate_keys.size(); ++i) {
      if (body->predicate_keys[i] == key) {
        slot = static_cast<int>(i);
        break;
      }
    }
    if (slot < 0) {
      EPL_ASSIGN_OR_RETURN(ExprProgram program, ExprProgram::Compile(*bound));
      slot = static_cast<int>(body->predicates.size());
      body->predicates.push_back(std::move(program));
      body->predicate_keys.push_back(std::move(key));
    }
    body->predicate_ids.push_back(slot);
    body->predicate_exprs.push_back(std::move(bound));
  }

  body->constraints_by_state.resize(poses.size());
  for (const TimeConstraint& constraint : body->constraints) {
    if (constraint.from_state >= constraint.to_state) {
      return InternalError("constraint lowering produced non-forward edge");
    }
    body->constraints_by_state[constraint.to_state].push_back(constraint);
  }

  body->select = pattern.kind() == PatternKind::kSequence
                     ? pattern.select_policy()
                     : SelectPolicy::kFirst;
  body->consume = pattern.kind() == PatternKind::kSequence
                      ? pattern.consume_policy()
                      : ConsumePolicy::kAll;
  body->source_stream = pattern.SourceStream();
  return CompiledPattern(std::move(body));
}

std::string CompiledPattern::ToString() const {
  std::string out = StrFormat("NFA with %d states\n", num_states());
  for (int i = 0; i < num_states(); ++i) {
    out += StrFormat("  state %d: %s\n", i,
                     predicate_expr(i).ToString().c_str());
  }
  for (const TimeConstraint& c : constraints()) {
    out += StrFormat("  constraint: t[%d] - t[%d] <= %s\n", c.to_state,
                     c.from_state, FormatDuration(c.max_gap).c_str());
  }
  out += StrFormat("  policy: select %s consume %s\n",
                   select_policy() == SelectPolicy::kFirst ? "first" : "all",
                   consume_policy() == ConsumePolicy::kAll ? "all" : "none");
  return out;
}

}  // namespace epl::cep
