// Compilation of a PatternExpr into a linear NFA with time constraints.
//
// Pose leaves become NFA states 0..n-1 in sequence order. Every `within`
// annotation lowers to one or more upper-bound constraints between state
// entry timestamps:
//   * kGap on a sequence: for each pair of consecutive children, the time
//     between the completion of the left child (its last state) and the
//     completion of the right child is bounded.
//   * kSpan on a sequence: the time between the sequence's first state and
//     its last state is bounded.
// All constraints have the form t[to] - t[from] <= max_gap with from < to,
// which is what makes the dominant-run matcher correct (DESIGN.md 2.4).

#ifndef EPL_CEP_NFA_H_
#define EPL_CEP_NFA_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cep/expr_program.h"
#include "cep/pattern.h"
#include "stream/schema.h"

namespace epl::cep {

/// One temporal upper bound between two state-entry timestamps.
struct TimeConstraint {
  int from_state = 0;
  int to_state = 0;
  Duration max_gap = 0;
};

/// A compiled pattern is an immutable value: Compile builds one body, and
/// every copy shares it (copying costs a reference count, not a compile).
/// This is how one compiled gesture serves every session that deploys it:
/// each deployed query holds its own CompiledPattern, but all of them read
/// the same predicate programs, keys and constraints. Bodies are never
/// written after Compile, so matchers on different threads may read one
/// body at once.
class CompiledPattern {
 public:
  /// Binds all pose predicates against `schema`, compiles them, and lowers
  /// the within annotations. The input pattern is not modified.
  static Result<CompiledPattern> Compile(const PatternExpr& pattern,
                                         const stream::Schema& schema);

  /// An empty pattern (no states).
  CompiledPattern();
  // Copy only: a move would leave a pattern without a body, so moves copy
  // (one reference count) and every CompiledPattern stays readable.
  CompiledPattern(const CompiledPattern&) = default;
  CompiledPattern& operator=(const CompiledPattern&) = default;

  int num_states() const {
    return static_cast<int>(body_->predicate_exprs.size());
  }
  const ExprProgram& predicate(int state) const {
    return body_->predicates[body_->predicate_ids[state]];
  }
  const Expr& predicate_expr(int state) const {
    return *body_->predicate_exprs[state];
  }

  /// Distinct-predicate slot of `state`. States whose bound predicates
  /// are structurally bit-identical (exact canonical rendering: hexfloat
  /// constants, bound field indices) share one slot and one compiled
  /// ExprProgram; the matcher memoizes per-event predicate results by slot
  /// and the PredicateBank deduplicates across patterns by the same
  /// canonical key.
  int predicate_id(int state) const { return body_->predicate_ids[state]; }
  int num_distinct_predicates() const {
    return static_cast<int>(body_->predicates.size());
  }
  /// Canonical dedup key of distinct predicate `id` (exact, not
  /// human-readable; see predicate_id).
  const std::string& predicate_key(int id) const {
    return body_->predicate_keys[id];
  }

  const std::vector<TimeConstraint>& constraints() const {
    return body_->constraints;
  }
  /// Constraints whose `to_state` equals `state` (checked on entry).
  const std::vector<TimeConstraint>& constraints_into(int state) const {
    return body_->constraints_by_state[state];
  }

  SelectPolicy select_policy() const { return body_->select; }
  ConsumePolicy consume_policy() const { return body_->consume; }
  const std::string& source_stream() const { return body_->source_stream; }

  /// Identity of the shared compiled body: equal for copies of one
  /// Compile result, distinct for separate compiles (even of one text).
  /// Per-body caches (PredicateBank registration) key on it.
  const void* body_id() const { return body_.get(); }

  std::string ToString() const;

 private:
  struct Body {
    std::vector<ExprProgram> predicates;   // one per distinct predicate
    std::vector<std::string> predicate_keys;  // parallel to predicates
    std::vector<int> predicate_ids;        // state -> distinct slot
    // Bound per-state trees: diagnostics (ToString) and the source for
    // PredicateBank interval decomposition -- must stay bound.
    std::vector<ExprPtr> predicate_exprs;
    std::vector<TimeConstraint> constraints;
    std::vector<std::vector<TimeConstraint>> constraints_by_state;
    SelectPolicy select = SelectPolicy::kFirst;
    ConsumePolicy consume = ConsumePolicy::kAll;
    std::string source_stream;
  };

  explicit CompiledPattern(std::shared_ptr<const Body> body)
      : body_(std::move(body)) {}

  std::shared_ptr<const Body> body_;
};

}  // namespace epl::cep

#endif  // EPL_CEP_NFA_H_
