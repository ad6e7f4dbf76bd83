// Pattern algebra for CEP gesture queries (paper Sec. 2).
//
// A pattern is a tree: leaves are poses (a predicate over one event of a
// named stream), inner nodes are sequences (`->`) with optional time
// constraints and match policies. The paper's example:
//
//   ( kinect(P1) -> kinect(P2) within 1 seconds select first consume all )
//   -> kinect(P3) within 1 seconds select first consume all
//
// Within semantics (see DESIGN.md 2.3): `WithinMode::kGap` bounds the time
// between the completions of consecutive sequence elements — the reading
// under which the paper's nested `within` annotations all carry meaning.
// `WithinMode::kSpan` bounds first-to-last time of the whole sequence
// (spelled `within ... total` in the query language).

#ifndef EPL_CEP_PATTERN_H_
#define EPL_CEP_PATTERN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cep/expr.h"
#include "common/time_util.h"

namespace epl::cep {

enum class PatternKind { kPose, kSequence };

/// What to emit when matches complete.
enum class SelectPolicy {
  kFirst,  // emit the first completed match
  kAll,    // emit every completed match combination
};

/// What happens to partial matches after an emission.
enum class ConsumePolicy {
  kAll,   // clear every partial match (the paper's default)
  kNone,  // keep partial matches alive
};

enum class WithinMode {
  kGap,   // bound between completions of consecutive elements
  kSpan,  // bound from the sequence's first event to its last
};

class PatternExpr;
using PatternExprPtr = std::unique_ptr<PatternExpr>;

class PatternExpr {
 public:
  /// Leaf: one pose of stream `source` (e.g. "kinect_t") whose event
  /// satisfies `predicate`.
  static PatternExprPtr Pose(std::string source, ExprPtr predicate);

  /// Inner node: children matched in order.
  static PatternExprPtr Sequence(std::vector<PatternExprPtr> children,
                                 std::optional<Duration> within,
                                 WithinMode within_mode = WithinMode::kGap,
                                 SelectPolicy select = SelectPolicy::kFirst,
                                 ConsumePolicy consume = ConsumePolicy::kAll);

  PatternKind kind() const { return kind_; }

  // Pose accessors.
  const std::string& source() const { return source_; }
  const Expr& predicate() const { return *predicate_; }
  Expr* mutable_predicate() { return predicate_.get(); }

  // Sequence accessors.
  const std::vector<PatternExprPtr>& children() const { return children_; }
  std::optional<Duration> within() const { return within_; }
  WithinMode within_mode() const { return within_mode_; }
  SelectPolicy select_policy() const { return select_; }
  ConsumePolicy consume_policy() const { return consume_; }

  /// Structural checks: sequences are non-empty, within is positive, poses
  /// have predicates. Does not bind expressions.
  Status Validate() const;

  /// Number of pose leaves.
  int NumPoses() const;

  /// All pose leaves in sequence order.
  std::vector<const PatternExpr*> Poses() const;

  /// The source stream name (all poses must agree; checked by Validate).
  std::string SourceStream() const;

  PatternExprPtr Clone() const;

  /// Deep copy with every pose retargeted and/or strengthened: poses read
  /// `source` instead of their original stream (unchanged when `source` is
  /// empty) and, when `extra` is non-null, each pose predicate becomes the
  /// conjunction (extra AND predicate). Retargeted onto the shared
  /// multi-user stream with every pose guarded by a session's identity
  /// predicate, a gesture query is the explicit form of the group gate the
  /// session runtime attaches instead (see MultiPatternMatcher::AddPattern):
  /// foreign sessions' events can never advance it.
  PatternExprPtr Rescope(const std::string& source, const Expr* extra) const;

  /// Debug rendering, e.g. "(kinect(...) -> kinect(...) within 1s)".
  std::string ToString() const;

 private:
  PatternExpr() = default;

  void CollectPoses(std::vector<const PatternExpr*>* out) const;

  PatternKind kind_ = PatternKind::kPose;
  // Pose state.
  std::string source_;
  ExprPtr predicate_;
  // Sequence state.
  std::vector<PatternExprPtr> children_;
  std::optional<Duration> within_;
  WithinMode within_mode_ = WithinMode::kGap;
  SelectPolicy select_ = SelectPolicy::kFirst;
  ConsumePolicy consume_ = ConsumePolicy::kAll;
};

}  // namespace epl::cep

#endif  // EPL_CEP_PATTERN_H_
