#include "cep/predicate_bank.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace epl::cep {
namespace {

/// e == scale * field + offset (scale != 0), or a plain constant.
struct LinearForm {
  bool is_constant = false;
  double constant = 0.0;
  int field = -1;
  double scale = 1.0;
  double offset = 0.0;
};

bool ExtractLinear(const Expr& e, LinearForm* out) {
  switch (e.kind()) {
    case ExprKind::kConst:
      out->is_constant = true;
      out->constant = e.constant_value();
      return std::isfinite(e.constant_value());
    case ExprKind::kFieldRef:
      if (e.field_index() < 0) {
        return false;  // unbound
      }
      out->is_constant = false;
      out->field = e.field_index();
      out->scale = 1.0;
      out->offset = 0.0;
      return true;
    case ExprKind::kUnary: {
      if (e.unary_op() != UnaryOp::kNegate) {
        return false;
      }
      LinearForm inner;
      if (!ExtractLinear(e.arg(0), &inner)) {
        return false;
      }
      if (inner.is_constant) {
        out->is_constant = true;
        out->constant = -inner.constant;
      } else {
        out->is_constant = false;
        out->field = inner.field;
        out->scale = -inner.scale;
        out->offset = -inner.offset;
      }
      return true;
    }
    case ExprKind::kBinary: {
      BinaryOp op = e.binary_op();
      if (op != BinaryOp::kAdd && op != BinaryOp::kSub) {
        return false;
      }
      LinearForm lhs, rhs;
      if (!ExtractLinear(e.arg(0), &lhs) || !ExtractLinear(e.arg(1), &rhs)) {
        return false;
      }
      double sign = op == BinaryOp::kAdd ? 1.0 : -1.0;
      if (lhs.is_constant && rhs.is_constant) {
        out->is_constant = true;
        out->constant = lhs.constant + sign * rhs.constant;
        return true;
      }
      if (!lhs.is_constant && !rhs.is_constant) {
        return false;  // two field references; not single-field linear
      }
      const LinearForm& linear = lhs.is_constant ? rhs : lhs;
      double constant = lhs.is_constant ? lhs.constant : rhs.constant;
      out->is_constant = false;
      out->field = linear.field;
      if (lhs.is_constant) {
        // constant +/- linear
        out->scale = sign * linear.scale;
        out->offset = constant + sign * linear.offset;
      } else {
        // linear +/- constant
        out->scale = linear.scale;
        out->offset = linear.offset + sign * constant;
      }
      return true;
    }
    case ExprKind::kCall:
      return false;
  }
  return false;
}

using Interval = PredicateBank::Interval;

void AddLowerBound(Interval* interval, double value) {
  interval->lo = std::max(interval->lo, value);
}

void AddUpperBound(Interval* interval, double value) {
  interval->hi = std::min(interval->hi, value);
}

/// Truth of one bound single-field comparison subtree, evaluated with the
/// exact floating-point operation sequence the ExprProgram executes (the
/// tree-walking Eval performs the same operations in the same order), as a
/// function of the constrained field's value.
class AtomTruth {
 public:
  AtomTruth(const Expr* atom, int field) : atom_(atom), field_(field) {
    probe_.values.assign(static_cast<size_t>(field) + 1, 0.0);
  }

  bool operator()(double v) const {
    probe_.values[static_cast<size_t>(field_)] = v;
    return atom_->EvalBool(probe_);
  }

 private:
  const Expr* atom_;
  int field_;
  mutable stream::Event probe_;
};

// Symbolic endpoints like center +/- width match program semantics only up
// to rounding: abs((c+w) - c) < w can evaluate either way near the real
// boundary, and when the endpoint is much smaller in magnitude than the
// center the discrepancy spans many ulps of v (the granularity of
// fl(v - c) is ulp(c), not ulp(v)). The refiners below therefore bracket
// the truth transition by exponential search from the symbolic guess and
// bisect over the ordered-bits representation of doubles, yielding the
// exact largest/smallest satisfying double. Bounds stored this way are
// always inclusive. Refinement failure (e.g. an empty or sub-ulp interval)
// sends the whole predicate to the exact ExprProgram fallback.

/// Monotone mapping of finite doubles onto uint64 (IEEE total order).
uint64_t OrderedFromDouble(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return (u >> 63) != 0 ? ~u : (u | (uint64_t{1} << 63));
}

double DoubleFromOrdered(uint64_t o) {
  uint64_t u = (o >> 63) != 0 ? (o & ~(uint64_t{1} << 63)) : ~o;
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

constexpr int kMaxBracketSteps = 128;

/// Finds the edge of the satisfied set nearest to the algebraic guess *v:
/// the largest satisfying double when `upper`, the smallest otherwise.
bool RefineEdge(const AtomTruth& truth, bool upper, double* v) {
  if (!std::isfinite(*v)) {
    return false;
  }
  const uint64_t limit_hi =
      OrderedFromDouble(std::numeric_limits<double>::max());
  const uint64_t limit_lo =
      OrderedFromDouble(-std::numeric_limits<double>::max());
  const uint64_t guess = OrderedFromDouble(*v);

  // Bracket the transition: sat_point satisfies the atom, unsat_point does
  // not, and exactly one transition lies between them (the satisfied set
  // is an interval). Walking direction depends on which edge we refine and
  // on the truth at the guess.
  uint64_t sat_point = 0;
  uint64_t unsat_point = 0;
  bool walk_up = truth(*v) == upper;
  uint64_t step = 1;
  uint64_t probe = guess;
  bool bracketed = false;
  bool guess_truth = truth(*v);
  if (guess_truth) {
    sat_point = guess;
  } else {
    unsat_point = guess;
  }
  for (int i = 0; i < kMaxBracketSteps; ++i) {
    if (walk_up) {
      probe = limit_hi - probe < step ? limit_hi : probe + step;
    } else {
      probe = probe - limit_lo < step ? limit_lo : probe - step;
    }
    if (truth(DoubleFromOrdered(probe)) != guess_truth) {
      (guess_truth ? unsat_point : sat_point) = probe;
      bracketed = true;
      break;
    }
    (guess_truth ? sat_point : unsat_point) = probe;
    if (probe == (walk_up ? limit_hi : limit_lo)) {
      break;
    }
    step *= 2;
  }
  if (!bracketed) {
    return false;
  }

  // Bisect down to adjacent doubles.
  uint64_t a = std::min(sat_point, unsat_point);
  uint64_t b = std::max(sat_point, unsat_point);
  const bool a_satisfies = a == sat_point;
  while (b - a > 1) {
    uint64_t mid = a + (b - a) / 2;
    if (truth(DoubleFromOrdered(mid)) == a_satisfies) {
      a = mid;
    } else {
      b = mid;
    }
  }
  *v = DoubleFromOrdered(a_satisfies ? a : b);
  return true;
}

bool RefineUpperEdge(const AtomTruth& truth, double* v) {
  return RefineEdge(truth, /*upper=*/true, v);
}

bool RefineLowerEdge(const AtomTruth& truth, double* v) {
  return RefineEdge(truth, /*upper=*/false, v);
}

bool IsAbsCall(const Expr& e) {
  return e.kind() == ExprKind::kCall && e.function_name() == "abs" &&
         e.args().size() == 1;
}

/// Handles a comparison node `lhs op rhs` where exactly one side is a
/// constant. Supports single-field linear atoms and `abs(linear) < c`
/// (the learned range-predicate shape). Boundaries are refined against the
/// atom's own evaluation, so the resulting inclusive interval agrees with
/// ExprProgram semantics for every double.
bool DecomposeComparison(const Expr& cmp, std::map<int, Interval>* out) {
  const Expr* value_side = &cmp.arg(0);
  BinaryOp op = cmp.binary_op();
  LinearForm constant_side;
  // Normalize the constant to the right-hand side.
  if (!(ExtractLinear(cmp.arg(1), &constant_side) &&
        constant_side.is_constant)) {
    if (!(ExtractLinear(cmp.arg(0), &constant_side) &&
          constant_side.is_constant)) {
      return false;
    }
    value_side = &cmp.arg(1);
    switch (op) {  // mirror: c op x  ==  x op' c
      case BinaryOp::kLt:
        op = BinaryOp::kGt;
        break;
      case BinaryOp::kLe:
        op = BinaryOp::kGe;
        break;
      case BinaryOp::kGt:
        op = BinaryOp::kLt;
        break;
      case BinaryOp::kGe:
        op = BinaryOp::kLe;
        break;
      default:
        break;
    }
  }
  double bound = constant_side.constant;

  bool two_sided = false;
  LinearForm linear;
  if (IsAbsCall(*value_side)) {
    // abs(x) < c  <=>  -c < x < c. (abs(x) > c is a disjunction; fallback.)
    if (op != BinaryOp::kLt && op != BinaryOp::kLe) {
      return false;
    }
    if (!ExtractLinear(value_side->arg(0), &linear) || linear.is_constant) {
      return false;
    }
    two_sided = true;
  } else {
    if (!ExtractLinear(*value_side, &linear) || linear.is_constant) {
      return false;
    }
  }
  if (linear.scale == 0.0 || !std::isfinite(linear.scale) ||
      !std::isfinite(linear.offset) || !std::isfinite(bound)) {
    return false;
  }

  const AtomTruth truth(&cmp, linear.field);
  Interval& interval = (*out)[linear.field];

  if (two_sided || op == BinaryOp::kEq) {
    double lo = two_sided ? (-bound - linear.offset) / linear.scale
                          : (bound - linear.offset) / linear.scale;
    double hi = two_sided ? (bound - linear.offset) / linear.scale : lo;
    if (lo > hi) {
      std::swap(lo, hi);
    }
    if (!RefineLowerEdge(truth, &lo) || !RefineUpperEdge(truth, &hi)) {
      return false;
    }
    AddLowerBound(&interval, lo);
    AddUpperBound(&interval, hi);
    return true;
  }

  double guess = (bound - linear.offset) / linear.scale;
  bool upper = (op == BinaryOp::kLt || op == BinaryOp::kLe) !=
               (linear.scale < 0.0);
  if (upper) {
    if (!RefineUpperEdge(truth, &guess)) {
      return false;
    }
    AddUpperBound(&interval, guess);
  } else {
    if (!RefineLowerEdge(truth, &guess)) {
      return false;
    }
    AddLowerBound(&interval, guess);
  }
  return true;
}

}  // namespace

bool PredicateBank::Decompose(const Expr& expr,
                              std::map<int, Interval>* out) {
  switch (expr.kind()) {
    case ExprKind::kConst:
      // Conjunction identity (Expr::And of zero terms). Constant false is
      // left to the fallback path.
      return expr.constant_value() != 0.0;
    case ExprKind::kBinary:
      switch (expr.binary_op()) {
        case BinaryOp::kAnd:
          return Decompose(expr.arg(0), out) && Decompose(expr.arg(1), out);
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kEq:
          return DecomposeComparison(expr, out);
        default:
          return false;
      }
    default:
      return false;
  }
}

std::vector<int> PredicateBank::RegisterPattern(
    const CompiledPattern& pattern) {
  EPL_CHECK(!built_) << "RegisterPattern after Build";
  std::vector<int> slot_ids(pattern.num_distinct_predicates(), -1);
  for (int state = 0; state < pattern.num_states(); ++state) {
    int local = pattern.predicate_id(state);
    if (slot_ids[local] >= 0) {
      continue;
    }
    const std::string& key = pattern.predicate_key(local);
    auto [it, inserted] =
        key_to_id_.emplace(key, static_cast<int>(predicates_.size()));
    if (inserted) {
      Predicate predicate;
      predicate.program = &pattern.predicate(state);
      predicate.expr = &pattern.predicate_expr(state);
      predicates_.push_back(predicate);
    }
    slot_ids[local] = it->second;
  }
  registered_states_ += static_cast<size_t>(pattern.num_states());
  return slot_ids;
}

void PredicateBank::Build() {
  if (built_) {
    return;
  }
  built_ = true;

  num_decomposable_ = 0;
  for (Predicate& predicate : predicates_) {
    predicate.intervals.clear();
    if (Decompose(*predicate.expr, &predicate.intervals)) {
      predicate.decomposable = true;
      predicate.slot = num_decomposable_++;
    } else {
      predicate.decomposable = false;
      predicate.slot = static_cast<int>(fallback_programs_.size());
      fallback_programs_.push_back(predicate.program);
    }
  }

  // Group interval constraints by field.
  std::map<int, std::vector<const Predicate*>> by_field;
  for (const Predicate& predicate : predicates_) {
    if (!predicate.decomposable) {
      continue;
    }
    for (const auto& [field, interval] : predicate.intervals) {
      (void)interval;
      by_field[field].push_back(&predicate);
    }
  }

  const size_t num_words = words();
  fields_.clear();
  fields_.reserve(by_field.size());
  for (const auto& [field, constrained_predicates] : by_field) {
    FieldIndex index;
    index.field = field;
    for (const Predicate* predicate : constrained_predicates) {
      const Interval& interval = predicate->intervals.at(field);
      if (std::isfinite(interval.lo)) {
        index.bounds.push_back(interval.lo);
      }
      if (std::isfinite(interval.hi)) {
        index.bounds.push_back(interval.hi);
      }
    }
    std::sort(index.bounds.begin(), index.bounds.end());
    index.bounds.erase(
        std::unique(index.bounds.begin(), index.bounds.end()),
        index.bounds.end());

    // Elementary regions: (-inf,b0), [b0,b0], (b0,b1), ..., (bk-1,+inf).
    // An inclusive interval [lo, hi] holds exactly on the contiguous
    // region range [on, off): on is lo's singleton region (or 0 when
    // lo = -inf), off is one past hi's singleton region (or past the last
    // region when hi = +inf). The index therefore stores one on and one
    // off transition per predicate instead of a bitset per region.
    const size_t num_regions = 2 * index.bounds.size() + 1;
    index.constrained.assign(num_words, 0);
    std::vector<uint64_t> running(num_words, ~uint64_t{0});

    for (const Predicate* predicate : constrained_predicates) {
      const Interval& interval = predicate->intervals.at(field);
      const uint32_t bit = static_cast<uint32_t>(predicate->slot);
      index.constrained[bit >> 6] |= uint64_t{1} << (bit & 63);
      if (interval.lo > interval.hi) {
        // Empty after intersection: never satisfied, no transitions.
        running[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
        continue;
      }
      size_t on = 0;
      if (std::isfinite(interval.lo)) {
        size_t pos = static_cast<size_t>(
            std::lower_bound(index.bounds.begin(), index.bounds.end(),
                             interval.lo) -
            index.bounds.begin());
        on = 2 * pos + 1;
      }
      size_t off = num_regions;
      if (std::isfinite(interval.hi)) {
        size_t pos = static_cast<size_t>(
            std::lower_bound(index.bounds.begin(), index.bounds.end(),
                             interval.hi) -
            index.bounds.begin());
        off = 2 * pos + 2;
      }
      if (on > 0) {
        running[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
        index.deltas.push_back(
            {static_cast<uint32_t>(on), bit, /*on=*/true});
      }
      if (off < num_regions) {
        index.deltas.push_back(
            {static_cast<uint32_t>(off), bit, /*on=*/false});
      }
    }
    std::sort(index.deltas.begin(), index.deltas.end(),
              [](const FieldIndex::RegionDelta& a,
                 const FieldIndex::RegionDelta& b) {
                return a.region < b.region;
              });

    // Walk the regions once, snapshotting an absolute bitset every
    // kCheckpointStride regions and remembering where each checkpoint's
    // trailing deltas start.
    const size_t num_checkpoints =
        (num_regions + kCheckpointStride - 1) / kCheckpointStride;
    index.checkpoints.reserve(num_checkpoints * num_words);
    index.checkpoint_delta_begin.reserve(num_checkpoints);
    size_t next_delta = 0;
    for (size_t region = 0; region < num_regions; ++region) {
      while (next_delta < index.deltas.size() &&
             index.deltas[next_delta].region == region) {
        const FieldIndex::RegionDelta& delta = index.deltas[next_delta];
        if (delta.on) {
          running[delta.bit >> 6] |= uint64_t{1} << (delta.bit & 63);
        } else {
          running[delta.bit >> 6] &= ~(uint64_t{1} << (delta.bit & 63));
        }
        ++next_delta;
      }
      if (region % kCheckpointStride == 0) {
        index.checkpoints.insert(index.checkpoints.end(), running.begin(),
                                 running.end());
        index.checkpoint_delta_begin.push_back(
            static_cast<uint32_t>(next_delta));
      }
    }

    index.memo_words.assign(num_words, 0);
    fields_.push_back(std::move(index));
  }
}

bool PredicateBank::RegionContains(const FieldIndex& index, size_t region,
                                   double v) {
  if (region % 2 == 1) {
    return v == index.bounds[(region - 1) / 2];
  }
  const size_t slot = region / 2;
  return (slot == 0 || v > index.bounds[slot - 1]) &&
         (slot == index.bounds.size() || v < index.bounds[slot]);
}

void PredicateBank::SeekRegion(FieldIndex* index, size_t region) const {
  const size_t checkpoint = region / kCheckpointStride;
  const size_t num_words = index->memo_words.size();
  std::copy_n(index->checkpoints.begin() +
                  static_cast<ptrdiff_t>(checkpoint * num_words),
              num_words, index->memo_words.begin());
  for (size_t i = index->checkpoint_delta_begin[checkpoint];
       i < index->deltas.size() && index->deltas[i].region <= region; ++i) {
    const FieldIndex::RegionDelta& delta = index->deltas[i];
    if (delta.on) {
      index->memo_words[delta.bit >> 6] |= uint64_t{1} << (delta.bit & 63);
    } else {
      index->memo_words[delta.bit >> 6] &= ~(uint64_t{1} << (delta.bit & 63));
    }
  }
  index->memo_region = region;
  index->memo_valid = true;
}

size_t PredicateBank::index_bytes() const {
  size_t bytes = 0;
  for (const FieldIndex& index : fields_) {
    bytes += index.checkpoints.size() * sizeof(uint64_t) +
             index.deltas.size() * sizeof(FieldIndex::RegionDelta) +
             index.checkpoint_delta_begin.size() * sizeof(uint32_t) +
             (index.constrained.size() + index.memo_words.size()) *
                 sizeof(uint64_t) +
             index.bounds.size() * sizeof(double);
  }
  return bytes;
}

void PredicateBank::EvaluateBatch(const stream::Event* events, size_t count) {
  if (!built_) {
    Build();
  }
  stats_.events += count;
  batch_events_ = events;

  const simd::Kernels& kernels = simd::Active();
  const size_t num_words = words();
  batch_words_.assign(num_words * count, ~uint64_t{0});
  for (FieldIndex& index : fields_) {
    // One memo walk over the whole window, run-length compressed: event b
    // only searches (and replays deltas) when it leaves the memoized
    // elementary region, and a maximal run of consecutive same-region
    // events is ANDed in ONE row-broadcast kernel call instead of one
    // word loop per event.
    size_t b = 0;
    while (b < count) {
      double v = events[b].values[index.field];
      if (std::isnan(v)) {
        // No interval contains NaN; clear every predicate constrained
        // here. The memo stays valid for the next event.
        simd::AndNotInto(kernels, batch_words_.data() + b * num_words,
                         index.constrained.data(), num_words);
        ++b;
        continue;
      }
      if (index.memo_valid && RegionContains(index, index.memo_region, v)) {
        ++stats_.region_memo_hits;
        ++stats_.batch_broadcast_rows;
      } else {
        ++stats_.region_searches;
        ++stats_.batch_recomputed_rows;
        size_t pos = static_cast<size_t>(
            std::lower_bound(index.bounds.begin(), index.bounds.end(), v) -
            index.bounds.begin());
        size_t region = (pos < index.bounds.size() && index.bounds[pos] == v)
                            ? 2 * pos + 1
                            : 2 * pos;
        SeekRegion(&index, region);
      }
      size_t run_end = b + 1;
      while (run_end < count) {
        const double next = events[run_end].values[index.field];
        if (std::isnan(next) ||
            !RegionContains(index, index.memo_region, next)) {
          break;
        }
        ++run_end;
      }
      const size_t run = run_end - b;
      stats_.region_memo_hits += run - 1;
      stats_.batch_broadcast_rows += run - 1;
      simd::AndRows(kernels, batch_words_.data() + b * num_words, num_words,
                    run, index.memo_words.data(), num_words);
      b = run_end;
    }
  }

  if (!fallback_programs_.empty()) {
    batch_fallback_values_.assign(fallback_programs_.size() * count, -1);
  }
}

bool PredicateBank::batch_value(size_t b, int id) const {
  const Predicate& predicate = predicates_[id];
  if (predicate.decomposable) {
    const size_t bit = static_cast<size_t>(predicate.slot);
    return (batch_words_[b * words() + (bit >> 6)] >> (bit & 63)) & 1;
  }
  int8_t& cached =
      batch_fallback_values_[b * fallback_programs_.size() +
                             static_cast<size_t>(predicate.slot)];
  if (cached < 0) {
    ++stats_.program_evaluations;
    cached =
        fallback_programs_[static_cast<size_t>(predicate.slot)]->EvalBool(
            batch_events_[b])
            ? 1
            : 0;
  }
  return cached == 1;
}

}  // namespace epl::cep
