#include "cep/predicate_bank.h"

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "cep/pattern.h"
#include "common/rng.h"
#include "stream/schema.h"
#include "test_util.h"

namespace epl::cep {
namespace {

using stream::Event;
using stream::Schema;

Schema XyzSchema() {
  return Schema(std::vector<std::string>{"x", "y", "z"});
}

ExprPtr Bound(ExprPtr expr) {
  Status status = expr->Bind(XyzSchema());
  EPL_CHECK(status.ok()) << status;
  return expr;
}

std::map<int, PredicateBank::Interval> DecomposeOrDie(const Expr& expr) {
  std::map<int, PredicateBank::Interval> intervals;
  EXPECT_TRUE(PredicateBank::Decompose(expr, &intervals))
      << expr.ToString();
  return intervals;
}

CompiledPattern CompilePose(ExprPtr predicate) {
  PatternExprPtr pose = PatternExpr::Pose("s", std::move(predicate));
  Result<CompiledPattern> compiled =
      CompiledPattern::Compile(*pose, XyzSchema());
  EPL_CHECK(compiled.ok()) << compiled.status();
  return std::move(compiled).value();
}

Event At(double x, double y = 0.0, double z = 0.0) {
  return Event(0, {x, y, z});
}

/// Evaluates `event` as a window of one; read results with
/// bank.batch_value(0, id). The bank borrows `event` (fallback predicates
/// are interpreted lazily against it), so it must outlive those reads.
void EvaluateOne(PredicateBank& bank, const Event& event) {
  bank.EvaluateBatch(&event, 1);
}

TEST(DecomposeTest, RangePredicateBecomesOneInterval) {
  ExprPtr expr = Bound(Expr::RangePredicate("x", 100, 50));
  auto intervals = DecomposeOrDie(*expr);
  ASSERT_EQ(intervals.size(), 1u);
  const PredicateBank::Interval& interval = intervals.at(0);
  // Bounds are refined to the exact inclusive floating-point boundary,
  // within an ulp of the symbolic endpoints.
  EXPECT_DOUBLE_EQ(interval.lo, 50.0);
  EXPECT_DOUBLE_EQ(interval.hi, 150.0);
  EXPECT_GT(interval.lo, 50.0);
  EXPECT_LT(interval.hi, 150.0);
}

TEST(DecomposeTest, NegativeCenterRendersAsAddition) {
  // RangePredicate folds a negative center into "x + 120".
  ExprPtr expr = Bound(Expr::RangePredicate("x", -120, 50));
  auto intervals = DecomposeOrDie(*expr);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals.at(0).lo, -170.0);
  EXPECT_DOUBLE_EQ(intervals.at(0).hi, -70.0);
}

TEST(DecomposeTest, ConjunctionCoversAllFields) {
  std::vector<ExprPtr> terms;
  terms.push_back(Expr::RangePredicate("x", 10, 1));
  terms.push_back(Expr::RangePredicate("y", 20, 2));
  terms.push_back(Expr::RangePredicate("z", 30, 3));
  ExprPtr expr = Bound(Expr::And(std::move(terms)));
  auto intervals = DecomposeOrDie(*expr);
  ASSERT_EQ(intervals.size(), 3u);
  EXPECT_DOUBLE_EQ(intervals.at(1).lo, 18.0);
  EXPECT_DOUBLE_EQ(intervals.at(2).hi, 33.0);
}

TEST(DecomposeTest, PlainComparisonsAndEquality) {
  auto lt = DecomposeOrDie(*Bound(
      Expr::Binary(BinaryOp::kLt, Expr::Field("x"), Expr::Constant(5))));
  // x < 5 refines to the inclusive bound just below 5.
  EXPECT_DOUBLE_EQ(lt.at(0).hi, 5.0);
  EXPECT_LT(lt.at(0).hi, 5.0);

  // Constant on the left mirrors the comparison: 5 < x is a lower bound.
  auto gt = DecomposeOrDie(*Bound(
      Expr::Binary(BinaryOp::kLt, Expr::Constant(5), Expr::Field("x"))));
  EXPECT_DOUBLE_EQ(gt.at(0).lo, 5.0);

  auto eq = DecomposeOrDie(*Bound(
      Expr::Binary(BinaryOp::kEq, Expr::Field("x"), Expr::Constant(7))));
  EXPECT_DOUBLE_EQ(eq.at(0).lo, 7.0);
  EXPECT_DOUBLE_EQ(eq.at(0).hi, 7.0);
}

TEST(DecomposeTest, IntersectsBoundsOnOneField) {
  ExprPtr expr = Bound(Expr::Binary(
      BinaryOp::kAnd, Expr::RangePredicate("x", 100, 50),
      Expr::RangePredicate("x", 120, 50)));
  auto intervals = DecomposeOrDie(*expr);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals.at(0).lo, 70.0);
  EXPECT_DOUBLE_EQ(intervals.at(0).hi, 150.0);
}

TEST(DecomposeTest, RejectsNonConjunctiveShapes) {
  std::map<int, PredicateBank::Interval> intervals;
  // Disjunction.
  EXPECT_FALSE(PredicateBank::Decompose(
      *Bound(Expr::Binary(BinaryOp::kOr, Expr::RangePredicate("x", 0, 1),
                          Expr::RangePredicate("x", 10, 1))),
      &intervals));
  // Two fields in one atom.
  EXPECT_FALSE(PredicateBank::Decompose(
      *Bound(Expr::Binary(
          BinaryOp::kLt,
          Expr::Binary(BinaryOp::kAdd, Expr::Field("x"), Expr::Field("y")),
          Expr::Constant(3))),
      &intervals));
  // abs(x) > c is a disjunction of rays.
  EXPECT_FALSE(PredicateBank::Decompose(
      *Bound(Expr::Binary(BinaryOp::kGt, Expr::Abs(Expr::Field("x")),
                          Expr::Constant(2))),
      &intervals));
  // Function calls other than abs.
  std::vector<ExprPtr> args;
  args.push_back(Expr::Field("x"));
  args.push_back(Expr::Field("y"));
  args.push_back(Expr::Field("z"));
  EXPECT_FALSE(PredicateBank::Decompose(
      *Bound(Expr::Binary(BinaryOp::kLt,
                          Expr::Call("hypot3", std::move(args)),
                          Expr::Constant(10))),
      &intervals));
}

TEST(PredicateBankTest, BoundaryStrictnessIsExact) {
  std::vector<CompiledPattern> patterns;
  patterns.push_back(CompilePose(
      Expr::Binary(BinaryOp::kLt, Expr::Field("x"), Expr::Constant(5))));
  patterns.push_back(CompilePose(
      Expr::Binary(BinaryOp::kLe, Expr::Field("x"), Expr::Constant(5))));
  patterns.push_back(CompilePose(
      Expr::Binary(BinaryOp::kGt, Expr::Field("x"), Expr::Constant(5))));
  patterns.push_back(CompilePose(
      Expr::Binary(BinaryOp::kGe, Expr::Field("x"), Expr::Constant(5))));

  PredicateBank bank;
  std::vector<int> ids;
  for (const CompiledPattern& pattern : patterns) {
    ids.push_back(bank.RegisterPattern(pattern)[0]);
  }
  bank.Build();
  EXPECT_EQ(bank.num_fallback(), 0);

  const Event on_endpoint = At(5.0);  // exactly on the shared endpoint
  EvaluateOne(bank, on_endpoint);
  EXPECT_FALSE(bank.batch_value(0, ids[0]));  // x < 5
  EXPECT_TRUE(bank.batch_value(0, ids[1]));   // x <= 5
  EXPECT_FALSE(bank.batch_value(0, ids[2]));  // x > 5
  EXPECT_TRUE(bank.batch_value(0, ids[3]));   // x >= 5

  const Event below = At(4.999);
  EvaluateOne(bank, below);
  EXPECT_TRUE(bank.batch_value(0, ids[0]));
  EXPECT_TRUE(bank.batch_value(0, ids[1]));
  EXPECT_FALSE(bank.batch_value(0, ids[2]));
  EXPECT_FALSE(bank.batch_value(0, ids[3]));
}

TEST(PredicateBankTest, DeduplicatesAcrossPatterns) {
  CompiledPattern a = CompilePose(Expr::RangePredicate("x", 100, 50));
  CompiledPattern b = CompilePose(Expr::RangePredicate("x", 100, 50));
  CompiledPattern c = CompilePose(Expr::RangePredicate("x", 200, 50));
  PredicateBank bank;
  int id_a = bank.RegisterPattern(a)[0];
  int id_b = bank.RegisterPattern(b)[0];
  int id_c = bank.RegisterPattern(c)[0];
  EXPECT_EQ(id_a, id_b);
  EXPECT_NE(id_a, id_c);
  EXPECT_EQ(bank.num_predicates(), 2);
  EXPECT_EQ(bank.registered_states(), 3u);
}

/// Pattern `recipe` of a small random family: a 1-4 pose sequence whose
/// pose predicates draw from few centers (so patterns share predicates)
/// and sometimes are not decomposable (bank fallback).
PatternExprPtr RecipePattern(uint64_t recipe) {
  Rng rng(recipe);
  const char* fields[] = {"x", "y", "z"};
  std::vector<PatternExprPtr> poses;
  const int num_poses = static_cast<int>(rng.UniformInt(1, 4));
  for (int p = 0; p < num_poses; ++p) {
    ExprPtr predicate = Expr::RangePredicate(
        fields[rng.UniformInt(0, 2)],
        10.0 * static_cast<double>(rng.UniformInt(0, 5)), 15.0);
    if (rng.Bernoulli(0.25)) {
      predicate = Expr::Binary(
          BinaryOp::kOr, std::move(predicate),
          Expr::Binary(BinaryOp::kGt,
                       Expr::Binary(BinaryOp::kMul, Expr::Field("x"),
                                    Expr::Field("y")),
                       Expr::Constant(100.0 * static_cast<double>(
                                                  rng.UniformInt(1, 3)))));
    }
    poses.push_back(PatternExpr::Pose("s", std::move(predicate)));
  }
  if (poses.size() == 1) {
    return std::move(poses[0]);
  }
  return PatternExpr::Sequence(std::move(poses), 1000);
}

CompiledPattern CompileRecipe(uint64_t recipe) {
  Result<CompiledPattern> compiled =
      CompiledPattern::Compile(*RecipePattern(recipe), XyzSchema());
  EPL_CHECK(compiled.ok()) << compiled.status();
  return std::move(compiled).value();
}

// Registering a copy of an already registered body reuses the body's slot
// ids; a bank fed copies of a few bodies must hand out exactly the ids,
// predicates and truth values of a bank fed a separate compile per
// registration.
TEST(PredicateBankTest, SharedBodiesRegisterLikeSeparateCompiles) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    constexpr int kRecipes = 8;
    std::vector<CompiledPattern> bodies;
    for (int r = 0; r < kRecipes; ++r) {
      bodies.push_back(CompileRecipe(seed * 100 + static_cast<uint64_t>(r)));
    }
    // Kept alive for the banks' lifetime.
    std::vector<CompiledPattern> separate;
    std::vector<CompiledPattern> copies;
    PredicateBank plain;
    PredicateBank memo;
    for (int pick = 0; pick < 200; ++pick) {
      const int r = static_cast<int>(rng.UniformInt(0, kRecipes - 1));
      separate.push_back(CompileRecipe(seed * 100 + static_cast<uint64_t>(r)));
      copies.push_back(bodies[static_cast<size_t>(r)]);
      ASSERT_NE(separate.back().body_id(), copies.back().body_id());
      ASSERT_EQ(copies.back().body_id(),
                bodies[static_cast<size_t>(r)].body_id());
      EXPECT_EQ(memo.RegisterPattern(copies.back()),
                plain.RegisterPattern(separate.back()))
          << "seed " << seed << " pick " << pick;
    }
    EXPECT_EQ(memo.num_predicates(), plain.num_predicates());
    EXPECT_EQ(memo.registered_states(), plain.registered_states());
    const Event events[] = {At(0, 10, 20), At(30, 40, 50), At(12, 9, 41),
                            At(50, 3, 0)};
    memo.EvaluateBatch(events, 4);
    plain.EvaluateBatch(events, 4);
    EXPECT_EQ(memo.num_decomposable(), plain.num_decomposable());
    for (size_t b = 0; b < 4; ++b) {
      for (int id = 0; id < plain.num_predicates(); ++id) {
        EXPECT_EQ(memo.batch_value(b, id), plain.batch_value(b, id));
      }
    }
  }
}

// The bank keeps each registered body alive, so a pattern registered and
// dropped straight away cannot hand its address -- its memo key -- to a
// different body registered after it.
TEST(PredicateBankTest, DroppedPatternsDoNotAliasLaterBodies) {
  std::vector<CompiledPattern> kept;
  PredicateBank plain;
  PredicateBank memo;
  for (uint64_t recipe = 1; recipe <= 60; ++recipe) {
    kept.push_back(CompileRecipe(recipe));
    EXPECT_EQ(memo.RegisterPattern(CompileRecipe(recipe)),
              plain.RegisterPattern(kept.back()))
        << "recipe " << recipe;
  }
  const Event events[] = {At(0, 10, 20), At(30, 40, 50), At(12, 9, 41)};
  memo.EvaluateBatch(events, 3);
  plain.EvaluateBatch(events, 3);
  ASSERT_EQ(memo.num_predicates(), plain.num_predicates());
  for (size_t b = 0; b < 3; ++b) {
    for (int id = 0; id < plain.num_predicates(); ++id) {
      EXPECT_EQ(memo.batch_value(b, id), plain.batch_value(b, id));
    }
  }
}

TEST(PredicateBankTest, DedupKeyIsExactBeyondPrintPrecision) {
  // Centers differing below Expr::ToString's 6-decimal print precision
  // must NOT merge: the dedup key is an exact rendering.
  CompiledPattern a = CompilePose(Expr::RangePredicate("x", 100.0, 50));
  CompiledPattern b =
      CompilePose(Expr::RangePredicate("x", 100.0 + 1e-9, 50));
  PredicateBank bank;
  int id_a = bank.RegisterPattern(a)[0];
  int id_b = bank.RegisterPattern(b)[0];
  EXPECT_NE(id_a, id_b);
  EXPECT_EQ(bank.num_predicates(), 2);
}

TEST(PredicateBankTest, FallbackPredicatesUseTheirProgram) {
  CompiledPattern fancy = CompilePose(Expr::Binary(
      BinaryOp::kOr, Expr::RangePredicate("x", -100, 10),
      Expr::RangePredicate("x", 100, 10)));
  CompiledPattern plain = CompilePose(Expr::RangePredicate("y", 0, 1));
  PredicateBank bank;
  int fancy_id = bank.RegisterPattern(fancy)[0];
  int plain_id = bank.RegisterPattern(plain)[0];
  bank.Build();
  EXPECT_EQ(bank.num_decomposable(), 1);
  EXPECT_EQ(bank.num_fallback(), 1);

  const Event inside = At(-105.0, 0.5);
  EvaluateOne(bank, inside);
  EXPECT_TRUE(bank.batch_value(0, fancy_id));
  EXPECT_TRUE(bank.batch_value(0, plain_id));
  const Event outside = At(0.0, 5.0);
  EvaluateOne(bank, outside);
  EXPECT_FALSE(bank.batch_value(0, fancy_id));
  EXPECT_FALSE(bank.batch_value(0, plain_id));
  EXPECT_EQ(bank.stats().events, 2u);
  EXPECT_EQ(bank.stats().program_evaluations, 2u);  // fallback only
}

TEST(PredicateBankTest, EmptyIntersectionNeverMatches) {
  CompiledPattern empty = CompilePose(Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kLt, Expr::Field("x"), Expr::Constant(1)),
      Expr::Binary(BinaryOp::kGt, Expr::Field("x"), Expr::Constant(2))));
  PredicateBank bank;
  int id = bank.RegisterPattern(empty)[0];
  bank.Build();
  EXPECT_EQ(bank.num_fallback(), 0);
  for (double v : {0.0, 1.0, 1.5, 2.0, 3.0}) {
    const Event event = At(v);
    EvaluateOne(bank, event);
    EXPECT_FALSE(bank.batch_value(0, id)) << v;
  }
}

TEST(PredicateBankTest, NanMatchesNothingConstrained) {
  CompiledPattern on_x = CompilePose(Expr::RangePredicate("x", 0, 1e9));
  CompiledPattern on_y = CompilePose(Expr::RangePredicate("y", 0, 10));
  PredicateBank bank;
  int x_id = bank.RegisterPattern(on_x)[0];
  int y_id = bank.RegisterPattern(on_y)[0];
  bank.Build();
  const Event nan_x = At(std::numeric_limits<double>::quiet_NaN(), 0.0);
  EvaluateOne(bank, nan_x);
  EXPECT_FALSE(bank.batch_value(0, x_id));
  EXPECT_TRUE(bank.batch_value(0, y_id));
}

TEST(PredicateBankTest, CrossEventRegionMemoSkipsSearches) {
  CompiledPattern low = CompilePose(Expr::RangePredicate("x", -50, 25));
  CompiledPattern high = CompilePose(Expr::RangePredicate("x", 50, 25));
  PredicateBank bank;
  int low_id = bank.RegisterPattern(low)[0];
  int high_id = bank.RegisterPattern(high)[0];
  bank.Build();

  // A 30 Hz-style dribble inside one elementary region: one search, then
  // memo hits, all with the right truth.
  for (double v : {-40.0, -41.5, -39.2, -44.0}) {
    const Event event = At(v);
    EvaluateOne(bank, event);
    EXPECT_TRUE(bank.batch_value(0, low_id)) << v;
    EXPECT_FALSE(bank.batch_value(0, high_id)) << v;
  }
  EXPECT_EQ(bank.stats().region_searches, 1u);
  EXPECT_EQ(bank.stats().region_memo_hits, 3u);

  // Leaving the region invalidates the memo (fresh search), and exact
  // endpoint stabs land in singleton regions the open-region memo must
  // not swallow.
  const Event in_high = At(60.0);
  EvaluateOne(bank, in_high);
  EXPECT_FALSE(bank.batch_value(0, low_id));
  EXPECT_TRUE(bank.batch_value(0, high_id));
  EXPECT_EQ(bank.stats().region_searches, 2u);
  EvaluateOne(bank, in_high);
  EXPECT_EQ(bank.stats().region_memo_hits, 4u);
}

TEST(PredicateBankTest, BatchCountersSplitBroadcastVsRecomputedRows) {
  CompiledPattern low = CompilePose(Expr::RangePredicate("x", -50, 25));
  CompiledPattern high = CompilePose(Expr::RangePredicate("x", 50, 25));
  PredicateBank bank;
  int low_id = bank.RegisterPattern(low)[0];
  int high_id = bank.RegisterPattern(high)[0];
  bank.Build();

  // One window: 3 same-region events (1 search + 2 broadcast rows), a
  // region change (search), then 2 more broadcast rows in the new region.
  std::vector<Event> window = {At(-40.0), At(-41.5), At(-39.2),
                               At(60.0),  At(61.0),  At(58.5)};
  bank.EvaluateBatch(window.data(), window.size());
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_TRUE(bank.batch_value(b, low_id)) << b;
    EXPECT_FALSE(bank.batch_value(b, high_id)) << b;
  }
  for (size_t b = 3; b < 6; ++b) {
    EXPECT_FALSE(bank.batch_value(b, low_id)) << b;
    EXPECT_TRUE(bank.batch_value(b, high_id)) << b;
  }
  EXPECT_EQ(bank.stats().batch_recomputed_rows, 2u);
  EXPECT_EQ(bank.stats().batch_broadcast_rows, 4u);
  // The batch split equals the memo hit/search totals.
  EXPECT_EQ(bank.stats().region_searches, 2u);
  EXPECT_EQ(bank.stats().region_memo_hits, 4u);

  // The memo survives across windows: a follow-up window starting in the
  // same region serves every row from the broadcast word.
  std::vector<Event> next = {At(59.0), At(60.5)};
  bank.EvaluateBatch(next.data(), next.size());
  EXPECT_EQ(bank.stats().batch_recomputed_rows, 2u);
  EXPECT_EQ(bank.stats().batch_broadcast_rows, 6u);
}

TEST(PredicateBankTest, BatchNanRowsCountInNeitherBatchCounter) {
  CompiledPattern low = CompilePose(Expr::RangePredicate("x", -50, 25));
  PredicateBank bank;
  int low_id = bank.RegisterPattern(low)[0];
  bank.Build();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN rows clear constrained bits without touching the memo: the run
  // around them stays broadcastable.
  std::vector<Event> window = {At(-40.0), At(nan), At(-41.0)};
  bank.EvaluateBatch(window.data(), window.size());
  EXPECT_TRUE(bank.batch_value(0, low_id));
  EXPECT_FALSE(bank.batch_value(1, low_id));
  EXPECT_TRUE(bank.batch_value(2, low_id));
  EXPECT_EQ(bank.stats().batch_recomputed_rows, 1u);
  EXPECT_EQ(bank.stats().batch_broadcast_rows, 1u);
}

// Property: a field with hundreds of regions (many checkpoint strides)
// still answers every predicate exactly, under both slow region-to-region
// walks (memo-friendly) and random jumps (checkpoint + delta replay).
TEST(PredicateBankTest, DeltaEncodingAgreesAcrossManyRegions) {
  Rng rng(4242);
  std::vector<CompiledPattern> patterns;
  std::vector<double> endpoints;
  for (int p = 0; p < 150; ++p) {
    double center = rng.Uniform(-100, 100);
    double width = rng.Uniform(0.1, 30);
    endpoints.push_back(center - width);
    endpoints.push_back(center + width);
    patterns.push_back(CompilePose(Expr::RangePredicate("x", center, width)));
  }
  PredicateBank bank;
  std::vector<int> ids;
  for (const CompiledPattern& pattern : patterns) {
    ids.push_back(bank.RegisterPattern(pattern)[0]);
  }
  bank.Build();
  ASSERT_EQ(bank.num_fallback(), 0);

  std::vector<double> probes;
  for (double v = -120.0; v <= 120.0; v += 0.37) {
    probes.push_back(v);  // slow walk
  }
  for (int i = 0; i < 300; ++i) {
    probes.push_back(rng.Bernoulli(0.4)
                         ? endpoints[rng.UniformInt(
                               0, static_cast<int64_t>(endpoints.size()) - 1)]
                         : rng.Uniform(-130, 130));
  }
  for (double v : probes) {
    const Event event = At(v);
    EvaluateOne(bank, event);
    for (size_t p = 0; p < patterns.size(); ++p) {
      ASSERT_EQ(bank.batch_value(0, ids[p]),
                patterns[p].predicate(0).EvalBool(At(v)))
          << patterns[p].predicate_expr(0).ToString() << " at " << v;
    }
  }
  EXPECT_GT(bank.stats().region_memo_hits, 0u);
  EXPECT_GT(bank.stats().region_searches, 0u);
}

// Property: for random range-conjunction predicates the interval index
// agrees with ExprProgram evaluation everywhere, including exactly on
// interval endpoints.
class PredicateBankProperty : public ::testing::TestWithParam<int> {};

TEST_P(PredicateBankProperty, AgreesWithProgramEvaluation) {
  Rng rng(17 + static_cast<uint64_t>(GetParam()) * 1009);
  const char* kFields[] = {"x", "y", "z"};

  std::vector<CompiledPattern> patterns;
  std::vector<double> endpoints;
  for (int p = 0; p < 40; ++p) {
    std::vector<ExprPtr> terms;
    int num_terms = static_cast<int>(rng.UniformInt(1, 3));
    for (int t = 0; t < num_terms; ++t) {
      std::string field = kFields[rng.UniformInt(0, 2)];
      double center = rng.Uniform(-100, 100);
      double width = rng.Uniform(0.5, 50);
      endpoints.push_back(center - width);
      endpoints.push_back(center + width);
      terms.push_back(Expr::RangePredicate(field, center, width));
    }
    patterns.push_back(CompilePose(Expr::And(std::move(terms))));
  }

  PredicateBank bank;
  std::vector<int> ids;
  for (const CompiledPattern& pattern : patterns) {
    ids.push_back(bank.RegisterPattern(pattern)[0]);
  }
  bank.Build();
  EXPECT_EQ(bank.num_fallback(), 0);

  for (int e = 0; e < 300; ++e) {
    std::vector<double> values(3);
    for (double& v : values) {
      if (rng.Bernoulli(0.3) && !endpoints.empty()) {
        // Stab exactly on an interval endpoint.
        v = endpoints[rng.UniformInt(
            0, static_cast<int64_t>(endpoints.size()) - 1)];
      } else {
        v = rng.Uniform(-160, 160);
      }
    }
    Event event(0, values);
    EvaluateOne(bank, event);
    for (size_t p = 0; p < patterns.size(); ++p) {
      EXPECT_EQ(bank.batch_value(0, ids[p]),
                patterns[p].predicate(0).EvalBool(event))
          << "pattern " << p << ": "
          << patterns[p].predicate_expr(0).ToString() << " at event "
          << event.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateBankProperty, ::testing::Range(0, 4));

}  // namespace
}  // namespace epl::cep
