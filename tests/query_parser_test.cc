#include <gtest/gtest.h>

#include "query/compiler.h"
#include "query/parser.h"
#include "query/unparser.h"
#include "stream/operators.h"
#include "test_util.h"

namespace epl::query {
namespace {

using cep::ConsumePolicy;
using cep::PatternKind;
using cep::SelectPolicy;
using cep::WithinMode;

// The verbatim Fig. 1 query from the paper.
constexpr char kPaperQuery[] = R"(
SELECT "swipe_right"
MATCHING (
  kinect(
    abs(rHand_x - torso_x - 0) < 50 and
    abs(rHand_y - torso_y - 150) < 50 and
    abs(rHand_z - torso_z + 120) < 50
  ) ->
  kinect(
    abs(rHand_x - torso_x - 400) < 50 and
    abs(rHand_y - torso_y - 150) < 50 and
    abs(rHand_z - torso_z + 420) < 50
  )
  within 1 seconds select first consume all
) ->
kinect(
  abs(rHand_x - torso_x - 800) < 50 and
  abs(rHand_y - torso_y - 150) < 50 and
  abs(rHand_z - torso_z + 120) < 50
)
within 1 seconds select first consume all;
)";

stream::Schema KinectSixFieldSchema() {
  return stream::Schema({"rHand_x", "rHand_y", "rHand_z", "torso_x",
                         "torso_y", "torso_z"});
}

TEST(ParserTest, ParsesPaperQueryStructure) {
  EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery query, ParseQuery(kPaperQuery));
  EXPECT_EQ(query.name, "swipe_right");
  ASSERT_NE(query.pattern, nullptr);
  ASSERT_EQ(query.pattern->kind(), PatternKind::kSequence);
  // Outer sequence: [inner sequence, pose].
  ASSERT_EQ(query.pattern->children().size(), 2u);
  EXPECT_EQ(query.pattern->within(), std::optional<Duration>(kSecond));
  EXPECT_EQ(query.pattern->within_mode(), WithinMode::kGap);
  EXPECT_EQ(query.pattern->select_policy(), SelectPolicy::kFirst);
  EXPECT_EQ(query.pattern->consume_policy(), ConsumePolicy::kAll);

  const cep::PatternExpr& inner = *query.pattern->children()[0];
  ASSERT_EQ(inner.kind(), PatternKind::kSequence);
  EXPECT_EQ(inner.children().size(), 2u);
  EXPECT_EQ(inner.within(), std::optional<Duration>(kSecond));

  EXPECT_EQ(query.pattern->NumPoses(), 3);
  std::vector<const cep::PatternExpr*> poses = query.pattern->Poses();
  EXPECT_EQ(poses[0]->source(), "kinect");
  // Spot-check one predicate rendering.
  EXPECT_EQ(poses[2]->predicate().ToString(),
            "abs(rHand_x - torso_x - 800) < 50 and "
            "abs(rHand_y - torso_y - 150) < 50 and "
            "abs(rHand_z - torso_z + 120) < 50");
}

TEST(ParserTest, PaperQueryCompiles) {
  EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery query, ParseQuery(kPaperQuery));
  EPL_ASSERT_OK_AND_ASSIGN(
      CompiledQuery compiled, CompileQuery(query, KinectSixFieldSchema()));
  EXPECT_EQ(compiled.name, "swipe_right");
  EXPECT_EQ(compiled.source_stream, "kinect");
  EXPECT_EQ(compiled.pattern.num_states(), 3);
  EXPECT_EQ(compiled.pattern.constraints().size(), 2u);
}

TEST(ParserTest, SinglePoseQuery) {
  EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery query,
                           ParseQuery("SELECT \"g\" MATCHING s(v > 1);"));
  EXPECT_EQ(query.pattern->kind(), PatternKind::kPose);
}

TEST(ParserTest, FlatSequenceWithoutClauses) {
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery query,
      ParseQuery("SELECT \"g\" MATCHING s(a > 1) -> s(a > 2) -> s(a > 3);"));
  ASSERT_EQ(query.pattern->kind(), PatternKind::kSequence);
  EXPECT_EQ(query.pattern->children().size(), 3u);
  EXPECT_FALSE(query.pattern->within().has_value());
}

TEST(ParserTest, WithinMilliseconds) {
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery query,
      ParseQuery(
          "SELECT \"g\" MATCHING s(a > 1) -> s(a > 2) within 250 ms;"));
  EXPECT_EQ(query.pattern->within(),
            std::optional<Duration>(250 * kMillisecond));
}

TEST(ParserTest, WithinFractionalSeconds) {
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery query,
      ParseQuery(
          "SELECT \"g\" MATCHING s(a>1) -> s(a>2) within 0.5 seconds;"));
  EXPECT_EQ(query.pattern->within(),
            std::optional<Duration>(500 * kMillisecond));
}

TEST(ParserTest, WithinTotalSelectsSpanMode) {
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery query,
      ParseQuery("SELECT \"g\" MATCHING s(a>1) -> s(a>2) "
                 "within 2 seconds total;"));
  EXPECT_EQ(query.pattern->within_mode(), WithinMode::kSpan);
}

TEST(ParserTest, SelectAllConsumeNone) {
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery query,
      ParseQuery("SELECT \"g\" MATCHING s(a>1) -> s(a>2) "
                 "select all consume none;"));
  EXPECT_EQ(query.pattern->select_policy(), SelectPolicy::kAll);
  EXPECT_EQ(query.pattern->consume_policy(), ConsumePolicy::kNone);
}

TEST(ParserTest, OutputMeasures) {
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery query,
      ParseQuery("SELECT \"g\", rHand_x - torso_x, rHand_y "
                 "MATCHING kinect(rHand_x > 0);"));
  ASSERT_EQ(query.measures.size(), 2u);
  EXPECT_EQ(query.measures[0]->ToString(), "rHand_x - torso_x");
}

TEST(ParserTest, NegativeNumbersFoldIntoConstants) {
  EPL_ASSERT_OK_AND_ASSIGN(cep::ExprPtr expr, ParseExpression("-120"));
  EXPECT_EQ(expr->kind(), cep::ExprKind::kConst);
  EXPECT_DOUBLE_EQ(expr->constant_value(), -120.0);
}

TEST(ParserTest, ExpressionPrecedence) {
  EPL_ASSERT_OK_AND_ASSIGN(cep::ExprPtr expr,
                           ParseExpression("1 + 2 * 3 < 4 and 5 > 1"));
  // ((1 + (2*3)) < 4) and (5 > 1)
  EXPECT_EQ(expr->kind(), cep::ExprKind::kBinary);
  EXPECT_EQ(expr->binary_op(), cep::BinaryOp::kAnd);
  stream::Schema empty_schema;
  EPL_ASSERT_OK(expr->Bind(empty_schema));
  EXPECT_DOUBLE_EQ(expr->Eval(stream::Event(0, {})), 0.0);  // 7 < 4 false
}

TEST(ParserTest, ParenthesizedExpression) {
  EPL_ASSERT_OK_AND_ASSIGN(cep::ExprPtr expr,
                           ParseExpression("(1 + 2) * 3"));
  stream::Schema empty_schema;
  EPL_ASSERT_OK(expr->Bind(empty_schema));
  EXPECT_DOUBLE_EQ(expr->Eval(stream::Event(0, {})), 9.0);
}

TEST(ParserTest, FunctionCallsInExpressions) {
  EPL_ASSERT_OK_AND_ASSIGN(cep::ExprPtr expr,
                           ParseExpression("max(abs(-3), 2)"));
  stream::Schema empty_schema;
  EPL_ASSERT_OK(expr->Bind(empty_schema));
  EXPECT_DOUBLE_EQ(expr->Eval(stream::Event(0, {})), 3.0);
}

TEST(ParserTest, MultipleQueriesScript) {
  EPL_ASSERT_OK_AND_ASSIGN(
      std::vector<ParsedQuery> queries,
      ParseQueries("SELECT \"a\" MATCHING s(x > 1);\n"
                   "SELECT \"b\" MATCHING s(x < 1);"));
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].name, "a");
  EXPECT_EQ(queries[1].name, "b");
}

TEST(ParserTest, ErrorsCarryPositions) {
  Result<ParsedQuery> r = ParseQuery("SELECT \"g\" MATCHING ;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("parse error at 1:"),
            std::string::npos);
}

TEST(ParserTest, MissingSemicolonFails) {
  EXPECT_FALSE(ParseQuery("SELECT \"g\" MATCHING s(a > 1)").ok());
}

TEST(ParserTest, MissingNameFails) {
  EXPECT_FALSE(ParseQuery("SELECT MATCHING s(a > 1);").ok());
}

TEST(ParserTest, BadTimeUnitFails) {
  EXPECT_FALSE(
      ParseQuery("SELECT \"g\" MATCHING s(a>1) -> s(a>2) within 1 hours;")
          .ok());
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(ParseQuery("SELECT \"g\" MATCHING s(a > 1); extra").ok());
}

TEST(ParserTest, CloneProducesIndependentCopy) {
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery query,
      ParseQuery("SELECT \"g\", a MATCHING s(a > 1) -> s(a > 2);"));
  ParsedQuery clone = query.Clone();
  EXPECT_EQ(clone.name, query.name);
  EXPECT_EQ(clone.measures.size(), 1u);
  EXPECT_EQ(FormatQueryCompact(clone), FormatQueryCompact(query));
}

TEST(UnparserTest, RoundTripPaperQuery) {
  EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery query, ParseQuery(kPaperQuery));
  std::string formatted = FormatQuery(query);
  EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery reparsed, ParseQuery(formatted));
  // Idempotent fixpoint: formatting the reparsed query yields identical
  // text, so the round trip is structure-preserving.
  EXPECT_EQ(FormatQuery(reparsed), formatted);
  EXPECT_EQ(FormatQueryCompact(reparsed), FormatQueryCompact(query));
  EXPECT_EQ(reparsed.pattern->NumPoses(), 3);
}

TEST(UnparserTest, RoundTripVariants) {
  const char* queries[] = {
      "SELECT \"a\" MATCHING s(x > 1);",
      "SELECT \"b\" MATCHING s(x>1) -> s(x>2) within 300 ms;",
      "SELECT \"c\" MATCHING s(x>1) -> s(x>2) within 2 seconds total "
      "select all consume none;",
      "SELECT \"d\", x, x*2 MATCHING s(x>1) -> (s(x>2) -> s(x>3) "
      "within 1 seconds) within 1 seconds;",
      "SELECT \"e\" MATCHING s(abs(x - 400) < 50 and abs(y + 120) < 50);",
  };
  for (const char* text : queries) {
    EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery query, ParseQuery(text));
    std::string formatted = FormatQuery(query);
    EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery reparsed, ParseQuery(formatted));
    EXPECT_EQ(FormatQuery(reparsed), formatted) << text;
    EXPECT_EQ(FormatQueryCompact(reparsed), FormatQueryCompact(query))
        << text;
  }
}

TEST(UnparserTest, PaperStyleLayout) {
  EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery query, ParseQuery(kPaperQuery));
  std::string formatted = FormatQuery(query);
  EXPECT_NE(formatted.find("SELECT \"swipe_right\""), std::string::npos);
  EXPECT_NE(formatted.find("MATCHING"), std::string::npos);
  EXPECT_NE(formatted.find("abs(rHand_x - torso_x - 400) < 50 and"),
            std::string::npos);
  EXPECT_NE(formatted.find("within 1 seconds select first consume all"),
            std::string::npos);
  EXPECT_EQ(formatted.back(), '\n');
}

TEST(CompilerTest, UnknownFieldReportsError) {
  EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery query,
                           ParseQuery("SELECT \"g\" MATCHING s(nope > 1);"));
  Result<CompiledQuery> compiled =
      CompileQuery(query, stream::Schema({"x"}));
  EXPECT_EQ(compiled.status().code(), StatusCode::kNotFound);
}

TEST(CompilerTest, MeasureBindFailureMentionsMeasure) {
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery query,
      ParseQuery("SELECT \"g\", bad_field MATCHING s(x > 1);"));
  Result<CompiledQuery> compiled =
      CompileQuery(query, stream::Schema({"x"}));
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("output measure"),
            std::string::npos);
}

TEST(DeployTest, EndToEndDetection) {
  stream::StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", stream::Schema({"x"})));
  std::vector<cep::Detection> detections;
  EPL_ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseQuery(
          "SELECT \"up\", x MATCHING s(x < 1) -> s(x > 9) within 1 seconds;"));
  auto record = [&detections](const cep::Detection& d) {
    detections.push_back(d);
  };
  EPL_ASSERT_OK_AND_ASSIGN(stream::DeploymentId id,
                           DeployQuery(&engine, parsed, record));
  EPL_ASSERT_OK(engine.Push("s", stream::Event(0, {0.0})));
  EPL_ASSERT_OK(engine.Push("s", stream::Event(500 * kMillisecond, {10.0})));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].name, "up");
  ASSERT_EQ(detections[0].measures.size(), 1u);
  EXPECT_DOUBLE_EQ(detections[0].measures[0], 10.0);

  // Runtime exchange: undeploy and verify no further detections.
  EPL_ASSERT_OK(engine.Undeploy(id));
  EPL_ASSERT_OK(engine.Push("s", stream::Event(kSecond, {0.0})));
  EPL_ASSERT_OK(engine.Push("s", stream::Event(kSecond + 100, {10.0})));
  EXPECT_EQ(detections.size(), 1u);
}

TEST(DeployTest, UnknownStreamFails) {
  stream::StreamEngine engine;
  EPL_ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                           ParseQuery("SELECT \"g\" MATCHING ghost(x > 1);"));
  Result<stream::DeploymentId> r = DeployQuery(&engine, parsed, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace epl::query
