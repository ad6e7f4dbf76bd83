#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "stream/engine.h"
#include "stream/operators.h"
#include "stream/schema.h"
#include "test_util.h"

namespace epl::stream {
namespace {

Schema TwoFieldSchema() { return Schema({"a", "b"}); }

TEST(SchemaTest, FieldLookup) {
  Schema schema({"x", "y", "z"});
  EXPECT_EQ(schema.num_fields(), 3);
  EPL_ASSERT_OK_AND_ASSIGN(int idx, schema.FieldIndex("y"));
  EXPECT_EQ(idx, 1);
  EXPECT_FALSE(schema.FieldIndex("w").ok());
  EXPECT_TRUE(schema.HasField("z"));
  EXPECT_FALSE(schema.HasField(""));
}

TEST(SchemaTest, ValidateRejectsDuplicates) {
  Schema schema({"x", "x"});
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, ValidateRejectsEmptyName) {
  Schema schema({"x", ""});
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, EqualityAndToString) {
  EXPECT_EQ(Schema({"a"}), Schema({"a"}));
  EXPECT_FALSE(Schema({"a"}) == Schema({"b"}));
  EXPECT_EQ(Schema({"a", "b"}).ToString(), "(a, b)");
}

TEST(EventTest, ToStringIncludesTimestampAndValues) {
  Event e(1500, {1.0, 2.5});
  EXPECT_EQ(e.ToString(), "@1500 [1.000, 2.500]");
}

TEST(EngineTest, RegisterAndPush) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  auto sink = std::make_unique<CollectSink>();
  CollectSink* sink_ptr = sink.get();
  EPL_ASSERT_OK_AND_ASSIGN(DeploymentId id, engine.Deploy("s", std::move(sink)));
  (void)id;
  EPL_ASSERT_OK(engine.Push("s", Event(1, {1.0, 2.0})));
  EPL_ASSERT_OK(engine.Push("s", Event(2, {3.0, 4.0})));
  ASSERT_EQ(sink_ptr->events().size(), 2u);
  EXPECT_EQ(sink_ptr->events()[1].values[0], 3.0);
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t count, engine.EventCount("s"));
  EXPECT_EQ(count, 2u);
}

TEST(EngineTest, DuplicateStreamRejected) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  Status s = engine.RegisterStream("s", TwoFieldSchema());
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(EngineTest, PushUnknownStreamFails) {
  StreamEngine engine;
  Status s = engine.Push("nope", Event(1, {}));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(EngineTest, PushWrongArityFails) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  Status s = engine.Push("s", Event(1, {1.0}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, ViewTransformsEvents) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  // View doubles field 0 and drops field 1.
  auto transform = std::make_unique<MapOperator>([](const Event& e) {
    return Event(e.timestamp, {e.values[0] * 2.0});
  });
  EPL_ASSERT_OK(engine.RegisterView("v", "s", std::move(transform),
                                    Schema({"a2"})));
  auto sink = std::make_unique<CollectSink>();
  CollectSink* sink_ptr = sink.get();
  EPL_ASSERT_OK(engine.Deploy("v", std::move(sink)).status());
  EPL_ASSERT_OK(engine.Push("s", Event(5, {21.0, 0.0})));
  ASSERT_EQ(sink_ptr->events().size(), 1u);
  EXPECT_DOUBLE_EQ(sink_ptr->events()[0].values[0], 42.0);
  EXPECT_EQ(sink_ptr->events()[0].timestamp, 5);
}

TEST(EngineTest, CannotPushIntoView) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  EPL_ASSERT_OK(engine.RegisterView(
      "v", "s", std::make_unique<MapOperator>([](const Event& e) { return e; }),
      TwoFieldSchema()));
  Status s = engine.Push("v", Event(1, {1.0, 2.0}));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, ViewOnUnknownSourceFails) {
  StreamEngine engine;
  Status s = engine.RegisterView(
      "v", "missing",
      std::make_unique<MapOperator>([](const Event& e) { return e; }),
      TwoFieldSchema());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(EngineTest, UndeployStopsDelivery) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  auto sink = std::make_unique<CountingSink>();
  CountingSink* sink_ptr = sink.get();
  EPL_ASSERT_OK_AND_ASSIGN(DeploymentId id, engine.Deploy("s", std::move(sink)));
  EPL_ASSERT_OK(engine.Push("s", Event(1, {0.0, 0.0})));
  EXPECT_EQ(engine.deployment_count(), 1u);
  EPL_ASSERT_OK(engine.Undeploy(id));
  EXPECT_EQ(engine.deployment_count(), 0u);
  // sink_ptr is dangling after undeploy; only check engine behaviour.
  (void)sink_ptr;
  EPL_ASSERT_OK(engine.Push("s", Event(2, {0.0, 0.0})));
  EPL_ASSERT_OK_AND_ASSIGN(uint64_t count, engine.EventCount("s"));
  EXPECT_EQ(count, 2u);
}

TEST(EngineTest, UndeployUnknownIdFails) {
  StreamEngine engine;
  EXPECT_EQ(engine.Undeploy(99).code(), StatusCode::kNotFound);
}

TEST(EngineTest, StreamNamesSorted) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("b", TwoFieldSchema()));
  EPL_ASSERT_OK(engine.RegisterStream("a", TwoFieldSchema()));
  EXPECT_EQ(engine.StreamNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(OperatorsTest, FilterPassesMatching) {
  FilterOperator filter([](const Event& e) { return e.values[0] > 0; });
  CollectSink sink;
  filter.AddDownstream(&sink);
  EPL_ASSERT_OK(filter.Process(Event(1, {1.0})));
  EPL_ASSERT_OK(filter.Process(Event(2, {-1.0})));
  EPL_ASSERT_OK(filter.Process(Event(3, {2.0})));
  EXPECT_EQ(sink.events().size(), 2u);
}

TEST(OperatorsTest, ProjectSelectsAndReorders) {
  ProjectOperator project({2, 0});
  CollectSink sink;
  project.AddDownstream(&sink);
  EPL_ASSERT_OK(project.Process(Event(1, {10.0, 20.0, 30.0})));
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].values, (std::vector<double>{30.0, 10.0}));
}

TEST(OperatorsTest, ProjectOutOfRangeFails) {
  ProjectOperator project({5});
  Status s = project.Process(Event(1, {1.0}));
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(EngineTest, UnregisterStreamFreesTheName) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  EPL_ASSERT_OK(engine.UnregisterStream("s"));
  EXPECT_FALSE(engine.HasStream("s"));
  // The name is immediately reusable.
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  EXPECT_EQ(engine.UnregisterStream("missing").code(), StatusCode::kNotFound);
}

TEST(EngineTest, UnregisterStreamRefusesWhileDeploymentsRemain) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  EPL_ASSERT_OK_AND_ASSIGN(DeploymentId id,
                           engine.Deploy("s", std::make_unique<CollectSink>()));
  EXPECT_EQ(engine.UnregisterStream("s").code(),
            StatusCode::kFailedPrecondition);
  EPL_ASSERT_OK(engine.Undeploy(id));
  EPL_ASSERT_OK(engine.UnregisterStream("s"));
}

TEST(EngineTest, UnregisterStreamRefusesWhileViewsDependOnIt) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  EPL_ASSERT_OK(engine.RegisterView(
      "v", "s", std::make_unique<MapOperator>([](const Event& e) { return e; }),
      TwoFieldSchema()));
  EXPECT_EQ(engine.UnregisterStream("s").code(),
            StatusCode::kFailedPrecondition);
  // Removing the view first detaches its transform; then the source goes.
  EPL_ASSERT_OK(engine.UnregisterStream("v"));
  EPL_ASSERT_OK(engine.UnregisterStream("s"));
  EXPECT_FALSE(engine.HasStream("v"));
  EXPECT_FALSE(engine.HasStream("s"));
}

TEST(EngineTest, UnregisterViewStopsEventFlow) {
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  EPL_ASSERT_OK(engine.RegisterView(
      "v", "s", std::make_unique<MapOperator>([](const Event& e) { return e; }),
      TwoFieldSchema()));
  EPL_ASSERT_OK(engine.UnregisterStream("v"));
  // Pushing into the source no longer routes through the dead view.
  EPL_ASSERT_OK(engine.Push("s", Event(1, {1.0, 2.0})));
  // Re-registering the view works and sees only new events.
  auto transform =
      std::make_unique<MapOperator>([](const Event& e) { return e; });
  EPL_ASSERT_OK(engine.RegisterView("v", "s", std::move(transform),
                                    TwoFieldSchema()));
  auto sink = std::make_unique<CollectSink>();
  CollectSink* sink_ptr = sink.get();
  EPL_ASSERT_OK(engine.Deploy("v", std::move(sink)).status());
  EPL_ASSERT_OK(engine.Push("s", Event(2, {3.0, 4.0})));
  ASSERT_EQ(sink_ptr->events().size(), 1u);
  EXPECT_EQ(sink_ptr->events()[0].timestamp, 2);
}

TEST(EngineTest, OperatorDeployedMidDispatchSeesTheNextEvent) {
  // A subscriber that deploys operators from inside Process grows (and
  // reallocates) the subscriber list under the running dispatch. The new
  // operators start with the next event; the ones subscribed before the
  // push still see the current one.
  StreamEngine engine;
  EPL_ASSERT_OK(engine.RegisterStream("s", TwoFieldSchema()));
  std::vector<CollectSink*> late;
  const auto deploy_late = [&](const Event&) {
    if (!late.empty()) {
      return;
    }
    for (int i = 0; i < 8; ++i) {
      auto sink = std::make_unique<CollectSink>();
      late.push_back(sink.get());
      EPL_CHECK(engine.Deploy("s", std::move(sink)).ok());
    }
  };
  EPL_ASSERT_OK(
      engine.Deploy("s", std::make_unique<CallbackSink>(deploy_late))
          .status());
  auto tail = std::make_unique<CollectSink>();
  CollectSink* tail_ptr = tail.get();
  EPL_ASSERT_OK(engine.Deploy("s", std::move(tail)).status());

  EPL_ASSERT_OK(engine.Push("s", Event(1, {1.0, 2.0})));
  EXPECT_EQ(tail_ptr->events().size(), 1u);
  ASSERT_EQ(late.size(), 8u);
  for (const CollectSink* sink : late) {
    EXPECT_TRUE(sink->events().empty());
  }

  EPL_ASSERT_OK(engine.Push("s", Event(2, {3.0, 4.0})));
  EXPECT_EQ(tail_ptr->events().size(), 2u);
  for (const CollectSink* sink : late) {
    ASSERT_EQ(sink->events().size(), 1u);
    EXPECT_EQ(sink->events()[0].timestamp, 2);
  }
}

}  // namespace
}  // namespace epl::stream
