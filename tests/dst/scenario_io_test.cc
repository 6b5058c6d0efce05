#include "testing/scenario.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "testing/fuzzer.h"

namespace splitwise::testing {
namespace {

TEST(ScenarioIoTest, JsonRoundTripIsByteIdentical)
{
    const Scenario s = makeScenario(42);
    const std::string once = scenarioToJson(s).dump();
    const Scenario back =
        scenarioFromJson(core::JsonValue::parse(once));
    EXPECT_EQ(scenarioToJson(back).dump(), once);
    EXPECT_EQ(back.name, s.name);
    EXPECT_EQ(back.seed, s.seed);
    EXPECT_EQ(back.requests.size(), s.requests.size());
    EXPECT_EQ(back.faults.size(), s.faults.size());
}

TEST(ScenarioIoTest, RoundTripPreservesEveryKnob)
{
    Scenario s;
    s.name = "knobs";
    s.seed = 7;
    s.designKind = provision::DesignKind::kSplitwiseHA;
    s.numPrompt = 3;
    s.numToken = 2;
    s.routing = core::RoutingPolicy::kRandom;
    s.routingSeed = 99;
    s.shedQueuedTokensBound = 12345;
    s.promptChunkTokens = 512;
    s.kvCheckpointing = true;
    s.usePiecewisePerfModel = true;
    s.kvRetry.maxRetries = 4;
    s.kvRetry.backoffBaseUs = 777;
    s.kvRetry.backoffMultiplier = 2.25;
    s.kvRetry.timeoutUs = 123456;
    s.traceEnabled = true;
    s.memoryUtilFraction = 0.2345678901234567;
    s.requests.push_back({1, 1000, 800, 120});
    s.requests.push_back({2, 2500, 1500, 60});
    s.faults.add({core::FaultKind::kLinkDegrade, 1, 5000, 20000, 0.25});
    s.bug.kind = BugKind::kLeakPromptKv;

    const Scenario t =
        scenarioFromJson(scenarioToJson(s));
    EXPECT_EQ(t.designKind, s.designKind);
    EXPECT_EQ(t.numPrompt, s.numPrompt);
    EXPECT_EQ(t.numToken, s.numToken);
    EXPECT_EQ(t.routing, s.routing);
    EXPECT_EQ(t.routingSeed, s.routingSeed);
    EXPECT_EQ(t.shedQueuedTokensBound, s.shedQueuedTokensBound);
    EXPECT_EQ(t.promptChunkTokens, s.promptChunkTokens);
    EXPECT_EQ(t.kvCheckpointing, s.kvCheckpointing);
    EXPECT_EQ(t.usePiecewisePerfModel, s.usePiecewisePerfModel);
    EXPECT_EQ(t.kvRetry.maxRetries, s.kvRetry.maxRetries);
    EXPECT_EQ(t.kvRetry.backoffBaseUs, s.kvRetry.backoffBaseUs);
    EXPECT_DOUBLE_EQ(t.kvRetry.backoffMultiplier,
                     s.kvRetry.backoffMultiplier);
    EXPECT_EQ(t.kvRetry.timeoutUs, s.kvRetry.timeoutUs);
    EXPECT_EQ(t.traceEnabled, s.traceEnabled);
    EXPECT_EQ(t.memoryUtilFraction, s.memoryUtilFraction);
    ASSERT_EQ(t.requests.size(), 2u);
    EXPECT_EQ(t.requests[1].promptTokens, 1500);
    ASSERT_EQ(t.faults.size(), 1u);
    EXPECT_EQ(t.faults.events[0].kind, core::FaultKind::kLinkDegrade);
    EXPECT_DOUBLE_EQ(t.faults.events[0].factor, 0.25);
    EXPECT_EQ(t.bug.kind, BugKind::kLeakPromptKv);
}

TEST(ScenarioIoTest, FileRoundTrip)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "splitwise_dst_io_test.scenario.json";
    const Scenario s = makeScenario(17);
    writeScenarioFile(s, path.string());
    const Scenario back = loadScenarioFile(path.string());
    EXPECT_EQ(scenarioToJson(back).dump(), scenarioToJson(s).dump());
    std::filesystem::remove(path);
}

TEST(ScenarioIoTest, RejectsWrongFormatTag)
{
    core::JsonValue doc = core::JsonValue::makeObject();
    doc.set("format", core::JsonValue(std::string("not-a-scenario")));
    EXPECT_THROW(scenarioFromJson(doc), std::runtime_error);
}

TEST(ScenarioIoTest, MissingFileIsFatal)
{
    EXPECT_THROW(loadScenarioFile("/nonexistent/x.scenario.json"),
                 std::runtime_error);
}

/** The determinism oracle: replaying a scenario must reproduce the
 *  outcome byte-for-byte, including the embedded run report. */
TEST(ScenarioIoTest, ReplayedOutcomeIsByteIdentical)
{
    const Scenario s = makeScenario(23);
    const ScenarioOutcome a = runScenario(s);
    const ScenarioOutcome b = runScenario(s);
    EXPECT_EQ(a.outcomeJson, b.outcomeJson);
    EXPECT_FALSE(a.outcomeJson.empty());
}

}  // namespace
}  // namespace splitwise::testing
