#include "testing/shrinker.h"

#include <gtest/gtest.h>

#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::testing {
namespace {

/** A busy scenario carrying the planted transfer-path leak: the
 *  prompt-side KV copy of the first transferred request is never
 *  released. Request-dependent by construction, so the shrinker has
 *  to keep at least one cross-machine request to reproduce it. */
Scenario
leakyScenario()
{
    Scenario s;
    s.name = "leaky-transfer";
    s.seed = 4242;
    s.numPrompt = 2;
    s.numToken = 2;
    s.kvRetry.maxRetries = 2;
    workload::TraceGenerator gen(workload::conversation(), 31);
    s.requests = gen.generate(8.0, sim::secondsToUs(5));
    if (s.requests.size() > 40)
        s.requests.resize(40);
    // Noise the shrinker should strip: a transient crash and a
    // slowdown window, neither needed for the leak.
    s.faults.add({core::FaultKind::kCrash, 3, sim::secondsToUs(2),
                  sim::secondsToUs(1), 1.0});
    s.faults.add({core::FaultKind::kSlowdown, 1, sim::secondsToUs(1),
                  sim::msToUs(500.0), 3.0});
    s.bug.kind = BugKind::kLeakPromptKv;
    return s;
}

/** The acceptance-criteria demo: the planted bug is caught and
 *  shrunk to a handful of requests that still reproduce it. */
TEST(ShrinkerTest, ShrinksLeakToMinimalReproducer)
{
    const Scenario failing = leakyScenario();
    ASSERT_GE(failing.requests.size(), 30u);

    const ScenarioOutcome original = runScenario(failing);
    ASSERT_TRUE(original.violated);
    EXPECT_EQ(original.invariant, "kv-orphan");

    const ShrinkResult result = shrink(failing);
    ASSERT_TRUE(result.reproduced);
    EXPECT_EQ(result.invariant, "kv-orphan");
    EXPECT_EQ(result.originalRequests, failing.requests.size());

    // Minimal: a handful of requests, no faults left.
    EXPECT_LE(result.minimal.requests.size(), 5u);
    EXPECT_GE(result.minimal.requests.size(), 1u);
    EXPECT_EQ(result.minimal.faults.size(), 0u);
    EXPECT_EQ(result.minimal.name, "leaky-transfer-min");

    // And still a reproducer of the same invariant.
    const ScenarioOutcome replay = runScenario(result.minimal);
    ASSERT_TRUE(replay.violated);
    EXPECT_EQ(replay.invariant, result.invariant);
}

TEST(ShrinkerTest, CleanScenarioDoesNotReproduce)
{
    Scenario s;
    s.name = "clean";
    s.numPrompt = 1;
    s.numToken = 1;
    workload::TraceGenerator gen(workload::conversation(), 33);
    s.requests = gen.generate(2.0, sim::secondsToUs(2));
    const ShrinkResult result = shrink(s);
    EXPECT_FALSE(result.reproduced);
    EXPECT_EQ(result.runs, 1);
    EXPECT_EQ(scenarioToJson(result.minimal).dump(),
              scenarioToJson(s).dump());
}

/** A simulator panic shrinks like any other violation: the minimal
 *  scenario still panics, and it is time-triggered, so the requests
 *  after it go. */
TEST(ShrinkerTest, ShrinkingKeepsAPanic)
{
    Scenario s = leakyScenario();
    s.bug.kind = BugKind::kPanic;
    s.bug.atUs = sim::secondsToUs(1);
    const ShrinkResult result = shrink(s);
    ASSERT_TRUE(result.reproduced);
    EXPECT_EQ(result.invariant, "panic");
    EXPECT_LT(result.minimal.requests.size(), s.requests.size());
    const ScenarioOutcome replay = runScenario(result.minimal);
    ASSERT_TRUE(replay.violated);
    EXPECT_EQ(replay.invariant, "panic");
}

TEST(ShrinkerTest, RespectsRunBudget)
{
    ShrinkOptions options;
    options.maxRuns = 5;
    const ShrinkResult result = shrink(leakyScenario(), options);
    EXPECT_TRUE(result.reproduced);
    EXPECT_LE(result.runs, 5);
}

TEST(ShrinkerTest, ShrinkingIsDeterministic)
{
    ShrinkOptions options;
    options.maxRuns = 60;
    const ShrinkResult a = shrink(leakyScenario(), options);
    const ShrinkResult b = shrink(leakyScenario(), options);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(scenarioToJson(a.minimal).dump(),
              scenarioToJson(b.minimal).dump());
}

}  // namespace
}  // namespace splitwise::testing
