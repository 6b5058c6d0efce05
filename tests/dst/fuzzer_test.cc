#include "testing/fuzzer.h"

#include <gtest/gtest.h>

#include <set>

namespace splitwise::testing {
namespace {

TEST(FuzzerTest, MakeScenarioIsPureInItsSeed)
{
    const Scenario a = makeScenario(1234);
    const Scenario b = makeScenario(1234);
    EXPECT_EQ(scenarioToJson(a).dump(), scenarioToJson(b).dump());
}

TEST(FuzzerTest, SeedsExploreTheScenarioSpace)
{
    std::set<provision::DesignKind> kinds;
    std::set<std::size_t> trace_sizes;
    bool any_faults = false;
    bool any_checkpointing = false;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const Scenario s = makeScenario(seed);
        kinds.insert(s.designKind);
        trace_sizes.insert(s.requests.size());
        any_faults |= !s.faults.empty();
        any_checkpointing |= s.kvCheckpointing;
        EXPECT_GE(s.machines(), 1);
        s.faults.validate(s.machines());
    }
    EXPECT_GE(kinds.size(), 3u);
    EXPECT_GE(trace_sizes.size(), 5u);
    EXPECT_TRUE(any_faults);
    EXPECT_TRUE(any_checkpointing);
}

TEST(FuzzerTest, KvPressureSeedsDrivePreemption)
{
    // The KV-pressure shape exists so DST reaches the MLS's
    // preemption path; the short campaign's seeds must preempt.
    const double default_fraction = core::SimConfig{}.memoryUtilFraction;
    int pressured = 0;
    std::uint64_t preemptions = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const Scenario s = makeScenario(seed);
        if (s.memoryUtilFraction == default_fraction)
            continue;
        ++pressured;
        const ScenarioOutcome outcome = runScenario(s);
        EXPECT_FALSE(outcome.violated)
            << "seed " << seed << " violated " << outcome.invariant << ": "
            << outcome.detail;
        preemptions += outcome.preemptions;
    }
    EXPECT_GE(pressured, 1);
    EXPECT_GT(preemptions, 0u);
}

TEST(FuzzerTest, CampaignRunsCleanUnderParallelJobs)
{
    FuzzerConfig config;
    config.scenarios = 10;
    config.baseSeed = 100;
    config.jobs = 4;
    const auto results = fuzz(config);
    ASSERT_EQ(results.size(), 10u);
    for (const auto& r : results) {
        EXPECT_FALSE(r.outcome.violated)
            << "seed " << r.seed << " violated " << r.outcome.invariant
            << ": " << r.outcome.detail;
        EXPECT_FALSE(r.outcome.outcomeJson.empty());
    }
}

/** The fuzzer inherits the sweep engine's determinism contract:
 *  identical campaigns are byte-identical across job counts. */
TEST(FuzzerTest, OutcomesByteIdenticalAcrossJobCounts)
{
    FuzzerConfig serial;
    serial.scenarios = 6;
    serial.baseSeed = 300;
    serial.jobs = 1;
    FuzzerConfig parallel = serial;
    parallel.jobs = 4;
    const auto a = fuzz(serial);
    const auto b = fuzz(parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].outcome.outcomeJson, b[i].outcome.outcomeJson)
            << "seed " << a[i].seed;
    }
}

}  // namespace
}  // namespace splitwise::testing
