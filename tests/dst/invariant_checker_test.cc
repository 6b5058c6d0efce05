#include "testing/invariants.h"

#include <gtest/gtest.h>

#include "core/designs.h"
#include "core/fault_plan.h"
#include "model/llm_config.h"
#include "testing/scenario.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::testing {
namespace {

workload::Trace
smallTrace(std::uint64_t seed, double rps = 4.0, double seconds = 5.0)
{
    workload::TraceGenerator gen(workload::conversation(), seed);
    return gen.generate(rps, sim::secondsToUs(seconds));
}

TEST(InvariantCheckerTest, CleanRunPassesEveryQuiescentPoint)
{
    const auto trace = smallTrace(5);
    core::Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
    InvariantChecker checker(cluster);
    const core::RunReport report = cluster.run(trace);
    checker.finalCheck(report);
    EXPECT_GT(checker.checksRun(), 100u);
    EXPECT_EQ(report.requests.completed(), trace.size());
}

TEST(InvariantCheckerTest, CadenceOptionThinsChecks)
{
    const auto trace = smallTrace(5);
    std::uint64_t every = 0;
    std::uint64_t thinned = 0;
    {
        core::Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
        InvariantChecker checker(cluster);
        cluster.run(trace);
        every = checker.checksRun();
    }
    {
        core::Cluster cluster(model::llama2_70b(), core::splitwiseHH(2, 2));
        InvariantChecker checker(cluster, InvariantOptions{8});
        cluster.run(trace);
        thinned = checker.checksRun();
    }
    EXPECT_GT(thinned, 0u);
    EXPECT_LT(thinned * 4, every);
}

TEST(InvariantCheckerTest, BaselineDesignPasses)
{
    const auto trace = smallTrace(9);
    core::Cluster cluster(model::llama2_70b(), core::baselineA100(3));
    InvariantChecker checker(cluster);
    const core::RunReport report = cluster.run(trace);
    checker.finalCheck(report);
    EXPECT_GT(checker.checksRun(), 0u);
}

/** A crash + rejoin, a link-fault window, and checkpointing all at
 *  once: the recovery paths must uphold every conservation law. */
TEST(InvariantCheckerTest, FaultStormRunStaysClean)
{
    Scenario s;
    s.name = "fault-storm";
    s.numPrompt = 2;
    s.numToken = 2;
    s.kvCheckpointing = true;
    s.kvRetry.maxRetries = 3;
    s.kvRetry.backoffBaseUs = 1000;
    s.traceEnabled = true;
    s.requests = smallTrace(13, 6.0, 6.0);
    s.faults.add({core::FaultKind::kCrash, 2, sim::secondsToUs(1),
                  sim::secondsToUs(2), 1.0});
    s.faults.add({core::FaultKind::kLinkFault, 1, sim::msToUs(500.0),
                  sim::msToUs(400.0), 1.0});
    s.faults.add({core::FaultKind::kSlowdown, 0, sim::secondsToUs(2),
                  sim::secondsToUs(1), 2.5});
    const ScenarioOutcome outcome = runScenario(s);
    EXPECT_FALSE(outcome.violated) << outcome.invariant << ": "
                                   << outcome.detail;
    EXPECT_GT(outcome.completed, 0u);
}

/** The harness validation demanded by the acceptance criteria: a
 *  deliberately planted KV leak must be caught, not just by the
 *  final audit but at the quiescent point right after it lands. */
TEST(InvariantCheckerTest, CatchesPlantedOrphanKvBlock)
{
    Scenario s;
    s.name = "planted-orphan";
    s.numPrompt = 1;
    s.numToken = 1;
    s.requests = smallTrace(21, 3.0, 3.0);
    s.bug.kind = BugKind::kOrphanKvBlock;
    s.bug.atUs = sim::msToUs(300.0);
    s.bug.machineId = 0;
    const ScenarioOutcome outcome = runScenario(s);
    ASSERT_TRUE(outcome.violated);
    EXPECT_EQ(outcome.invariant, "kv-orphan");
    EXPECT_GE(outcome.violationTime, s.bug.atUs);
    // Caught promptly: well before the trace has drained.
    EXPECT_LT(outcome.violationTime, sim::secondsToUs(4));
}

/** A simulator panic inside a scenario is reported as the violation
 *  "panic" instead of aborting the process. */
TEST(InvariantCheckerTest, PanicIsReportedAsAViolation)
{
    Scenario s;
    s.name = "planted-panic";
    s.numPrompt = 1;
    s.numToken = 1;
    s.requests = smallTrace(23, 3.0, 3.0);
    s.bug.kind = BugKind::kPanic;
    s.bug.atUs = sim::msToUs(300.0);
    const ScenarioOutcome outcome = runScenario(s);
    ASSERT_TRUE(outcome.violated);
    EXPECT_EQ(outcome.invariant, "panic");
    EXPECT_EQ(outcome.violationTime, s.bug.atUs);
    EXPECT_EQ(outcome.detail.rfind("planted panic", 0), 0u);
    EXPECT_NE(outcome.outcomeJson.find("\"invariant\":\"panic\""),
              std::string::npos);
}

TEST(InvariantCheckerTest, ViolationCarriesEvidence)
{
    Scenario s;
    s.name = "evidence";
    s.numPrompt = 1;
    s.numToken = 1;
    s.requests = smallTrace(22, 2.0, 2.0);
    s.bug.kind = BugKind::kOrphanKvBlock;
    s.bug.atUs = sim::msToUs(200.0);
    s.bug.machineId = 1;
    const ScenarioOutcome outcome = runScenario(s);
    ASSERT_TRUE(outcome.violated);
    EXPECT_FALSE(outcome.detail.empty());
    EXPECT_NE(outcome.outcomeJson.find("\"violated\":true"),
              std::string::npos);
}

}  // namespace
}  // namespace splitwise::testing
