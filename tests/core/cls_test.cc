#include "core/cls.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "core/cluster.h"
#include "core/designs.h"
#include "hw/machine_spec.h"
#include "model/llm_config.h"
#include "model/memory_model.h"
#include "model/perf_model.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::core {
namespace {

/**
 * CLS behaviour is exercised through small clusters: routing,
 * JSQ balance, mixed-pool overflow, and pool-return transitions.
 */
workload::Trace
uniformTrace(std::size_t count, double interval_s, std::int64_t prompt,
             std::int64_t output)
{
    workload::Trace trace;
    for (std::size_t i = 0; i < count; ++i) {
        trace.push_back({i, sim::secondsToUs(i * interval_s), prompt,
                         output});
    }
    return trace;
}

TEST(ClsTest, PoolNames)
{
    EXPECT_STREQ(poolTypeName(PoolType::kPrompt), "prompt");
    EXPECT_STREQ(poolTypeName(PoolType::kToken), "token");
    EXPECT_STREQ(poolTypeName(PoolType::kMixed), "mixed");
}

TEST(ClsTest, SplitwiseMachinesStartInTheirPools)
{
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 3));
    const auto& cls = cluster.scheduler();
    EXPECT_EQ(cls.poolOf(0), PoolType::kPrompt);
    EXPECT_EQ(cls.poolOf(1), PoolType::kPrompt);
    EXPECT_EQ(cls.poolOf(2), PoolType::kToken);
    EXPECT_EQ(cls.originOf(4), PoolType::kToken);
}

TEST(ClsTest, BaselineMachinesAreMixed)
{
    Cluster cluster(model::llama2_70b(), baselineH100(3));
    EXPECT_EQ(cluster.scheduler().poolOf(0), PoolType::kMixed);
    EXPECT_EQ(cluster.scheduler().originOf(0), PoolType::kMixed);
}

TEST(ClsTest, JsqSpreadsPromptLoad)
{
    // Back-to-back arrivals while machines are busy: JSQ must not
    // pile every prompt on machine 0.
    const auto trace = uniformTrace(16, 0.01, 1500, 4);
    Cluster cluster(model::llama2_70b(), splitwiseHH(4, 1));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 16u);
    int busy_prompt_machines = 0;
    for (int i = 0; i < 4; ++i) {
        if (cluster.machines()[static_cast<std::size_t>(i)]
                ->stats()
                .promptTokensProcessed > 0) {
            ++busy_prompt_machines;
        }
    }
    EXPECT_GE(busy_prompt_machines, 3);
}

TEST(ClsTest, NoOverflowAtLowLoad)
{
    const auto trace = uniformTrace(10, 0.5, 1000, 8);
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.mixedRoutes, 0u);
    EXPECT_EQ(report.poolTransitions, 0u);
}

TEST(ClsTest, PromptBurstOverflowsIntoTokenPool)
{
    // A simultaneous burst of huge prompts swamps the single prompt
    // machine far past the overflow threshold; the CLS must pull the
    // token machines into the mixed pool.
    workload::Trace trace;
    for (int i = 0; i < 24; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 6000, 2});
    SimConfig config;
    config.cls.promptOverflowTokens = 8000;
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 3), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 24u);
    EXPECT_GT(report.mixedRoutes, 0u);
    EXPECT_GT(report.poolTransitions, 0u);
    // Overflowed requests ran both phases on the pulled machine, so
    // token machines did prompt work.
    std::int64_t token_pool_prompts = 0;
    for (std::size_t i = 1; i < 4; ++i)
        token_pool_prompts +=
            cluster.machines()[i]->stats().promptTokensProcessed;
    EXPECT_GT(token_pool_prompts, 0);
}

TEST(ClsTest, MixedMachinesReturnToOriginPool)
{
    workload::Trace trace;
    for (int i = 0; i < 24; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 6000, 2});
    SimConfig config;
    config.cls.promptOverflowTokens = 8000;
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 3), config);
    cluster.run(trace);
    // After the run drains, every machine is back in its origin pool.
    for (int id = 0; id < 4; ++id) {
        EXPECT_EQ(cluster.scheduler().poolOf(id),
                  cluster.scheduler().originOf(id))
            << "machine " << id;
    }
}

TEST(ClsTest, RepurposingSwapsOrigin)
{
    workload::Trace trace;
    for (int i = 0; i < 40; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 6000, 30});
    SimConfig config;
    config.cls.promptOverflowTokens = 4000;
    config.cls.repurposeAfterUs = sim::msToUs(200);
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 3), config);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 40u);
    EXPECT_GT(cluster.scheduler().repurposings(), 0u);
}

TEST(ClsTest, RandomRoutingWorksButSpreadsWorse)
{
    // Ablation hook: random routing completes everything, but JSQ
    // keeps the TTFT tail tighter under bursty load.
    const auto trace = uniformTrace(40, 0.02, 1500, 10);
    SimConfig random_cfg;
    random_cfg.cls.routing = RoutingPolicy::kRandom;
    Cluster jsq(model::llama2_70b(), splitwiseHH(4, 2));
    Cluster random(model::llama2_70b(), splitwiseHH(4, 2), random_cfg);
    const RunReport a = jsq.run(trace);
    const RunReport b = random.run(trace);
    EXPECT_EQ(a.requests.completed(), 40u);
    EXPECT_EQ(b.requests.completed(), 40u);
    EXPECT_LE(a.requests.ttftMs().p90(), b.requests.ttftMs().p90() * 1.05);
}

TEST(ClsTest, RandomRoutingDeterministicPerSeed)
{
    const auto trace = uniformTrace(30, 0.05, 1000, 10);
    auto run_once = [&] {
        SimConfig config;
        config.cls.routing = RoutingPolicy::kRandom;
        config.cls.routingSeed = 99;
        Cluster cluster(model::llama2_70b(), splitwiseHH(3, 2), config);
        return cluster.run(trace);
    };
    const RunReport a = run_once();
    const RunReport b = run_once();
    EXPECT_DOUBLE_EQ(a.requests.e2eMs().mean(), b.requests.e2eMs().mean());
}

TEST(ClsTest, RetireRestoreRoundTripKeepsCounters)
{
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    auto& cls = cluster.scheduler();
    cls.retire(0);
    EXPECT_FALSE(cls.contains(0));
    EXPECT_TRUE(cls.inStandby(0));
    EXPECT_EQ(cls.standbySize(), 1u);
    EXPECT_EQ(cls.liveMachines(), 3u);
    EXPECT_EQ(cls.poolSize(PoolType::kPrompt), 1u);
    // Standby machines keep answering identity queries: the origin
    // survives for restore().
    EXPECT_EQ(cls.originOf(0), PoolType::kPrompt);

    cls.restore(0);
    EXPECT_TRUE(cls.contains(0));
    EXPECT_FALSE(cls.inStandby(0));
    EXPECT_EQ(cls.poolOf(0), PoolType::kPrompt);
    EXPECT_EQ(cls.retires(), 1u);
    EXPECT_EQ(cls.restores(), 1u);
    EXPECT_EQ(cls.liveMachines(), 4u);
}

TEST(ClsTest, RestoreUnderNewOriginIsARoleFlex)
{
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    auto& cls = cluster.scheduler();
    cls.retire(0);
    cls.restore(0, PoolType::kToken);
    EXPECT_EQ(cls.poolOf(0), PoolType::kToken);
    EXPECT_EQ(cls.originOf(0), PoolType::kToken);
    EXPECT_EQ(cls.poolSize(PoolType::kPrompt), 1u);
    EXPECT_EQ(cls.poolSize(PoolType::kToken), 3u);
}

TEST(ClsTest, RetireRefusesTheLastRoutedMachine)
{
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    auto& cls = cluster.scheduler();
    cls.retire(0);
    cls.retire(1);
    cls.retire(2);
    EXPECT_THROW(cls.retire(3), std::runtime_error);
    EXPECT_THROW(cls.retire(0), std::runtime_error);  // not routed
}

TEST(ClsTest, FlexedMachineFailsAndRejoinsItsFlexedPool)
{
    // A machine flexed prompt->token crashes and recovers mid-run:
    // it must rejoin under its flexed identity (the origin restore()
    // assigned), with retire/restore/rejoin counters consistent and
    // no machine lost or double-counted.
    Cluster cluster(model::llama2_70b(), splitwiseHH(2, 2));
    auto& cls = cluster.scheduler();
    cls.retire(0);
    cls.restore(0, PoolType::kToken);
    cluster.scheduleFailure(0, sim::secondsToUs(2),
                            /*downtime_us=*/sim::secondsToUs(3));

    const auto trace = uniformTrace(30, 0.3, 1200, 30);
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed() + report.rejected, 30u);
    EXPECT_EQ(report.rejoins, 1u);
    EXPECT_TRUE(cls.contains(0));
    EXPECT_EQ(cls.poolOf(0), PoolType::kToken);
    EXPECT_EQ(cls.originOf(0), PoolType::kToken);
    EXPECT_EQ(cls.liveMachines(), 4u);
    EXPECT_EQ(cls.standbySize(), 0u);
    EXPECT_EQ(cls.retires(), 1u);
    EXPECT_EQ(cls.restores(), 1u);
}

TEST(ClsTest, FailedWhileMixedRejoinsOriginPool)
{
    // A token machine pulled into the mixed pool by a prompt burst
    // crashes there; after recovery it must sit in its origin token
    // pool with no mixed-pool residue.
    workload::Trace trace;
    for (int i = 0; i < 24; ++i)
        trace.push_back({static_cast<std::uint64_t>(i), 0, 6000, 2});
    for (int i = 24; i < 40; ++i) {
        trace.push_back({static_cast<std::uint64_t>(i),
                         sim::secondsToUs(6 + (i - 24) / 4.0), 1200, 20});
    }
    SimConfig config;
    config.cls.promptOverflowTokens = 8000;
    Cluster cluster(model::llama2_70b(), splitwiseHH(1, 3), config);
    cluster.scheduleFailure(1, sim::msToUs(50),
                            /*downtime_us=*/sim::secondsToUs(2));
    const RunReport report = cluster.run(trace);

    EXPECT_GT(report.mixedRoutes, 0u);
    EXPECT_EQ(report.rejoins, 1u);
    EXPECT_EQ(report.requests.completed() + report.rejected, 40u);
    const auto& cls = cluster.scheduler();
    EXPECT_EQ(cls.poolOf(1), PoolType::kToken);
    EXPECT_EQ(cls.originOf(1), PoolType::kToken);
    EXPECT_EQ(cls.liveMachines(), 4u);
    // Every machine drained back to its origin pool.
    for (int id = 0; id < 4; ++id)
        EXPECT_EQ(cls.poolOf(id), cls.originOf(id)) << "machine " << id;
}

TEST(ClsTest, BaselineRoutesWholeRequestsByLoad)
{
    const auto trace = uniformTrace(12, 0.05, 1500, 30);
    Cluster cluster(model::llama2_70b(), baselineH100(3));
    const RunReport report = cluster.run(trace);
    EXPECT_EQ(report.requests.completed(), 12u);
    for (const auto& m : cluster.machines())
        EXPECT_GT(m->stats().tokensGenerated, 0);
}

/**
 * Membership churn against a CLS over hand-built machines, so a test
 * can fail, retire, restore and rejoin machines between arrivals and
 * run the clock with no Cluster around it. Every request has one
 * output token: its prompt is the whole request, and the token
 * machine the CLS picks is recorded but never used.
 */
class ClsChurnTest : public ::testing::TestWithParam<RoutingPolicy> {
  protected:
    static constexpr int kPromptMachines = 4;
    static constexpr int kTokenMachines = 4;
    static constexpr int kMachines = kPromptMachines + kTokenMachines;

    ClsChurnTest()
        : perf_(model::llama2_70b(), hw::dgxH100()),
          memory_(model::llama2_70b(), hw::dgxH100())
    {
    }

    /** Build the CLS: ids 0-3 prompt, 4-7 token. */
    void
    build(sim::TimeUs repurpose_after_us)
    {
        std::vector<engine::Machine*> prompt;
        std::vector<engine::Machine*> token;
        for (int id = 0; id < kMachines; ++id) {
            engine::Machine::Callbacks cb;
            cb.onIterationEnd = [this](engine::Machine& m) {
                cls_->onIterationEnd(m);
                // Pool returns and re-purposings happen here, between
                // the test's own checkpoints.
                EXPECT_EQ(cls_->integrityError(), "");
            };
            machines_.push_back(std::make_unique<engine::Machine>(
                sim_, id, hw::dgxH100(), perf_, memory_,
                engine::MlsConfig{}, std::move(cb)));
            (id < kPromptMachines ? prompt : token)
                .push_back(machines_.back().get());
        }
        ClsConfig config;
        config.routing = GetParam();
        config.routingSeed = 7;
        config.promptOverflowTokens = 3000;
        config.repurposeAfterUs = repurpose_after_us;
        cls_ = std::make_unique<ClusterScheduler>(sim_, config, prompt,
                                                  token, true);
    }

    /** Route @p count arrivals, checking each pick is routable. */
    void
    route(int count, std::int64_t prompt_tokens = 1000)
    {
        for (int i = 0; i < count; ++i) {
            engine::LiveRequest& req = requests_.emplace_back();
            req.spec = {nextId_++, sim_.now(), prompt_tokens, 1};
            ASSERT_TRUE(cls_->onArrival(&req));
            for (const int id : {req.promptMachine, req.tokenMachine}) {
                EXPECT_TRUE(cls_->contains(id)) << "routed to " << id;
                EXPECT_FALSE(cls_->inStandby(id)) << "standby " << id;
                EXPECT_EQ(down_.count(id), 0u) << "failed " << id;
            }
        }
    }

    /** Run every queued prompt to completion. */
    void settle() { sim_.run(); }

    /**
     * The cache matches a fresh walk, and every member list holds
     * exactly the routed machines its pool and origin admit.
     */
    void
    expectMembersConsistent()
    {
        ASSERT_EQ(cls_->integrityError(), "");
        for (const PoolType pool :
             {PoolType::kPrompt, PoolType::kToken, PoolType::kMixed}) {
            std::set<int> want_prompt;
            std::set<int> want_token;
            for (int id = 0; id < kMachines; ++id) {
                if (!cls_->contains(id))
                    continue;
                const PoolType at = cls_->poolOf(id);
                const PoolType origin = cls_->originOf(id);
                const bool mixed = at == PoolType::kMixed;
                if (at == pool ||
                    (pool == PoolType::kPrompt && mixed &&
                     origin == PoolType::kPrompt))
                    want_prompt.insert(id);
                if (at == pool ||
                    (pool == PoolType::kToken && mixed &&
                     origin == PoolType::kToken))
                    want_token.insert(id);
            }
            EXPECT_EQ(ids(cls_->promptMembers(pool)), want_prompt)
                << poolTypeName(pool);
            EXPECT_EQ(ids(cls_->tokenMembers(pool)), want_token)
                << poolTypeName(pool);
        }
    }

    static std::set<int>
    ids(const std::vector<engine::Machine*>& members)
    {
        std::set<int> out;
        for (const engine::Machine* m : members)
            out.insert(m->id());
        EXPECT_EQ(out.size(), members.size()) << "duplicate member";
        return out;
    }

    /** Ids of routed machines currently in the mixed pool. */
    std::vector<int>
    mixedMachines() const
    {
        std::vector<int> out;
        for (int id = 0; id < kMachines; ++id) {
            if (cls_->contains(id) && cls_->poolOf(id) == PoolType::kMixed)
                out.push_back(id);
        }
        return out;
    }

    sim::Simulator sim_;
    model::AnalyticalPerfModel perf_;
    model::MemoryModel memory_;
    std::vector<std::unique_ptr<engine::Machine>> machines_;
    std::unique_ptr<ClusterScheduler> cls_;
    std::deque<engine::LiveRequest> requests_;
    std::uint64_t nextId_ = 0;
    /** Machines the test marked failed in the CLS. */
    std::set<int> down_;
};

TEST_P(ClsChurnTest, RoutingFollowsMembershipChurn)
{
    build(/*repurpose_after_us=*/0);
    expectMembersConsistent();
    route(8);
    settle();

    // Failures: one machine of each pool leaves routing.
    cls_->markFailed(1);
    cls_->markFailed(5);
    down_ = {1, 5};
    expectMembersConsistent();
    EXPECT_EQ(cls_->poolSize(PoolType::kPrompt), 3u);
    EXPECT_EQ(cls_->poolSize(PoolType::kToken), 3u);
    route(12);
    settle();

    // Controller standby: retired machines drain but take no work.
    cls_->retire(2);
    cls_->retire(6);
    expectMembersConsistent();
    route(12);
    settle();

    // Restore one in place and flex the other token -> prompt.
    cls_->restore(2);
    cls_->restore(6, PoolType::kPrompt);
    EXPECT_EQ(cls_->poolOf(6), PoolType::kPrompt);
    expectMembersConsistent();
    EXPECT_EQ(cls_->poolSize(PoolType::kPrompt), 4u);
    EXPECT_EQ(cls_->poolSize(PoolType::kToken), 2u);
    route(12);
    settle();

    // Recovered machines rejoin their origin pools.
    cls_->rejoin(1);
    cls_->rejoin(5);
    down_.clear();
    expectMembersConsistent();
    route(8);
    settle();

    // A burst of large prompts overloads the prompt side and pulls
    // token machines into the mixed pool. A pulled token machine
    // keeps its identity: it stays eligible for decode work in the
    // token pool and never for prompt work there.
    route(40, 2000);
    const std::vector<int> mixed = mixedMachines();
    ASSERT_FALSE(mixed.empty());
    EXPECT_GT(cls_->poolTransitions(), 0u);
    expectMembersConsistent();
    for (const int id : mixed) {
        EXPECT_EQ(cls_->originOf(id), PoolType::kToken);
        const auto eligible = ids(cls_->tokenMembers(PoolType::kToken));
        EXPECT_EQ(eligible.count(id), 1u) << id;
        EXPECT_EQ(ids(cls_->promptMembers(PoolType::kPrompt)).count(id), 0u)
            << id;
        EXPECT_EQ(ids(cls_->promptMembers(PoolType::kMixed)).count(id), 1u)
            << id;
    }

    // Drained, every pulled machine returns to its origin pool.
    settle();
    EXPECT_TRUE(mixedMachines().empty());
    EXPECT_EQ(cls_->repurposings(), 0u);
    for (int id = 0; id < kMachines; ++id)
        EXPECT_EQ(cls_->poolOf(id), cls_->originOf(id)) << id;
    expectMembersConsistent();
    route(8);
    settle();
    expectMembersConsistent();
}

TEST_P(ClsChurnTest, RepurposedMachinesSwitchPhaseEligibility)
{
    // Any mixed-pool stay outlasts 1 us, so every pulled token
    // machine is re-purposed into the prompt pool on its first
    // iteration end.
    build(/*repurpose_after_us=*/1);
    route(40, 2000);
    ASSERT_FALSE(mixedMachines().empty());
    settle();
    EXPECT_GT(cls_->repurposings(), 0u);
    EXPECT_TRUE(mixedMachines().empty());
    expectMembersConsistent();
    std::size_t flexed = 0;
    for (int id = kPromptMachines; id < kMachines; ++id) {
        if (cls_->originOf(id) != PoolType::kPrompt)
            continue;
        ++flexed;
        EXPECT_EQ(ids(cls_->promptMembers(PoolType::kPrompt)).count(id), 1u);
        EXPECT_EQ(ids(cls_->tokenMembers(PoolType::kToken)).count(id), 0u);
    }
    EXPECT_EQ(flexed, cls_->repurposings());
    EXPECT_EQ(cls_->poolSize(PoolType::kPrompt), kPromptMachines + flexed);

    // Churn on top of the new roles keeps the cache exact.
    cls_->markFailed(kMachines - 1);
    down_ = {kMachines - 1};
    route(12);
    settle();
    expectMembersConsistent();
}

INSTANTIATE_TEST_SUITE_P(Routing, ClsChurnTest,
                         ::testing::Values(RoutingPolicy::kRandom,
                                           RoutingPolicy::kJsq),
                         [](const auto& info) {
                             return info.param == RoutingPolicy::kRandom
                                        ? std::string("Random")
                                        : std::string("Jsq");
                         });

}  // namespace
}  // namespace splitwise::core
