#include "core/cls.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "model/llm_config.h"

namespace splitwise::core {
namespace {

/**
 * Global allocation counter for the zero-allocation routing
 * assertion. Defined in this TU (its own test binary), so it observes
 * every operator new - including any the CLS or the machines it
 * routes to would perform.
 */
std::uint64_t g_allocations = 0;

}  // namespace
}  // namespace splitwise::core

void*
operator new(std::size_t size)
{
    ++splitwise::core::g_allocations;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    ++splitwise::core::g_allocations;
    if (void* p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace splitwise::core {
namespace {

TEST(ClsAllocTest, RandomRoutingAtFleetScaleAllocatesNothing)
{
    // A 2000-machine Splitwise-HH fleet under random routing: each
    // arrival draws one index from a cached member list, so routing
    // must not touch the heap however many machines are eligible.
    constexpr int kMachines = 2000;
    constexpr int kToken = kMachines / 8;
    constexpr int kWarmup = 4000;
    constexpr int kMeasured = 4000;
    SimConfig config;
    config.cls.routing = RoutingPolicy::kRandom;
    config.cls.routingSeed = 3;
    Cluster cluster(model::llama2_70b(),
                    splitwiseHH(kMachines - kToken, kToken), config);
    ClusterScheduler& cls = cluster.scheduler();

    std::vector<engine::LiveRequest> requests(kMachines + kWarmup +
                                              kMeasured);
    for (std::size_t i = 0; i < requests.size(); ++i)
        requests[i].spec = {i, 0, 100, 1};

    // Steady state: every machine mid-iteration (the clock never
    // runs, so new work only queues), and every lazily sized
    // structure on the routing path already touched.
    std::size_t next = 0;
    for (const auto& m : cluster.machines())
        m->submitPrompt(&requests[next++]);
    for (int i = 0; i < kWarmup; ++i)
        ASSERT_TRUE(cls.onArrival(&requests[next++]));

    const std::uint64_t before = g_allocations;
    for (int i = 0; i < kMeasured; ++i)
        cls.onArrival(&requests[next++]);
    const std::uint64_t after = g_allocations;

    EXPECT_EQ(after - before, 0u)
        << "steady-state routing allocated on the heap";
    EXPECT_EQ(cls.mixedPoolRoutes(), 0u);
    EXPECT_EQ(cls.integrityError(), "");
}

}  // namespace
}  // namespace splitwise::core
