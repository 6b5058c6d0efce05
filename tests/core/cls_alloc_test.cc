#include "core/cls.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/cluster.h"
#include "core/designs.h"
#include "engine/block_manager.h"
#include "model/llm_config.h"

namespace splitwise::core {
namespace {

/**
 * Global allocation counter for the zero-allocation routing and
 * block-table assertions. Defined in this TU (its own test binary),
 * so it observes every operator new - including any the CLS, the
 * machines it routes to, or their block managers would perform.
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

TEST(ClsAllocTest, BlockTableCyclesAllocateNothing)
{
    // A machine's block table admits and retires one entry per
    // request and is probed once per decode token. Once it has held
    // its high-water count of residents, request churn must recycle
    // table slots - ever-new request ids included - without touching
    // the heap.
    constexpr std::uint64_t kResidents = 200;
    constexpr std::uint64_t kWarmup = 2000;
    constexpr std::uint64_t kMeasured = 20000;
    constexpr std::int64_t kDecodeSteps = 8;
    engine::BlockManager blocks(std::int64_t{1} << 22, 16);
    int failures = 0;
    std::uint64_t next = 0;
    const auto cycle = [&] {
        const std::uint64_t id = next++;
        const auto prompt = static_cast<std::int64_t>(100 + id % 700);
        failures += blocks.allocate(id, prompt) ? 0 : 1;
        for (std::int64_t t = 1; t <= kDecodeSteps; ++t) {
            failures += blocks.canExtend(id, prompt + t) ? 0 : 1;
            failures += blocks.extend(id, prompt + t) ? 0 : 1;
        }
        if (id >= kResidents)
            blocks.release(id - kResidents);
    };
    for (std::uint64_t i = 0; i < kWarmup; ++i)
        cycle();

    const std::uint64_t before = g_allocations;
    for (std::uint64_t i = 0; i < kMeasured; ++i)
        cycle();
    const std::uint64_t after = g_allocations;

    EXPECT_EQ(after - before, 0u)
        << "steady-state block-table churn allocated on the heap";
    EXPECT_EQ(failures, 0);
    EXPECT_EQ(blocks.residents(), kResidents);
    EXPECT_EQ(blocks.audit(), "");
}

}  // namespace
}  // namespace splitwise::core
