#include "control/slo_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "metrics/request_metrics.h"
#include "model/llm_config.h"

namespace splitwise::control {
namespace {

/** The sort-based nearest-rank P99 the selection must reproduce. */
double
sortedP99(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    // ceil(0.99 n) in integers: n - floor(n / 100).
    return values[values.size() - values.size() / 100 - 1];
}

TEST(SloMonitorP99, SelectionMatchesSortOnRandomWindows)
{
    std::mt19937_64 rng(15);
    std::uniform_int_distribution<int> size_dist(1, 700);
    std::uniform_real_distribution<double> value_dist(0.0, 40.0);
    for (int trial = 0; trial < 2000; ++trial) {
        // Every fourth window is drawn from a handful of values, so
        // long runs of ties straddle the selected rank.
        const bool ties = trial % 4 == 0;
        const int n = trial < 200 ? 1 + trial % 120 : size_dist(rng);
        std::vector<double> values;
        for (int i = 0; i < n; ++i) {
            const double v = value_dist(rng);
            values.push_back(ties ? std::floor(v / 10.0) : v);
        }
        const double expected = sortedP99(values);
        std::vector<double> scratch = values;
        ASSERT_EQ(nearestRankP99(scratch), expected)
            << "trial " << trial << " n " << n;
    }
}

TEST(SloMonitorP99, SmallAndDegenerateWindows)
{
    std::vector<double> empty;
    EXPECT_EQ(nearestRankP99(empty), 0.0);

    std::vector<double> one{3.5};
    EXPECT_EQ(nearestRankP99(one), 3.5);

    // Below 100 samples ceil(0.99 n) = n: the maximum.
    std::vector<double> small{4.0, 9.0, 1.0, 9.0, 2.0};
    EXPECT_EQ(nearestRankP99(small), 9.0);

    // At n = 200 the rank is 198: the third largest.
    std::vector<double> ramp;
    for (int i = 200; i >= 1; --i)
        ramp.push_back(static_cast<double>(i));
    EXPECT_EQ(nearestRankP99(ramp), 198.0);

    std::vector<double> flat(150, 2.25);
    EXPECT_EQ(nearestRankP99(flat), 2.25);
}

metrics::RequestResult
completion(std::uint64_t id, double ttft_ms, std::int64_t output_tokens)
{
    metrics::RequestResult r;
    r.requestId = id;
    r.arrival = sim::msToUs(static_cast<double>(id));
    r.promptTokens = 1000;
    r.outputTokens = output_tokens;
    r.ttftMs = ttft_ms;
    r.tbtMs = output_tokens > 1 ? 30.0 + static_cast<double>(id % 7) : 0.0;
    // Completions land in id order, as the cluster's results do.
    r.e2eMs = 1.0;
    return r;
}

TEST(SloMonitorTest, WindowWithoutDecodesHasZeroTbt)
{
    // Single-token requests never decode: the TBT side of the window
    // is empty and reads 0 while TTFT is still priced.
    SloMonitor monitor(model::llama2_70b(), sim::secondsToUs(5.0));
    metrics::RequestMetrics results;
    for (std::uint64_t id = 1; id <= 30; ++id)
        results.add(completion(id, 100.0 + static_cast<double>(id), 1));
    const WindowStats stats = monitor.refresh(results, sim::secondsToUs(1.0));
    EXPECT_EQ(stats.samples, 30u);
    EXPECT_EQ(stats.tbtP99Slowdown, 0.0);
    EXPECT_EQ(stats.ttftP99Slowdown,
              130.0 / monitor.checker().refTtftMs(1000));
}

TEST(SloMonitorTest, RefreshMatchesSortedReferenceAsTheWindowSlides)
{
    SloMonitor monitor(model::llama2_70b(), sim::secondsToUs(0.5));
    metrics::RequestMetrics results;
    std::mt19937_64 rng(99);
    std::uniform_real_distribution<double> ttft(50.0, 900.0);
    std::vector<metrics::RequestResult> added;
    for (std::uint64_t id = 1; id <= 3000; ++id) {
        // Whole-millisecond TTFTs repeat, so ties are common.
        const auto r = completion(id, std::floor(ttft(rng)), 1 + id % 3);
        results.add(r);
        added.push_back(r);
        if (id % 97 != 0)
            continue;
        const sim::TimeUs now = sim::msToUs(static_cast<double>(id) + 20.0);
        const WindowStats stats = monitor.refresh(results, now);
        std::vector<double> ttft_ref;
        std::vector<double> tbt_ref;
        for (const auto& c : added) {
            if (c.arrival + sim::msToUs(c.e2eMs) < now - sim::secondsToUs(0.5))
                continue;
            ttft_ref.push_back(c.ttftMs /
                               monitor.checker().refTtftMs(c.promptTokens));
            if (c.outputTokens > 1) {
                tbt_ref.push_back(
                    c.tbtMs / monitor.checker().refTbtMs(
                                  c.promptTokens + c.outputTokens / 2));
            }
        }
        ASSERT_EQ(stats.samples, ttft_ref.size()) << "at request " << id;
        EXPECT_EQ(stats.ttftP99Slowdown, sortedP99(ttft_ref));
        EXPECT_EQ(stats.tbtP99Slowdown, sortedP99(tbt_ref));
    }
}

}  // namespace
}  // namespace splitwise::control
