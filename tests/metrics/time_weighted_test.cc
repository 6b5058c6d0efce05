#include "metrics/time_weighted.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "sim/rng.h"

namespace splitwise::metrics {
namespace {

TEST(TimeWeightedHistogramTest, EmptyCdfIsZero)
{
    TimeWeightedHistogram h;
    EXPECT_EQ(h.totalTime(), 0);
    EXPECT_DOUBLE_EQ(h.cdfAt(100), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_TRUE(h.cdf().empty());
}

TEST(TimeWeightedHistogramTest, SingleValue)
{
    TimeWeightedHistogram h;
    h.record(5, 100);
    EXPECT_EQ(h.totalTime(), 100);
    EXPECT_DOUBLE_EQ(h.cdfAt(4), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(5), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(TimeWeightedHistogramTest, CdfIsTimeWeighted)
{
    TimeWeightedHistogram h;
    h.record(1, 300);
    h.record(10, 100);
    EXPECT_DOUBLE_EQ(h.cdfAt(1), 0.75);
    EXPECT_DOUBLE_EQ(h.cdfAt(9), 0.75);
    EXPECT_DOUBLE_EQ(h.cdfAt(10), 1.0);
    EXPECT_DOUBLE_EQ(h.mean(), (1 * 300 + 10 * 100) / 400.0);
}

TEST(TimeWeightedHistogramTest, RepeatedValuesAccumulate)
{
    TimeWeightedHistogram h;
    h.record(2, 50);
    h.record(2, 50);
    EXPECT_EQ(h.totalTime(), 100);
    EXPECT_DOUBLE_EQ(h.cdfAt(2), 1.0);
}

TEST(TimeWeightedHistogramTest, ZeroOrNegativeDurationIgnored)
{
    TimeWeightedHistogram h;
    h.record(1, 0);
    h.record(2, -5);
    EXPECT_EQ(h.totalTime(), 0);
}

TEST(TimeWeightedHistogramTest, CdfStepsAscend)
{
    TimeWeightedHistogram h;
    h.record(3, 10);
    h.record(1, 10);
    h.record(7, 20);
    const auto steps = h.cdf();
    ASSERT_EQ(steps.size(), 3u);
    EXPECT_EQ(steps[0].first, 1);
    EXPECT_EQ(steps[2].first, 7);
    EXPECT_DOUBLE_EQ(steps[2].second, 1.0);
    EXPECT_LT(steps[0].second, steps[1].second);
}

TEST(TimeWeightedHistogramTest, MergeCombines)
{
    TimeWeightedHistogram a;
    a.record(1, 100);
    TimeWeightedHistogram b;
    b.record(2, 100);
    a.merge(b);
    EXPECT_EQ(a.totalTime(), 200);
    EXPECT_DOUBLE_EQ(a.cdfAt(1), 0.5);
}

TEST(TimeWeightedHistogramTest, ClearResets)
{
    TimeWeightedHistogram h;
    h.record(1, 10);
    h.clear();
    EXPECT_EQ(h.totalTime(), 0);
}

TEST(SignalTrackerTest, TracksPiecewiseConstantSignal)
{
    SignalTracker t;
    t.start(0, 0);
    t.set(100, 5);
    t.set(300, 0);
    t.finish(400);
    const auto& h = t.histogram();
    EXPECT_EQ(h.totalTime(), 400);
    // Value 0 held for [0,100) and [300,400): 200us total.
    EXPECT_DOUBLE_EQ(h.cdfAt(0), 0.5);
    EXPECT_DOUBLE_EQ(h.cdfAt(5), 1.0);
}

TEST(SignalTrackerTest, RedundantSetIsCoalesced)
{
    SignalTracker t;
    t.start(0, 1);
    t.set(50, 1);
    t.set(100, 2);
    t.finish(200);
    EXPECT_DOUBLE_EQ(t.histogram().cdfAt(1), 0.5);
}

TEST(SignalTrackerTest, SetBeforeStartActsAsStart)
{
    SignalTracker t;
    t.set(10, 3);
    t.finish(20);
    EXPECT_EQ(t.histogram().totalTime(), 10);
    EXPECT_DOUBLE_EQ(t.histogram().cdfAt(3), 1.0);
}

TEST(SignalTrackerTest, ValueAccessorTracksCurrent)
{
    SignalTracker t;
    t.start(0, 1);
    t.set(10, 9);
    EXPECT_EQ(t.value(), 9);
}


TEST(TimeWeightedTest, EmptyHistogramCdfIsEmptyAndFinite)
{
    TimeWeightedHistogram h;
    EXPECT_TRUE(h.cdf().empty());
    EXPECT_DOUBLE_EQ(h.cdfAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);

    // Merging empties (an idle controller window) must stay empty.
    TimeWeightedHistogram other;
    h.merge(other);
    EXPECT_TRUE(h.cdf().empty());
    EXPECT_EQ(h.totalTime(), 0);
}

TEST(TimeWeightedProperty, ScrambledRecordsMatchOrderedMapReference)
{
    // The histogram stores values in a hash map and sorts on query:
    // cdf(), cdfAt() and mean() must equal, bit for bit, what an
    // ordered std::map accumulation gives - whatever order the values
    // arrive in, extremes and negatives included.
    const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    sim::Rng rng(97);
    for (int round = 0; round < 40; ++round) {
        std::vector<std::int64_t> values = {kMin, kMax, -1, 0, 1, kMin + 1};
        for (int i = 0; i < 300; ++i)
            values.push_back(rng.uniformInt(-5000, 5000));
        std::vector<std::pair<std::int64_t, sim::TimeUs>> records;
        for (std::int64_t v : values) {
            for (int r = 0, n = static_cast<int>(rng.uniformInt(1, 3)); r < n;
                 ++r)
                records.emplace_back(v, rng.uniformInt(-2, 10000));
        }
        std::shuffle(records.begin(), records.end(), rng.engine());

        TimeWeightedHistogram h;
        TimeWeightedHistogram first_half;
        TimeWeightedHistogram second_half;
        std::map<std::int64_t, sim::TimeUs> ref;
        sim::TimeUs total = 0;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto [v, t] = records[i];
            h.record(v, t);
            (i % 2 == 0 ? first_half : second_half).record(v, t);
            if (t > 0) {
                ref[v] += t;
                total += t;
            }
        }
        first_half.merge(second_half);

        std::vector<std::pair<std::int64_t, double>> ref_cdf;
        double ref_mean = 0.0;
        sim::TimeUs acc = 0;
        for (const auto& [v, t] : ref) {
            acc += t;
            ref_cdf.emplace_back(v, static_cast<double>(acc) /
                                        static_cast<double>(total));
            ref_mean += static_cast<double>(v) * static_cast<double>(t);
        }
        ref_mean /= static_cast<double>(total);

        for (const TimeWeightedHistogram* hist : {&h, &first_half}) {
            ASSERT_EQ(hist->totalTime(), total) << "round " << round;
            ASSERT_EQ(hist->cdf(), ref_cdf) << "round " << round;
            ASSERT_EQ(hist->mean(), ref_mean) << "round " << round;
            for (const std::int64_t q :
                 {kMin, kMin + 1, std::int64_t{-5001}, std::int64_t{-1},
                  std::int64_t{0}, std::int64_t{42}, kMax - 1, kMax}) {
                sim::TimeUs below = 0;
                for (const auto& [v, t] : ref) {
                    if (v <= q)
                        below += t;
                }
                ASSERT_EQ(hist->cdfAt(q), static_cast<double>(below) /
                                               static_cast<double>(total))
                    << "round " << round << " q " << q;
            }
        }
    }
}

}  // namespace
}  // namespace splitwise::metrics
