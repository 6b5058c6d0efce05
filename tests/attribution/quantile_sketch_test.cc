#include "metrics/quantile_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "metrics/request_metrics.h"
#include "metrics/summary.h"

namespace splitwise::metrics {
namespace {

/** Exact reference distribution alongside the sketch under test. */
struct Pair {
    QuantileSketch sketch;
    Summary exact;

    void
    add(double v)
    {
        sketch.add(v);
        exact.add(v);
    }
};

void
expectWithin(const Pair& p, double percentile, double rel_bound)
{
    const double exact = p.exact.percentile(percentile);
    const double approx = p.sketch.percentile(percentile);
    ASSERT_GT(exact, 0.0);
    EXPECT_NEAR(approx / exact, 1.0, rel_bound)
        << "p" << percentile << ": exact=" << exact
        << " sketch=" << approx;
}

/**
 * The acceptance bound from the issue: p50/p99 within 1% relative
 * error. The default alpha (0.005) guarantees 0.5% against any
 * sample inside the located bucket, leaving headroom for the
 * half-rank the fractional-rank convention can shift the order
 * statistic by.
 */
TEST(QuantileSketchTest, LinearRampWithinOnePercent)
{
    Pair p;
    for (int i = 0; i < 100000; ++i)
        p.add(0.5 + 0.001 * i);  // 0.5ms .. 100.5ms
    for (double q : {50.0, 90.0, 99.0, 99.9})
        expectWithin(p, q, 0.01);
}

TEST(QuantileSketchTest, GeometricHeavyTailWithinOnePercent)
{
    // Latencies spanning five orders of magnitude - the adversarial
    // case for uniform-bucket histograms, the design case here.
    Pair p;
    double v = 0.01;
    for (int i = 0; i < 60000; ++i) {
        p.add(v);
        v *= 1.0002;  // up to ~0.01 * e^12 ~ 1600
    }
    for (double q : {50.0, 99.0})
        expectWithin(p, q, 0.01);
}

TEST(QuantileSketchTest, BimodalWithOutliersWithinOnePercent)
{
    // 98% fast requests near 40ms, 2% stragglers near 30s: p99 lands
    // inside the straggler mode, three orders of magnitude from p50.
    // (Exactly *at* the cliff the exact side linearly interpolates
    // across the modes while the sketch reports an order statistic,
    // so the conventions diverge by construction - that rank is not
    // a meaningful accuracy probe.)
    Pair p;
    for (int i = 0; i < 98000; ++i)
        p.add(40.0 + 0.0001 * (i % 1000));
    for (int i = 0; i < 2000; ++i)
        p.add(30000.0 + static_cast<double>(i));
    for (double q : {50.0, 99.0})
        expectWithin(p, q, 0.01);
}

TEST(QuantileSketchTest, MomentsAreExact)
{
    Pair p;
    double sum = 0.0;
    for (int i = 1; i <= 1000; ++i) {
        const double v = static_cast<double>(i) * 1.5;
        p.add(v);
        sum += v;
    }
    EXPECT_EQ(p.sketch.count(), 1000u);
    EXPECT_DOUBLE_EQ(p.sketch.sum(), sum);
    EXPECT_DOUBLE_EQ(p.sketch.mean(), sum / 1000.0);
    EXPECT_DOUBLE_EQ(p.sketch.min(), 1.5);
    EXPECT_DOUBLE_EQ(p.sketch.max(), 1500.0);
}

TEST(QuantileSketchTest, EstimatesClampToExactEnvelope)
{
    QuantileSketch s;
    s.add(10.0);
    s.add(20.0);
    // Whatever bucket midpoints say, estimates never leave [min, max].
    EXPECT_GE(s.percentile(0.0), 10.0);
    EXPECT_LE(s.percentile(100.0), 20.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 20.0);
}

TEST(QuantileSketchTest, EmptyAndNanMatchSummaryConventions)
{
    QuantileSketch s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    s.add(1.0);
    EXPECT_TRUE(std::isnan(s.percentile(
        std::numeric_limits<double>::quiet_NaN())));
}

TEST(QuantileSketchTest, NonPositiveSamplesLandInZeroBucket)
{
    QuantileSketch s;
    s.add(0.0);
    s.add(-1.0);
    s.add(5.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), -1.0);
    // Rank 0 and 1 fall in the zero bucket; the estimate clamps to
    // the exact min.
    EXPECT_DOUBLE_EQ(s.percentile(0.0), -1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 5.0);
}

TEST(QuantileSketchTest, MergeIsOrderIndependent)
{
    // Shard a stream 8 ways, merge forward and backward: bucket
    // addition must make the results bit-identical - the property
    // the jobs-1-vs-8 report gate rests on.
    std::vector<QuantileSketch> shards(8);
    QuantileSketch whole;
    double v = 0.02;
    for (int i = 0; i < 20000; ++i) {
        shards[static_cast<std::size_t>(i % 8)].add(v);
        whole.add(v);
        v *= 1.0005;
    }
    QuantileSketch forward, backward;
    for (std::size_t i = 0; i < shards.size(); ++i)
        forward.merge(shards[i]);
    for (std::size_t i = shards.size(); i-- > 0;)
        backward.merge(shards[i]);

    for (double q : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
        EXPECT_DOUBLE_EQ(forward.percentile(q), backward.percentile(q));
        EXPECT_DOUBLE_EQ(forward.percentile(q), whole.percentile(q));
    }
    EXPECT_EQ(forward.count(), whole.count());
    // Sums reassociate floating-point addition across merge orders,
    // so compare those to a relative ulp bound; the percentile
    // comparisons above are bit-exact because they ride on integer
    // bucket counts and the exact min/max envelope.
    EXPECT_NEAR(forward.sum() / backward.sum(), 1.0, 1e-12);
    EXPECT_NEAR(forward.sum() / whole.sum(), 1.0, 1e-12);
    EXPECT_EQ(forward.bucketCount(), whole.bucketCount());
}

/**
 * The sparse bucket store the dense array replaced: a std::map keyed
 * by the same log index, walked in key order. The dense store must
 * reproduce its percentiles bit for bit.
 */
class MapSketch {
  public:
    void
    add(double v)
    {
        ++count_;
        min_ = count_ == 1 ? v : std::min(min_, v);
        max_ = count_ == 1 ? v : std::max(max_, v);
        if (v <= 0.0)
            ++zeros_;
        else
            ++buckets_[static_cast<std::int32_t>(
                std::ceil(std::log(v) / logGamma_))];
    }

    void
    merge(const MapSketch& other)
    {
        for (const auto& [index, n] : other.buckets_)
            buckets_[index] += n;
        zeros_ += other.zeros_;
        if (other.count_ > 0) {
            min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
            max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
        }
        count_ += other.count_;
    }

    double
    percentile(double p) const
    {
        if (count_ == 0)
            return 0.0;
        const double rank = p / 100.0 * static_cast<double>(count_ - 1);
        if (rank <= 0.0)
            return min_;
        if (rank >= static_cast<double>(count_ - 1))
            return max_;
        std::uint64_t seen = zeros_;
        double estimate = 0.0;
        if (rank >= static_cast<double>(seen)) {
            for (const auto& [index, n] : buckets_) {
                seen += n;
                if (rank < static_cast<double>(seen)) {
                    estimate = 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
                    break;
                }
            }
            if (rank >= static_cast<double>(seen))
                estimate = max_;
        }
        return std::clamp(estimate, min_, max_);
    }

    std::size_t bucketCount() const { return buckets_.size(); }

  private:
    double gamma_ = (1.0 + 0.005) / (1.0 - 0.005);
    double logGamma_ = std::log(gamma_);
    std::map<std::int32_t, std::uint64_t> buckets_;
    std::uint64_t zeros_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

TEST(QuantileSketchProperty, DenseStoreMatchesMapReference)
{
    // Random streams over many decades - rising, falling (each new
    // minimum widens the store downward) and mixed with zeros - split
    // over shards merged in a shuffled order.
    std::mt19937_64 rng(2019);
    std::uniform_real_distribution<double> exponent(-4.0, 6.0);
    for (int trial = 0; trial < 40; ++trial) {
        const int shards = 1 + trial % 5;
        std::vector<QuantileSketch> dense(static_cast<std::size_t>(shards));
        std::vector<MapSketch> ref(static_cast<std::size_t>(shards));
        const int n = 1 + static_cast<int>(rng() % 3000);
        for (int i = 0; i < n; ++i) {
            double v = std::pow(10.0, exponent(rng));
            if (trial % 3 == 1)
                v = 1e6 / (1.0 + i);
            if (rng() % 50 == 0)
                v = 0.0;
            const auto shard = rng() % static_cast<std::uint64_t>(shards);
            dense[shard].add(v);
            ref[shard].add(v);
        }
        QuantileSketch merged;
        MapSketch merged_ref;
        std::vector<int> order(static_cast<std::size_t>(shards));
        for (int i = 0; i < shards; ++i)
            order[static_cast<std::size_t>(i)] = i;
        std::shuffle(order.begin(), order.end(), rng);
        for (const int i : order) {
            merged.merge(dense[static_cast<std::size_t>(i)]);
            merged_ref.merge(ref[static_cast<std::size_t>(i)]);
        }
        for (double p = 0.0; p <= 100.0; p += 0.5) {
            ASSERT_EQ(merged.percentile(p), merged_ref.percentile(p))
                << "trial " << trial << " p" << p;
            ASSERT_EQ(dense[0].percentile(p), ref[0].percentile(p))
                << "trial " << trial << " p" << p;
        }
        EXPECT_EQ(merged.bucketCount(), merged_ref.bucketCount());
    }
}

TEST(QuantileSketchTest, NonFiniteSamplesAreFatal)
{
    QuantileSketch s;
    s.add(2.0);
    EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()),
                 std::runtime_error);
    EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()),
                 std::runtime_error);
    EXPECT_THROW(s.add(-std::numeric_limits<double>::infinity()),
                 std::runtime_error);
    EXPECT_EQ(s.count(), 1u);
}

TEST(QuantileSketchTest, MergeRejectsMismatchedAlpha)
{
    QuantileSketch a(0.005);
    QuantileSketch b(0.01);
    b.add(1.0);
    EXPECT_THROW(a.merge(b), std::runtime_error);
}

TEST(QuantileSketchTest, ConstructorRejectsBadAlpha)
{
    EXPECT_THROW(QuantileSketch(0.0), std::runtime_error);
    EXPECT_THROW(QuantileSketch(1.0), std::runtime_error);
    EXPECT_THROW(QuantileSketch(-0.5), std::runtime_error);
}

TEST(QuantileSketchTest, MemoryStaysBoundedAtAMillionSamples)
{
    // 10^6 samples across nine decades: the exact store would hold
    // 8 MB of doubles; the sketch holds O(log(max/min)/alpha)
    // buckets. gamma ~ 1.01 covers a decade in ~230 buckets.
    QuantileSketch s;
    double v = 0.001;
    const double step = std::pow(10.0, 9.0 / 1e6);
    for (int i = 0; i < 1000000; ++i) {
        s.add(v);
        v *= step;
    }
    EXPECT_EQ(s.count(), 1000000u);
    EXPECT_LT(s.storeSize(), 4096u);
    EXPECT_LE(s.bucketCount(), s.storeSize());
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.bucketCount(), 0u);
    EXPECT_EQ(s.storeSize(), 0u);
}

TEST(QuantileSketchTest, StoreSpansOnlyTheOccupiedIndexRange)
{
    // Two samples eighteen decades apart occupy two buckets, but the
    // dense store holds every bucket between them: its footprint is
    // the index span, no more.
    const double alpha = 0.005;
    const double log_gamma = std::log((1.0 + alpha) / (1.0 - alpha));
    const auto index = [&](double v) {
        return static_cast<std::int64_t>(std::ceil(std::log(v) / log_gamma));
    };
    const std::size_t span =
        static_cast<std::size_t>(index(1e9) - index(1e-9)) + 1;

    QuantileSketch s(alpha);
    s.add(1e-9);
    EXPECT_EQ(s.storeSize(), 1u);
    s.add(1e9);
    EXPECT_EQ(s.bucketCount(), 2u);
    EXPECT_EQ(s.storeSize(), span);
    // Samples and merges inside the span do not widen the store.
    s.add(1.0);
    QuantileSketch inside(alpha);
    inside.add(1e-3);
    inside.add(1e3);
    s.merge(inside);
    EXPECT_EQ(s.storeSize(), span);
    // A merge below the span widens it by exactly the new buckets.
    QuantileSketch below(alpha);
    below.add(1e-12);
    s.merge(below);
    EXPECT_EQ(s.storeSize(),
              static_cast<std::size_t>(index(1e9) - index(1e-12)) + 1);
    EXPECT_EQ(s.bucketCount(), 6u);
}

TEST(RequestMetricsSketchTest, SketchModeDropsSamplesButKeepsStats)
{
    RequestMetrics exact;
    RequestMetrics sketched;
    sketched.setSketchMode(true);
    for (int i = 0; i < 20000; ++i) {
        RequestResult r;
        r.requestId = static_cast<std::uint64_t>(i);
        r.arrival = i;
        r.promptTokens = 100;
        r.outputTokens = 50;
        r.ttftMs = 50.0 * (1.0 + 0.0001 * i);
        r.tbtMs = 30.0 + 0.001 * (i % 97);
        r.maxTbtMs = r.tbtMs * 2.0;
        r.e2eMs = r.ttftMs + 49 * r.tbtMs;
        exact.add(r);
        sketched.add(r);
    }
    EXPECT_TRUE(sketched.results().empty());
    EXPECT_EQ(sketched.completed(), 20000u);
    EXPECT_EQ(sketched.totalOutputTokens(), exact.totalOutputTokens());

    const auto e = exact.ttftStats();
    const auto s = sketched.ttftStats();
    EXPECT_EQ(s.count, e.count);
    EXPECT_DOUBLE_EQ(s.mean, e.mean);
    EXPECT_DOUBLE_EQ(s.max, e.max);
    EXPECT_NEAR(s.p50 / e.p50, 1.0, 0.01);
    EXPECT_NEAR(s.p99 / e.p99, 1.0, 0.01);
}

TEST(RequestMetricsSketchTest, SketchMergeIsOrderIndependent)
{
    auto fill = [](RequestMetrics& m, int lo, int hi) {
        for (int i = lo; i < hi; ++i) {
            RequestResult r;
            r.requestId = static_cast<std::uint64_t>(i);
            r.arrival = i;
            r.ttftMs = 10.0 + 0.01 * i;
            r.tbtMs = 30.0;
            r.maxTbtMs = 45.0;
            r.e2eMs = 500.0 + 0.02 * i;
            m.add(r);
        }
    };
    RequestMetrics a, b, ab, ba;
    a.setSketchMode(true);
    b.setSketchMode(true);
    ab.setSketchMode(true);
    ba.setSketchMode(true);
    fill(a, 0, 500);
    fill(b, 500, 1000);
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    const auto x = ab.ttftStats();
    const auto y = ba.ttftStats();
    EXPECT_EQ(x.count, y.count);
    EXPECT_DOUBLE_EQ(x.p50, y.p50);
    EXPECT_DOUBLE_EQ(x.p99, y.p99);
    EXPECT_DOUBLE_EQ(x.mean, y.mean);
}

TEST(RequestMetricsSketchTest, ModeSwitchAfterAddIsFatal)
{
    RequestMetrics m;
    RequestResult r;
    r.e2eMs = 1.0;
    m.add(r);
    EXPECT_THROW(m.setSketchMode(true), std::runtime_error);
}

}  // namespace
}  // namespace splitwise::metrics
