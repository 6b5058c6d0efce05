/**
 * @file
 * Tests for the benchmark's statistics code: percentiles and their
 * tail support, sample counts, share and ratio arithmetic, and
 * open-loop due-time accounting. Exits non-zero on the first failed
 * check; the benchmark command runs it before every measurement.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void
check(bool ok, const char* what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
        ++g_failures;
    }
}

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol;
}

#define CHECK(cond) check((cond), #cond, __LINE__)

void
testPercentiles()
{
    using perfbench::Samples;
    Samples empty;
    CHECK(empty.count() == 0);
    CHECK(empty.percentile(99.0) == 0.0);
    CHECK(empty.median() == 0.0);

    Samples one;
    one.add(7.0);
    CHECK(one.percentile(0.0) == 7.0);
    CHECK(one.percentile(99.0) == 7.0);

    // 1..100 inserted in reverse: order must not matter.
    Samples s;
    for (int v = 100; v >= 1; --v)
        s.add(v);
    CHECK(s.count() == 100);
    CHECK(near(s.percentile(0.0), 1.0));
    CHECK(near(s.percentile(100.0), 100.0));
    CHECK(near(s.median(), 50.5));
    // numpy.percentile(range(1, 101), 99) == 99.01
    CHECK(near(s.percentile(99.0), 99.01));
    CHECK(near(s.percentile(90.0), 90.1));
    CHECK(near(s.mean(), 50.5));
    CHECK(near(s.max(), 100.0));

    Samples even;
    for (double v : {4.0, 1.0, 3.0, 2.0})
        even.add(v);
    CHECK(near(even.median(), 2.5));

    bool threw = false;
    try {
        (void)s.percentile(101.0);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);

    const Samples ms = even.scaled(1e3);
    CHECK(ms.count() == 4);
    CHECK(near(ms.median(), 2500.0));

    Samples merged;
    merged.addAll(s);
    merged.addAll(even);
    CHECK(merged.count() == 104);
}

void
testTailSupport()
{
    using perfbench::samplesBeyond;
    using perfbench::tailSupported;
    // p99 needs 1000 samples for ten beyond it; 999 leaves nine.
    CHECK(samplesBeyond(99.0, 1000) == 10);
    CHECK(samplesBeyond(99.0, 999) == 9);
    CHECK(tailSupported(99.0, 1000));
    CHECK(!tailSupported(99.0, 999));
    CHECK(samplesBeyond(50.0, 20) == 10);
    CHECK(tailSupported(50.0, 20));
    CHECK(!tailSupported(50.0, 19));
    CHECK(samplesBeyond(99.9, 10000) == 10);
    CHECK(samplesBeyond(99.0, 0) == 0);
    CHECK(samplesBeyond(100.0, 50) == 0);
    CHECK(tailSupported(99.0, 500, 5));
}

void
testShares()
{
    using perfbench::perThousand;
    using perfbench::share;
    CHECK(near(share(1.0, 4.0), 0.25));
    CHECK(share(3.0, 0.0) == 0.0);
    CHECK(near(share(0.0, 5.0), 0.0));
    // 2 machine-hours over 4000 requests = 0.5 h per 1000.
    CHECK(near(perThousand(2.0, 4000.0), 0.5));
    CHECK(perThousand(2.0, 0.0) == 0.0);
    // failed share with its base: (failed + refused + shed) / attempted
    CHECK(near(share(2.0 + 1.0 + 7.0, 1000.0), 0.01));
}

void
testWindowMedians()
{
    using perfbench::windowMedians;
    // Three windows of width 1 from t = 0.5: [0.5,1.5) [1.5,2.5) [2.5,3.5).
    const std::vector<double> at = {0.5, 0.9, 1.4, 1.6, 2.0, 2.6, 3.4};
    const std::vector<double> val = {1.0, 3.0, 2.0, 10.0, 20.0, 5.0, 7.0};
    const perfbench::Samples all = windowMedians(at, val, 1.0, 1);
    CHECK(all.count() == 3);
    CHECK(near(all.percentile(0.0), 2.0));   // median of {1, 3, 2}
    CHECK(near(all.max(), 15.0));            // median of {10, 20}
    CHECK(near(all.median(), 6.0));          // median of {5, 7}
    // Windows below the minimum count drop out.
    CHECK(windowMedians(at, val, 1.0, 3).count() == 1);
    CHECK(windowMedians({}, {}, 1.0, 1).empty());
    bool threw = false;
    try {
        (void)windowMedians({1.0}, {}, 1.0, 1);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);
    // The sustained estimators read the contended mode of a bimodal
    // host, not the quiet spells.
    perfbench::Samples rates;
    for (double r : {60.0, 61.0, 59.0, 62.0, 100.0, 150.0, 58.0, 60.5, 59.5, 120.0})
        rates.add(r);
    const double rate = rates.percentile(perfbench::kSustainedRatePercentile);
    CHECK(rate >= 58.0 && rate <= 62.0);
    perfbench::Samples costs;
    for (double c : {1.0, 0.98, 1.02, 0.5, 1.01, 0.6, 0.99, 1.0, 0.97, 0.4})
        costs.add(c);
    const double cost = costs.percentile(perfbench::kSustainedCostPercentile);
    CHECK(cost >= 0.98 && cost <= 1.02);
}

void
testOpenLoop()
{
    using perfbench::OpenLoopSchedule;
    OpenLoopSchedule schedule({0.0, 0.1, 0.2, 0.3});
    CHECK(schedule.size() == 4);
    CHECK(schedule.unsent() == 4);
    CHECK(schedule.lateness().empty());
    // Early sends count as on time, late ones by how late.
    CHECK(schedule.recordSend(0, -0.01) == 0.0);
    CHECK(near(schedule.recordSend(1, 0.125), 0.025));
    CHECK(near(schedule.recordSend(2, 0.2), 0.0));
    CHECK(schedule.unsent() == 1);
    CHECK(schedule.lateness().count() == 3);
    CHECK(near(schedule.recordSend(3, 0.5), 0.2));
    CHECK(schedule.unsent() == 0);
    CHECK(schedule.lateness().count() == 4);
    CHECK(near(schedule.lateness().max(), 0.2));
    // p99 of {0, 0, 0.025, 0.2}: 0.025 + 0.97 * 0.175
    CHECK(near(schedule.lateness().percentile(99.0), 0.19475));
    // Response time runs from the due time, not the send time.
    CHECK(near(schedule.sinceDue(3, 0.75), 0.45));

    bool threw = false;
    try {
        OpenLoopSchedule unsorted({0.2, 0.1});
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);

    // Poisson schedules are seeded, sorted, inside the window, and
    // close to rate x duration.
    const OpenLoopSchedule a = OpenLoopSchedule::poisson(1000.0, 2.0, 7);
    const OpenLoopSchedule b = OpenLoopSchedule::poisson(1000.0, 2.0, 7);
    const OpenLoopSchedule c = OpenLoopSchedule::poisson(1000.0, 2.0, 8);
    CHECK(a.size() == b.size());
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i)
        same = a.due(i) == b.due(i);
    CHECK(same);
    CHECK(a.size() != c.size() || a.due(0) != c.due(0));
    CHECK(a.size() > 1800 && a.size() < 2200);
    CHECK(a.due(0) >= 0.0 && a.due(a.size() - 1) < 2.0);
}

}  // namespace

int
main()
{
    testPercentiles();
    testTailSupport();
    testShares();
    testWindowMedians();
    testOpenLoop();
    if (g_failures == 0)
        std::printf("stats_test: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
