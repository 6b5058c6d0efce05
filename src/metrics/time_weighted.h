#ifndef SPLITWISE_METRICS_TIME_WEIGHTED_H_
#define SPLITWISE_METRICS_TIME_WEIGHTED_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/flat_map.h"
#include "sim/time.h"

namespace splitwise::metrics {

/**
 * Time-weighted distribution of an integer-valued signal.
 *
 * Records how long a signal (e.g. the number of active batched
 * tokens on a machine) spent at each value, and answers CDF queries
 * of the form "fraction of time spent at value <= x". This is the
 * statistic behind the paper's Figures 4 and 17.
 *
 * record() and merge() are O(1) per value (a flat hash map). The
 * queries walk every distinct value - cdf() and mean() also sort
 * them - so they belong after a run, not on a per-event path.
 */
class TimeWeightedHistogram {
  public:
    /**
     * Record that the signal held @p value for @p duration.
     *
     * Zero or negative durations are ignored.
     */
    void record(std::int64_t value, sim::TimeUs duration);

    /** Total observed time. */
    sim::TimeUs totalTime() const { return total_; }

    /** Fraction of time spent at values <= @p value; 0 when empty. */
    double cdfAt(std::int64_t value) const;

    /** Time-weighted mean of the signal; 0 when empty. */
    double mean() const;

    /**
     * The full CDF as (value, cumulative fraction) steps in
     * ascending value order.
     */
    std::vector<std::pair<std::int64_t, double>> cdf() const;

    /** Merge another histogram into this one. */
    void merge(const TimeWeightedHistogram& other);

    /** Drop all recordings. */
    void clear();

  private:
    /** (value, time) pairs in ascending value order. */
    std::vector<std::pair<std::int64_t, sim::TimeUs>> sorted() const;

    sim::FlatMap<std::int64_t, sim::TimeUs> timeAt_;
    sim::TimeUs total_ = 0;
};

/**
 * Tracks a piecewise-constant signal over simulated time and feeds a
 * TimeWeightedHistogram.
 *
 * Call set() whenever the signal changes; finish() closes the last
 * segment at the end of the run.
 */
class SignalTracker {
  public:
    /** Start tracking with an initial value at time t0. */
    void
    start(sim::TimeUs t0, std::int64_t initial)
    {
        last_ = t0;
        value_ = initial;
        started_ = true;
    }

    /** Record a change of the signal to @p value at time @p now. */
    void set(sim::TimeUs now, std::int64_t value);

    /** Close the final segment at @p now. */
    void finish(sim::TimeUs now);

    /** The accumulated distribution. */
    const TimeWeightedHistogram& histogram() const { return hist_; }

    /** Current signal value. */
    std::int64_t value() const { return value_; }

  private:
    TimeWeightedHistogram hist_;
    sim::TimeUs last_ = 0;
    std::int64_t value_ = 0;
    bool started_ = false;
};

}  // namespace splitwise::metrics

#endif  // SPLITWISE_METRICS_TIME_WEIGHTED_H_
