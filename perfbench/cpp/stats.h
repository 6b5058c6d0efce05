#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_
/**
 * @file
 * The benchmark's own statistics: sample percentiles with their tail
 * support, share/ratio arithmetic, and open-loop due-time accounting.
 * Kept free of any splitwise dependency so tests/stats_test.cc pins
 * it in isolation.
 */
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** A bag of measurements; order-independent statistics over it. */
class Samples {
  public:
    void add(double value) { values_.push_back(value); }
    void addAll(const Samples& other);
    std::size_t count() const { return values_.size(); }
    bool empty() const { return values_.empty(); }

    /**
     * Percentile @p p in [0, 100], linear interpolation between the
     * closest ranks (numpy's default). 0 for an empty bag.
     */
    double percentile(double p) const;
    double median() const { return percentile(50.0); }
    double mean() const;
    double max() const;
    /** Every sample multiplied by @p factor (unit conversion). */
    Samples scaled(double factor) const;

  private:
    std::vector<double> values_;
};

/**
 * Repeated host timings of simulator work on a shared virtual machine
 * are bimodal: a steady contended speed, and quiet spells of varying
 * length and speed-up when neighbours idle. The contended side repeats
 * from run to run while the median and the fast side move with the
 * quiet spells, so these costs are summarised as the sustained value:
 * the 80th percentile of a cost, the 20th of a rate, over many samples
 * spread across the run.
 */
inline constexpr double kSustainedCostPercentile = 80.0;
inline constexpr double kSustainedRatePercentile = 20.0;

/**
 * The median of @p values in each window of @p width along @p at
 * (parallel vectors; windows start at the smallest @p at). Windows
 * with fewer than @p min_count values are skipped.
 */
Samples windowMedians(const std::vector<double>& at, const std::vector<double>& values,
                      double width, std::size_t min_count);

/** Samples of @p count that lie strictly above the @p p-th percentile's rank. */
std::size_t samplesBeyond(double p, std::size_t count);

/**
 * True when @p count samples leave at least @p min_beyond samples
 * beyond percentile @p p — the support a reported tail needs.
 */
bool tailSupported(double p, std::size_t count, std::size_t min_beyond = 10);

/** @p part / @p whole, 0 when @p whole is 0. */
double share(double part, double whole);

/** @p value per 1000 of @p units, 0 when @p units is 0. */
double perThousand(double value, double units);

/**
 * Due-time accounting of an open-loop load generator. Requests are
 * due at fixed offsets from the schedule start, independent of how
 * the system responds; latency is timed from the due time, so a stall
 * that delays later sends is charged to them, and the generator's own
 * lateness (send time minus due time) is kept to tell a slow system
 * from a slow generator.
 *
 * recordSend() may run on several sender threads as long as each
 * index is recorded by exactly one of them.
 */
class OpenLoopSchedule {
  public:
    explicit OpenLoopSchedule(std::vector<double> due_s);

    /** Poisson arrivals at @p rate per second over @p duration_s, seeded. */
    static OpenLoopSchedule poisson(double rate, double duration_s,
                                    std::uint64_t seed);

    std::size_t size() const { return due_.size(); }
    double due(std::size_t index) const { return due_[index]; }

    /** Request @p index was sent at @p sent_s; returns its lateness (>= 0). */
    double recordSend(std::size_t index, double sent_s);

    /** Time from request @p index's due time to @p at_s. */
    double sinceDue(std::size_t index, double at_s) const
    {
        return at_s - due_[index];
    }

    /** Lateness of every recorded send, seconds. */
    Samples lateness() const;

    /** Indices never recorded as sent. */
    std::size_t unsent() const;

  private:
    std::vector<double> due_;
    /** Lateness per index; negative = not sent. */
    std::vector<double> late_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
