#include "metrics/time_weighted.h"

#include <algorithm>

namespace splitwise::metrics {

void
TimeWeightedHistogram::record(std::int64_t value, sim::TimeUs duration)
{
    if (duration <= 0)
        return;
    timeAt_[value] += duration;
    total_ += duration;
}

std::vector<std::pair<std::int64_t, sim::TimeUs>>
TimeWeightedHistogram::sorted() const
{
    std::vector<std::pair<std::int64_t, sim::TimeUs>> out;
    out.reserve(timeAt_.size());
    timeAt_.forEach([&out](std::int64_t v, sim::TimeUs t) {
        out.emplace_back(v, t);
    });
    std::sort(out.begin(), out.end());
    return out;
}

double
TimeWeightedHistogram::cdfAt(std::int64_t value) const
{
    if (total_ == 0)
        return 0.0;
    // Integer sums are order-independent: no sort needed.
    sim::TimeUs acc = 0;
    timeAt_.forEach([&acc, value](std::int64_t v, sim::TimeUs t) {
        if (v <= value)
            acc += t;
    });
    return static_cast<double>(acc) / static_cast<double>(total_);
}

double
TimeWeightedHistogram::mean() const
{
    if (total_ == 0)
        return 0.0;
    // Floating-point sums are not: add in ascending value order so
    // the result does not depend on insertion history.
    double acc = 0.0;
    for (const auto& [v, t] : sorted())
        acc += static_cast<double>(v) * static_cast<double>(t);
    return acc / static_cast<double>(total_);
}

std::vector<std::pair<std::int64_t, double>>
TimeWeightedHistogram::cdf() const
{
    // Guard the empty window explicitly (like cdfAt/mean) so a
    // controller sampling an idle signal can never divide by a zero
    // total, whatever invariants the map happens to satisfy.
    if (total_ == 0)
        return {};
    const auto steps = sorted();
    std::vector<std::pair<std::int64_t, double>> out;
    out.reserve(steps.size());
    sim::TimeUs acc = 0;
    for (const auto& [v, t] : steps) {
        acc += t;
        out.emplace_back(v, static_cast<double>(acc) / static_cast<double>(total_));
    }
    return out;
}

void
TimeWeightedHistogram::merge(const TimeWeightedHistogram& other)
{
    other.timeAt_.forEach(
        [this](std::int64_t v, sim::TimeUs t) { timeAt_[v] += t; });
    total_ += other.total_;
}

void
TimeWeightedHistogram::clear()
{
    timeAt_.clear();
    total_ = 0;
}

void
SignalTracker::set(sim::TimeUs now, std::int64_t value)
{
    if (!started_) {
        start(now, value);
        return;
    }
    if (value == value_)
        return;
    hist_.record(value_, now - last_);
    last_ = now;
    value_ = value;
}

void
SignalTracker::finish(sim::TimeUs now)
{
    if (!started_)
        return;
    hist_.record(value_, now - last_);
    last_ = now;
}

}  // namespace splitwise::metrics
