#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

namespace perfbench {

void
Samples::addAll(const Samples& other)
{
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double
Samples::percentile(double p) const
{
    if (values_.empty())
        return 0.0;
    if (p < 0.0 || p > 100.0)
        throw std::invalid_argument("percentile out of [0, 100]");
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
Samples::mean() const
{
    if (values_.empty())
        return 0.0;
    return std::accumulate(values_.begin(), values_.end(), 0.0) /
           static_cast<double>(values_.size());
}

double
Samples::max() const
{
    if (values_.empty())
        return 0.0;
    return *std::max_element(values_.begin(), values_.end());
}

Samples
Samples::scaled(double factor) const
{
    Samples out;
    out.values_.reserve(values_.size());
    for (const double v : values_)
        out.values_.push_back(v * factor);
    return out;
}

Samples
windowMedians(const std::vector<double>& at, const std::vector<double>& values,
              double width, std::size_t min_count)
{
    if (at.size() != values.size())
        throw std::invalid_argument("windowMedians: at/values differ in length");
    if (width <= 0.0)
        throw std::invalid_argument("windowMedians: width must be > 0");
    Samples out;
    if (at.empty())
        return out;
    const double origin = *std::min_element(at.begin(), at.end());
    std::vector<Samples> windows;
    for (std::size_t i = 0; i < at.size(); ++i) {
        const auto w = static_cast<std::size_t>((at[i] - origin) / width);
        if (w >= windows.size())
            windows.resize(w + 1);
        windows[w].add(values[i]);
    }
    for (const Samples& w : windows) {
        if (w.count() >= min_count && w.count() > 0)
            out.add(w.median());
    }
    return out;
}

std::size_t
samplesBeyond(double p, std::size_t count)
{
    // Samples ranked strictly above the percentile's position.
    // p * count / 100 exactly where representable (99.9% of 10000 is
    // 9990, not 9990.000000000002); the slack absorbs rounding.
    const double rank = p * static_cast<double>(count) / 100.0;
    const auto at_or_below = static_cast<std::size_t>(std::ceil(rank - 1e-9 * rank));
    return count > at_or_below ? count - at_or_below : 0;
}

bool
tailSupported(double p, std::size_t count, std::size_t min_beyond)
{
    return samplesBeyond(p, count) >= min_beyond;
}

double
share(double part, double whole)
{
    return whole == 0.0 ? 0.0 : part / whole;
}

double
perThousand(double value, double units)
{
    return units == 0.0 ? 0.0 : value / (units / 1000.0);
}

OpenLoopSchedule::OpenLoopSchedule(std::vector<double> due_s)
    : due_(std::move(due_s)), late_(due_.size(), -1.0)
{
    if (!std::is_sorted(due_.begin(), due_.end()))
        throw std::invalid_argument("open-loop due times must be sorted");
}

OpenLoopSchedule
OpenLoopSchedule::poisson(double rate, double duration_s, std::uint64_t seed)
{
    if (rate <= 0.0 || duration_s <= 0.0)
        throw std::invalid_argument("open-loop rate and duration must be > 0");
    std::mt19937_64 rng(seed);
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        // 53-bit uniform in [0, 1): portable, unlike the library
        // distributions whose algorithms are unspecified.
        const double u =
            static_cast<double>(rng() >> 11) * 0x1.0p-53;
        t += -std::log1p(-u) / rate;
        if (t >= duration_s)
            break;
        due.push_back(t);
    }
    return OpenLoopSchedule(std::move(due));
}

double
OpenLoopSchedule::recordSend(std::size_t index, double sent_s)
{
    const double late = std::max(0.0, sent_s - due_[index]);
    late_[index] = late;
    return late;
}

Samples
OpenLoopSchedule::lateness() const
{
    Samples out;
    for (const double late : late_) {
        if (late >= 0.0)
            out.add(late);
    }
    return out;
}

std::size_t
OpenLoopSchedule::unsent() const
{
    return static_cast<std::size_t>(
        std::count_if(late_.begin(), late_.end(),
                      [](double late) { return late < 0.0; }));
}

}  // namespace perfbench
