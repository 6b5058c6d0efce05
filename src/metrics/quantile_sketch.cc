#include "metrics/quantile_sketch.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace splitwise::metrics {

QuantileSketch::QuantileSketch(double alpha) : alpha_(alpha) {
    if (!(alpha > 0.0) || !(alpha < 1.0)) {
        sim::fatal("QuantileSketch alpha must be in (0, 1)");
    }
    gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
    logGamma_ = std::log(gamma_);
}

std::int32_t QuantileSketch::indexOf(double value) const {
    return static_cast<std::int32_t>(std::ceil(std::log(value) / logGamma_));
}

double QuantileSketch::valueOf(std::int32_t index) const {
    // Geometric midpoint of (gamma^(i-1), gamma^i]: the estimate is
    // within a factor (1 +/- alpha) of any sample in the bucket.
    return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void QuantileSketch::cover(std::int32_t lo, std::int32_t hi) {
    if (counts_.empty()) {
        offset_ = lo;
        counts_.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
        return;
    }
    const std::int32_t top =
        offset_ + static_cast<std::int32_t>(counts_.size()) - 1;
    if (hi > top) {
        counts_.resize(counts_.size() + static_cast<std::size_t>(hi - top));
    }
    if (lo < offset_) {
        counts_.insert(counts_.begin(),
                       static_cast<std::size_t>(offset_ - lo), 0);
        offset_ = lo;
    }
}

void QuantileSketch::add(double value) {
    // A non-finite sample has no bucket: the cast in indexOf() would
    // be undefined, and the dense store would be sized from it.
    if (!std::isfinite(value)) {
        sim::fatal("QuantileSketch: non-finite sample");
    }
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    if (value <= 0.0) {
        ++zeroCount_;
    } else {
        const std::int32_t index = indexOf(value);
        cover(index, index);
        ++counts_[static_cast<std::size_t>(index - offset_)];
    }
}

void QuantileSketch::merge(const QuantileSketch& other) {
    if (other.alpha_ != alpha_) {
        sim::fatal("QuantileSketch merge with mismatched alpha");
    }
    if (other.count_ == 0) return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    zeroCount_ += other.zeroCount_;
    if (other.counts_.empty()) return;
    cover(other.offset_,
          other.offset_ + static_cast<std::int32_t>(other.counts_.size()) - 1);
    const auto shift = static_cast<std::size_t>(other.offset_ - offset_);
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
        counts_[shift + i] += other.counts_[i];
    }
}

double QuantileSketch::mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double QuantileSketch::min() const { return count_ == 0 ? 0.0 : min_; }

double QuantileSketch::max() const { return count_ == 0 ? 0.0 : max_; }

double QuantileSketch::percentile(double p) const {
    if (std::isnan(p)) return p;
    if (count_ == 0) return 0.0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    // Same fractional-rank convention as Summary::percentile; the
    // walk below locates the bucket holding that order statistic.
    const double rank =
        clamped / 100.0 * static_cast<double>(count_ - 1);
    // The extreme order statistics are tracked exactly - return them
    // rather than a bucket midpoint, matching Summary's p0/p100.
    if (rank <= 0.0) return min_;
    if (rank >= static_cast<double>(count_ - 1)) return max_;
    std::uint64_t seen = zeroCount_;
    double estimate = 0.0;
    if (rank >= static_cast<double>(seen)) {
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (rank < static_cast<double>(seen)) {
                estimate = valueOf(offset_ + static_cast<std::int32_t>(i));
                break;
            }
        }
        if (rank >= static_cast<double>(seen)) estimate = max_;
    }
    return std::clamp(estimate, min_, max_);
}

std::size_t QuantileSketch::bucketCount() const {
    return static_cast<std::size_t>(
        std::count_if(counts_.begin(), counts_.end(),
                      [](std::uint64_t n) { return n != 0; }));
}

void QuantileSketch::clear() {
    counts_ = {};
    offset_ = 0;
    zeroCount_ = 0;
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

}  // namespace splitwise::metrics
