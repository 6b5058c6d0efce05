#ifndef SPLITWISE_METRICS_QUANTILE_SKETCH_H_
#define SPLITWISE_METRICS_QUANTILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace splitwise::metrics {

/**
 * Streaming quantile sketch with bounded relative error
 * (DDSketch-style logarithmic buckets).
 *
 * Values are folded into geometrically spaced buckets of ratio
 * gamma = (1 + alpha) / (1 - alpha); any percentile estimate is
 * within a factor (1 +/- alpha) of the true order statistic, while
 * memory stays O(log(max/min) / alpha) buckets regardless of sample
 * count - the scaling answer to Summary's exact sample store at
 * 10^6+ requests.
 *
 * The API mirrors the used surface of Summary (add/merge/count/
 * mean/min/max/sum/percentile/p50/p90/p99/clear) so reporting code
 * can run on either backend. count, sum, mean, min, and max are
 * tracked exactly; only interior percentiles are approximate.
 *
 * Merging adds bucket counts, so merged results are independent of
 * merge order and thread count - the property the jobs-1-vs-8
 * byte-identical report gate relies on.
 */
class QuantileSketch {
  public:
    /** @param alpha Relative-error bound; must be in (0, 1). */
    explicit QuantileSketch(double alpha = 0.005);

    /**
     * Add one sample. Non-positive values land in the zero bucket; a
     * NaN or infinite sample is fatal.
     */
    void add(double value);

    /** Merge another sketch; alphas must match (fatal otherwise). */
    void merge(const QuantileSketch& other);

    /** Number of samples recorded (exact). */
    std::size_t count() const { return count_; }

    /** True when no samples have been recorded. */
    bool empty() const { return count_ == 0; }

    /** Arithmetic mean (exact); 0 when empty. */
    double mean() const;

    /** Smallest sample (exact); 0 when empty. */
    double min() const;

    /** Largest sample (exact); 0 when empty. */
    double max() const;

    /** Sum of all samples (exact). */
    double sum() const { return sum_; }

    /**
     * Percentile estimate within the relative-error bound, clamped
     * to the exact [min, max] envelope.
     *
     * @param p Percentile in [0, 100]; out-of-range values clamp to
     *     the bounds. 0 when empty; NaN when @p p is NaN (matching
     *     Summary).
     */
    double percentile(double p) const;

    /** Shorthand for common percentiles. */
    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }

    /** Drop all samples (bucket storage is released). */
    void clear();

    /** Configured relative-error bound. */
    double alpha() const { return alpha_; }

    /** Occupied (non-empty) bucket count. */
    std::size_t bucketCount() const;

    /**
     * Buckets the dense store holds, empty ones included: the span
     * from the lowest to the highest occupied bucket. This is the
     * sketch's memory footprint.
     */
    std::size_t storeSize() const { return counts_.size(); }

  private:
    /** Bucket index of a positive value. */
    std::int32_t indexOf(double value) const;

    /** Representative value of a bucket (geometric midpoint). */
    double valueOf(std::int32_t index) const;

    /** Widen the dense store so it covers [lo, hi]. */
    void cover(std::int32_t lo, std::int32_t hi);

    double alpha_;
    double gamma_;
    double logGamma_;
    /**
     * DDSketch's dense store: counts_[i] holds bucket offset_ + i, so
     * the log-spaced buckets sit in index order for the cumulative
     * walk percentile() does. Empty until the first positive sample.
     */
    std::vector<std::uint64_t> counts_;
    std::int32_t offset_ = 0;
    /** Samples <= 0 (latencies can legitimately be zero). */
    std::uint64_t zeroCount_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace splitwise::metrics

#endif  // SPLITWISE_METRICS_QUANTILE_SKETCH_H_
