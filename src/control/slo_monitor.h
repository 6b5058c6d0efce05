#ifndef SPLITWISE_CONTROL_SLO_MONITOR_H_
#define SPLITWISE_CONTROL_SLO_MONITOR_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "core/slo.h"
#include "metrics/request_metrics.h"
#include "model/llm_config.h"
#include "sim/time.h"

namespace splitwise::control {

/**
 * Sliding-window SLO signals the autoscaler steers by: P99 slowdowns
 * over recent completions, against the same uncontended DGX-A100
 * reference the paper's Table VI SLOs are defined over.
 */
struct WindowStats {
    /** Completions inside the window. */
    std::size_t samples = 0;
    /** P99 TTFT slowdown over the window (0 when empty). */
    double ttftP99Slowdown = 0.0;
    /** P99 TBT slowdown over the window (0 when empty). */
    double tbtP99Slowdown = 0.0;
    /** Completion rate over the window, requests/s. */
    double completionRps = 0.0;
};

/**
 * Nearest-rank P99 of @p values: the element of rank ceil(0.99 n) in
 * ascending order, found by selection in linear time. Reorders
 * @p values; 0 when empty.
 */
double nearestRankP99(std::vector<double>& values);

/**
 * Tracks per-request SLO slowdowns over a sliding time window.
 *
 * Feeds from the cluster's completion-ordered results vector through
 * a cursor, so each refresh() is incremental: new completions are
 * priced once, expired ones fall off the window's front.
 */
class SloMonitor {
  public:
    SloMonitor(const model::LlmConfig& llm, sim::TimeUs window_us);

    /**
     * Ingest completions recorded since the last call and return the
     * window's current signals at time @p now.
     */
    WindowStats refresh(const metrics::RequestMetrics& metrics,
                        sim::TimeUs now);

    /** The Table VI reference checker (shared with reporting). */
    const core::SloChecker& checker() const { return checker_; }

  private:
    struct Sample {
        sim::TimeUs completedAt = 0;
        double ttftSlowdown = 0.0;
        /** Negative when the request had no decode steps. */
        double tbtSlowdown = -1.0;
    };

    core::SloChecker checker_;
    sim::TimeUs windowUs_;
    std::size_t cursor_ = 0;
    std::deque<Sample> window_;
    /** Per-refresh selection scratch, capacity reused across ticks. */
    std::vector<double> ttft_;
    std::vector<double> tbt_;
};

}  // namespace splitwise::control

#endif  // SPLITWISE_CONTROL_SLO_MONITOR_H_
