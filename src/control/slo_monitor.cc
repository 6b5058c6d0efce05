#include "control/slo_monitor.h"

#include <algorithm>

#include "sim/log.h"

namespace splitwise::control {

double
nearestRankP99(std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    const std::size_t rank =
        (values.size() * 99 + 99) / 100;  // ceil(n * 0.99)
    const auto nth =
        values.begin() + static_cast<std::ptrdiff_t>(
                             std::min(rank, values.size()) - 1);
    std::nth_element(values.begin(), nth, values.end());
    return *nth;
}

SloMonitor::SloMonitor(const model::LlmConfig& llm, sim::TimeUs window_us)
    : checker_(llm), windowUs_(window_us)
{
    if (window_us <= 0)
        sim::fatal("SloMonitor: window must be positive");
}

WindowStats
SloMonitor::refresh(const metrics::RequestMetrics& metrics, sim::TimeUs now)
{
    const auto& results = metrics.results();
    for (; cursor_ < results.size(); ++cursor_) {
        const auto& r = results[cursor_];
        Sample s;
        s.completedAt = r.arrival + sim::msToUs(r.e2eMs);
        s.ttftSlowdown = r.ttftMs / checker_.refTtftMs(r.promptTokens);
        if (r.outputTokens > 1) {
            const std::int64_t mean_ctx = r.promptTokens + r.outputTokens / 2;
            s.tbtSlowdown = r.tbtMs / checker_.refTbtMs(mean_ctx);
        }
        window_.push_back(s);
    }
    const sim::TimeUs horizon = now - windowUs_;
    while (!window_.empty() && window_.front().completedAt < horizon)
        window_.pop_front();

    WindowStats stats;
    stats.samples = window_.size();
    if (window_.empty())
        return stats;

    ttft_.clear();
    tbt_.clear();
    for (const auto& s : window_) {
        ttft_.push_back(s.ttftSlowdown);
        if (s.tbtSlowdown >= 0.0)
            tbt_.push_back(s.tbtSlowdown);
    }
    stats.ttftP99Slowdown = nearestRankP99(ttft_);
    stats.tbtP99Slowdown = nearestRankP99(tbt_);
    stats.completionRps =
        static_cast<double>(window_.size()) / sim::usToSeconds(windowUs_);
    return stats;
}

}  // namespace splitwise::control
