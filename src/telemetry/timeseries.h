#ifndef SPLITWISE_TELEMETRY_TIMESERIES_H_
#define SPLITWISE_TELEMETRY_TIMESERIES_H_

#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "telemetry/metrics_registry.h"

namespace splitwise::telemetry {

/**
 * A sampled table of cluster metrics over simulated time: one row
 * per sample, first column "t_s" (simulated seconds), then one
 * column per registry entry in registration order.
 *
 * Plain data, cheap to copy into a RunReport and hand to external
 * plotting tools via toCsv()/toJson().
 */
struct TimeSeries {
    std::vector<std::string> columns;
    std::vector<std::vector<double>> rows;

    bool empty() const { return rows.empty(); }

    /** Index of @p name in columns; -1 when absent. */
    int columnIndex(const std::string& name) const;

    /** All samples of one column, in row order. */
    std::vector<double> column(const std::string& name) const;

    /** CSV with a header line. */
    std::string toCsv() const;

    /**
     * JSON object: columns, rows, and a per-column summary
     * (mean/min/max plus an equal-width histogram of
     * @p histogram_buckets buckets).
     */
    std::string toJson(std::size_t histogram_buckets = 8) const;

    /** Write toCsv() to @p path. */
    void writeCsv(const std::string& path) const;
};

/**
 * Samples a MetricsRegistry on a fixed simulated-time grid, plus
 * on-event samples at caller-chosen instants (fault epochs).
 *
 * The sampler observes the event loop through the Simulator's
 * time-advance hook rather than scheduling its own events: a
 * self-rescheduling sample event would keep the queue from ever
 * draining, and the hook costs the loop one branch when unused. Grid
 * samples for every interval boundary crossed by a time advance are
 * emitted before the advancing event executes, so each row captures
 * the cluster state that was current at that boundary.
 */
class TimeSeriesSampler {
  public:
    /** @param interval_us Grid spacing; must be positive. */
    TimeSeriesSampler(sim::Simulator& simulator,
                      const MetricsRegistry& registry,
                      sim::TimeUs interval_us);

    /** Install the simulator hook and emit the t=0 row. */
    void install();

    /** On-event sample at the current simulated time. */
    void sampleNow();

    /**
     * Emit the final row at the current simulated time and detach
     * from the simulator.
     */
    void finish();

    sim::TimeUs intervalUs() const { return interval_; }

    const TimeSeries& series() const { return series_; }

  private:
    void onAdvance(sim::TimeUs next);
    void emitRow(sim::TimeUs t);

    sim::Simulator& simulator_;
    const MetricsRegistry& registry_;
    sim::TimeUs interval_;
    /** Set between install() and finish(). */
    std::optional<sim::Simulator::HookId> hook_;
    sim::TimeUs nextSample_ = 0;
    sim::TimeUs lastRowTs_ = -1;
    TimeSeries series_;
};

}  // namespace splitwise::telemetry

#endif  // SPLITWISE_TELEMETRY_TIMESERIES_H_
