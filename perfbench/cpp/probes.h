#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_
/**
 * @file
 * Outside-in probes for the traced run: a timing decorator around the
 * TraceStream handed to Cluster::run, and a Simulator time-advance
 * hook that counts advances, tracks the pending-event peak, and
 * samples how long a read of every routable machine's load signals
 * takes. Nothing here reaches inside the simulator.
 */
#include <cstdint>

#include "core/cluster.h"
#include "stats.h"
#include "workload/trace_stream.h"

namespace perfbench {

/** Times every next() of the stream it wraps. */
class TimedStream final : public splitwise::workload::TraceStream {
  public:
    explicit TimedStream(splitwise::workload::TraceStream& inner)
        : inner_(inner)
    {
    }
    bool next(splitwise::workload::Request& out) override;

    std::uint64_t calls() const { return calls_; }
    double seconds() const { return ns_ * 1e-9; }

  private:
    splitwise::workload::TraceStream& inner_;
    std::uint64_t calls_ = 0;
    double ns_ = 0.0;
};

/**
 * Counters read from the simulator's time-advance hook. Install on a
 * cluster before run(); the probe must outlive the run.
 */
class SimProbe {
  public:
    /** @param scan_every Sample the route scan every Nth advance. */
    SimProbe(splitwise::core::Cluster& cluster, std::uint64_t scan_every);
    SimProbe(const SimProbe&) = delete;
    SimProbe& operator=(const SimProbe&) = delete;

    std::uint64_t advances() const { return advances_; }
    std::size_t pendingPeak() const { return pendingPeak_; }
    /** Host microseconds per full load-signal scan. */
    const Samples& routeScanUs() const { return routeScanUs_; }

  private:
    void onAdvance();

    splitwise::core::Cluster& cluster_;
    std::uint64_t scanEvery_;
    std::uint64_t advances_ = 0;
    std::size_t pendingPeak_ = 0;
    Samples routeScanUs_;
    /** Sink for the scanned load signals, so the reads stay. */
    std::int64_t loadSink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
