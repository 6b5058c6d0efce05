#ifndef PERFBENCH_OFFLINE_H_
#define PERFBENCH_OFFLINE_H_
/**
 * @file
 * The offline (simulated) phase: build a workload's cluster, attach
 * its controller and faults, and run its seeded stream through
 * Cluster::run, timing set-up and run on the host clock.
 */
#include <cstdint>
#include <string>

#include "core/cluster.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

struct OfflineRun {
    splitwise::core::RunReport report;
    /** Host seconds to build cluster, policy, controller, faults, stream. */
    double setupS = 0.0;
    /** Host seconds inside Cluster::run, wall clock. */
    double runS = 0.0;
    /** CPU seconds of the thread inside Cluster::run. */
    double runCpuS = 0.0;
    std::uint64_t events = 0;
    std::size_t liveHighWater = 0;
    /** Arrivals the CLS shed at admission. */
    std::uint64_t clsShed = 0;
    /**
     * The run's simulated outcome as text (report JSON without the
     * span breakdown): equal strings mean identical simulations.
     */
    std::string digest;

    // Traced runs only.
    std::uint64_t advances = 0;
    std::size_t pendingPeak = 0;
    Samples routeScanUs;
    std::uint64_t streamCalls = 0;
    double streamS = 0.0;
};

/**
 * One offline repetition of @p workload under @p seed. @p traced
 * switches on span tracking, the stream decorator and the
 * time-advance probe.
 */
OfflineRun runOffline(const Workload& workload, std::uint64_t seed, bool traced);

/**
 * Host CPU seconds to build @p workload's cluster, policy, controller,
 * faults and stream and pull its first request, without running it.
 */
double offlineSetupProbe(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_OFFLINE_H_
