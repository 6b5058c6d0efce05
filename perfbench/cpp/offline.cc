#include "offline.h"

#include <time.h>

#include <chrono>
#include <memory>
#include <stdexcept>

#include "core/report_io.h"
#include "probes.h"

namespace perfbench {

namespace {

using namespace splitwise;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU seconds consumed by the calling thread so far. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Sample the load-signal scan every this many time advances. */
constexpr std::uint64_t kScanEvery = 256;

}  // namespace

double
offlineSetupProbe(const Workload& workload, std::uint64_t seed)
{
    const double cpu0 = threadCpuSeconds();
    core::Cluster cluster(workload.llm, workload.design, workload.sim);
    Attachments attachments;
    if (workload.attach)
        workload.attach(cluster, seed, attachments);
    std::unique_ptr<workload::TraceStream> stream = workload.stream(seed);
    workload::Request first;
    if (!stream->next(first))
        throw std::runtime_error("offline setup probe: empty stream");
    return threadCpuSeconds() - cpu0;
}

OfflineRun
runOffline(const Workload& workload, std::uint64_t seed, bool traced)
{
    OfflineRun out;

    const auto t0 = Clock::now();
    core::SimConfig config = workload.sim;
    config.telemetry.spanTracking = traced;
    core::Cluster cluster(workload.llm, workload.design, config);
    Attachments attachments;
    if (workload.attach)
        workload.attach(cluster, seed, attachments);
    std::unique_ptr<workload::TraceStream> stream = workload.stream(seed);
    std::unique_ptr<TimedStream> timed;
    std::unique_ptr<SimProbe> probe;
    if (traced) {
        timed = std::make_unique<TimedStream>(*stream);
        probe = std::make_unique<SimProbe>(cluster, kScanEvery);
    }
    const auto t1 = Clock::now();
    const double cpu0 = threadCpuSeconds();
    out.report = cluster.run(timed ? static_cast<workload::TraceStream&>(*timed)
                                   : *stream);
    out.runCpuS = threadCpuSeconds() - cpu0;
    const auto t2 = Clock::now();
    if (attachments.autoscaler)
        attachments.autoscaler->fillReport(out.report);

    out.setupS = secondsBetween(t0, t1);
    out.runS = secondsBetween(t1, t2);
    out.events = cluster.simulator().executedEvents();
    out.liveHighWater = cluster.requestPool().highWater();
    out.clsShed = cluster.scheduler().shedRequests();
    if (traced) {
        out.advances = probe->advances();
        out.pendingPeak = probe->pendingPeak();
        out.routeScanUs = probe->routeScanUs();
        out.streamCalls = timed->calls();
        out.streamS = timed->seconds();
    }

    core::RunReport untraced_view = out.report;
    untraced_view.breakdown = {};
    out.digest = core::reportToJson(untraced_view);
    return out;
}

}  // namespace perfbench
