#include "probes.h"

#include <chrono>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

}  // namespace

bool
TimedStream::next(splitwise::workload::Request& out)
{
    const auto t0 = Clock::now();
    const bool more = inner_.next(out);
    ns_ += nsBetween(t0, Clock::now());
    ++calls_;
    return more;
}

SimProbe::SimProbe(splitwise::core::Cluster& cluster, std::uint64_t scan_every)
    : cluster_(cluster), scanEvery_(scan_every == 0 ? 1 : scan_every)
{
    cluster_.simulator().addTimeAdvanceHook(
        [this](splitwise::sim::TimeUs) { onAdvance(); });
}

void
SimProbe::onAdvance()
{
    ++advances_;
    const std::size_t pending = cluster_.simulator().pendingEvents();
    if (pending > pendingPeak_)
        pendingPeak_ = pending;
    if (advances_ % scanEvery_ != 0)
        return;
    // What a router reads to place one request: every routable
    // machine's prompt-queue depth and token load.
    const auto t0 = Clock::now();
    std::int64_t load = 0;
    const splitwise::core::ClusterScheduler& cls = cluster_.scheduler();
    for (const auto& machine : cluster_.machines()) {
        if (machine->failed() || machine->parked() ||
            !cls.contains(machine->id()))
            continue;
        load += machine->promptQueueDepthTokens() + machine->tokenLoadTokens();
    }
    routeScanUs_.add(nsBetween(t0, Clock::now()) * 1e-3);
    loadSink_ += load;
}

}  // namespace perfbench
