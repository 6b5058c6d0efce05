#ifndef PERFBENCH_LIVE_H_
#define PERFBENCH_LIVE_H_
/**
 * @file
 * The live phase: a workload's design and policy served in-process by
 * core::Ingress + server::CompletionService + server::HttpServer on an
 * ephemeral loopback port, with core::runLive under a SimClock, driven
 * by at most four client threads over HTTP. An open-loop phase at a
 * fixed rate times each request from when it was due; a closed-loop
 * phase measures stream throughput. The captured session is replayed
 * through core::replay and must reproduce the live report exactly.
 */
#include <cstdint>
#include <memory>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

/** Outcome counts of HTTP streams, with their base (attempted). */
struct StreamCounts {
    std::uint64_t attempted = 0;
    /** Ran to a finished record (including cancelled streams). */
    std::uint64_t finished = 0;
    /** Ended in a rejected record: shed by admission control. */
    std::uint64_t shed = 0;
    std::uint64_t cancelled = 0;
    /** Abandoned by the client mid-stream, as the mix asks. */
    std::uint64_t aborted = 0;
    std::uint64_t connectErrors = 0;
    /** Responses other than 200 and 503. */
    std::uint64_t non200 = 0;
    /** 503: refused because serving was shutting down. */
    std::uint64_t refused = 0;
    /** 200 streams that closed without a terminal record. */
    std::uint64_t noTerminal = 0;
    /** Unparseable records, falling token counts, failed DELETEs. */
    std::uint64_t badRecords = 0;

    void merge(const StreamCounts& other);
    /** Operations that went wrong (shed and refused are outcomes). */
    std::uint64_t failures() const
    {
        return connectErrors + non200 + noTerminal + badRecords;
    }
};

struct LiveStats {
    /** Open loop over HTTP: time from due to first token record, ms. */
    Samples httpTtftMs;
    /** The same, as medians of kTtftWindowS-wide windows of due time. */
    Samples httpTtftWindowMs;
    /** Open-loop generator lateness over HTTP, ms. */
    Samples lateMs;
    std::size_t openScheduled = 0;
    /** Some open-loop request went unsent, or pooled p99 lateness was too high. */
    bool behind = false;

    /** Closed loop: streams completed per host second, per window. */
    Samples streamRps;
    std::uint64_t closedStreams = 0;

    StreamCounts counts;
    std::uint64_t metricsReads = 0;
    std::uint64_t metricsErrors = 0;

    /** Accepted ingress requests never resolved after drain. */
    std::uint64_t leaked = 0;
    /** core::replay of the capture reproduced the live report JSON. */
    bool replayIdentical = false;
    std::uint64_t liveCompleted = 0;
    std::size_t replayRequests = 0;
    double replayS = 0.0;

    // Traced runs only.
    Samples connectUs;
    Samples handlerMs;
    Samples ingressTtftMs;
    Samples ingressSubmitUs;
    Samples ingressInspectMs;
    long threadsPeak = 0;
};

/**
 * Client threads and connections: the process's CPUs, at most four.
 * Four clients on the benchmark's two CPUs made the HTTP figures
 * bimodal run to run; one per CPU repeated.
 */
int clientThreads();

class LiveStack;
struct LiveRequests;

/**
 * One live stack serving @p workload, driven in segments so a run can
 * interleave them with offline repetitions and sample the host over
 * its whole length. Construction brings the stack up and runs
 * unmeasured warm-up streams; finish() drains, checks for leaks and
 * replays the capture. Destruction without finish() still stops every
 * thread.
 */
class LiveSession {
  public:
    LiveSession(const Workload& workload, std::uint64_t seed, bool traced);
    ~LiveSession();
    LiveSession(const LiveSession&) = delete;
    LiveSession& operator=(const LiveSession&) = delete;

    /** An open-loop segment over HTTP at the workload's rate. */
    void openLoop(double seconds);
    /** One closed-loop window of @p streams streams: one rate sample. */
    void closedLoop(std::size_t streams);
    /** An open-loop segment straight through Ingress::submit (traced). */
    void ingressOpenLoop(double seconds);
    /** Drain, check and replay; call once. */
    LiveStats finish();

  private:
    const Workload& workload_;
    std::uint64_t seed_;
    bool traced_;
    std::unique_ptr<LiveRequests> requests_;
    std::unique_ptr<LiveStack> stack_;
    LiveStats stats_;
    /** Next request index across all segments and windows. */
    std::size_t nextIndex_ = 0;
    std::uint64_t segments_ = 0;
    /** Open-loop requests never sent, over every segment. */
    std::size_t unsent_ = 0;
    /** Lateness of the Ingress::submit open loop, ms. */
    Samples ingressLateMs_;
};

/**
 * Host seconds to bring the live stack up — cluster, ingress, service,
 * server bind, serve thread — until the first request streams its
 * first token over HTTP. Tears the stack down again.
 */
double liveSetupProbe(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LIVE_H_
