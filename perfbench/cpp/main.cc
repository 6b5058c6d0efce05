/**
 * @file
 * perfbench: the repository's benchmark driver.
 *
 *   perfbench --workload <fleet|sessions|burst|live> --seed <n>
 *             --seconds <s> --trace <0|1>
 *
 * --trace 0 measures the end-to-end metrics with every probe off: stack
 * set-up probes, then rounds of offline repetitions of the workload's
 * seeded stream through Cluster::run (half the budget in all) and live
 * HTTP segments (open loop, closed-loop windows), so host metrics
 * sample the whole run. --trace 1 runs one untraced and one traced
 * offline repetition plus a traced live phase and reports the
 * per-layer metrics. Either way the correctness checks
 * run, a table of every metric with its unit, clock and sample count
 * is printed, and the last line is one JSON object:
 *
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 *
 * The exit code is 0 only when every check passed.
 */
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "core/slo.h"
#include "live.h"
#include "offline.h"
#include "stats.h"
#include "telemetry/span_tracker.h"
#include "workloads.h"

namespace {

using namespace splitwise;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/** Share of --seconds the offline repetitions get in an untraced run. */
constexpr double kOfflineShare = 0.5;
/** Share of --seconds for the live open loop. */
constexpr double kOpenShare = 0.25;
/** Rounds of (offline repetitions, open-loop segment, closed-loop windows). */
constexpr int kRounds = 8;
constexpr int kClosedWindowsPerRound = 2;
/**
 * Closed-loop streams over all windows: a fixed amount of work, since
 * every stream leaves its connection thread's stack resident until the
 * server stops and memory use must repeat.
 */
constexpr std::size_t kClosedStreams = 4000;
/** Offline repetitions at least, whatever the budget. */
constexpr std::size_t kMinReps = 2;
/** CPUs the benchmark process runs on. */
constexpr int kPinnedCpus = 2;
/** Stack bring-ups timed for setup_s. */
constexpr int kSetupProbes = 21;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed") {
                args.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value);
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload.empty() || !have_seed || args.seconds <= 0.0 ||
        (args.trace != 0 && args.trace != 1))
        usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
    return args;
}

/**
 * Confine the process to the first kPinnedCpus CPUs it may use. On a
 * shared virtual machine, cross-CPU wake-ups made the live figures
 * bimodal run to run; on a fixed pair of CPUs, load generator and
 * server share one CPU budget and repeat.
 */
void
pinCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    int taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < kPinnedCpus; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &pinned);
            ++taken;
        }
    }
    if (taken > 0)
        sched_setaffinity(0, sizeof pinned, &pinned);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

/** One reported metric with its unit, clock and sample count. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string clock;
    std::size_t samples = 0;
};

/** Correctness checks; any failure makes the run incorrect. */
class Checks {
  public:
    void
    expect(bool ok, const std::string& what)
    {
        std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
        ok_ = ok_ && ok;
    }
    bool ok() const { return ok_; }

  private:
    bool ok_ = true;
};

/** Paid machine-hours over both pools. */
double
machineHours(const core::RunReport& r)
{
    return sim::usToSeconds(r.promptPool.poweredUs + r.tokenPool.poweredUs) / 3600.0;
}

double
energyWh(const core::RunReport& r)
{
    return r.promptPool.energyWh + r.promptPool.idleEnergyWh +
           r.tokenPool.energyWh + r.tokenPool.idleEnergyWh;
}

/** Request conservation: every submitted request completed or was shed. */
bool
conserved(const OfflineRun& run)
{
    const core::RunReport& r = run.report;
    return r.submitted > 0 && r.requests.completed() + r.rejected == r.submitted;
}

/** Checks on the live phase, and its failure accounting. */
void
checkLive(const LiveStats& live, Checks& checks)
{
    const StreamCounts& c = live.counts;
    std::printf("live streams: attempted=%llu finished=%llu shed=%llu cancelled=%llu "
                "aborted=%llu | connect_errors=%llu non_200=%llu no_terminal=%llu "
                "bad_records=%llu refused=%llu | metrics_reads=%llu metrics_errors=%llu\n",
                (unsigned long long)c.attempted, (unsigned long long)c.finished,
                (unsigned long long)c.shed, (unsigned long long)c.cancelled,
                (unsigned long long)c.aborted, (unsigned long long)c.connectErrors,
                (unsigned long long)c.non200, (unsigned long long)c.noTerminal,
                (unsigned long long)c.badRecords, (unsigned long long)c.refused,
                (unsigned long long)live.metricsReads,
                (unsigned long long)live.metricsErrors);
    std::printf("live generator: scheduled=%zu late_ms_p99=%.4f late_ms_max=%.4f%s\n",
                live.openScheduled, live.lateMs.percentile(99.0), live.lateMs.max(),
                live.behind ? " (BEHIND SCHEDULE)" : "");
    std::printf("live drain: leaked=%llu live_completed=%llu replay_requests=%zu "
                "replay_s=%.4f\n",
                (unsigned long long)live.leaked, (unsigned long long)live.liveCompleted,
                live.replayRequests, live.replayS);
    checks.expect(live.leaked == 0, "live: zero requests leak");
    checks.expect(c.failures() == 0 && c.refused == 0,
                  "live: every stream ends in a terminal record, monotone");
    checks.expect(live.metricsErrors == 0, "live: GET /v1/metrics answers");
    checks.expect(live.replayIdentical, "live: core::replay reproduces the live report");
    checks.expect(!live.behind, "live: open-loop generator kept its schedule");
    checks.expect(live.openScheduled > 0 && live.httpTtftMs.count() > 0,
                  "live: open loop produced first tokens");
}

/** Offline failure accounting per phase. */
void
printOfflineAccounting(const OfflineRun& run)
{
    const core::RunReport& r = run.report;
    std::printf("offline requests: attempted=%zu succeeded=%zu failed=%llu | "
                "admission_shed=%llu kv_aborts=%llu restarts=%llu preemptions=%llu\n",
                r.submitted, r.requests.completed(),
                (unsigned long long)(r.submitted - r.requests.completed()),
                (unsigned long long)r.rejected,
                (unsigned long long)r.transfers.transferAborts,
                (unsigned long long)r.restarts, (unsigned long long)r.preemptions);
}

/** The spread of one host metric's samples within this run. */
void
printHostSamples(const char* name, const Samples& samples)
{
    std::printf("host samples %-24s n=%-4zu p10 %.6g p20 %.6g p50 %.6g p80 %.6g p90 %.6g\n",
                name, samples.count(), samples.percentile(10.0), samples.percentile(20.0),
                samples.median(), samples.percentile(80.0), samples.percentile(90.0));
}

void
printTable(const std::vector<Metric>& metrics)
{
    std::printf("%-34s %16s %-8s %-10s %s\n", "metric", "value", "unit", "clock",
                "samples");
    for (const Metric& m : metrics) {
        std::printf("%-34s %16.6g %-8s %-10s %zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.clock.c_str(), m.samples);
    }
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

/** Span metrics: share of attributed E2E time for every phase. */
void
addSpanMetrics(const telemetry::LatencyBreakdown& b, std::vector<Metric>& out)
{
    static const telemetry::SpanPhase kTimed[] = {
        telemetry::SpanPhase::kQueue, telemetry::SpanPhase::kPrefill,
        telemetry::SpanPhase::kKvTransfer, telemetry::SpanPhase::kDecode};
    for (int p = 0; p < telemetry::kSpanPhaseCount; ++p) {
        const auto phase = static_cast<telemetry::SpanPhase>(p);
        const std::string name = telemetry::spanPhaseName(phase);
        const telemetry::PhaseStat* stat = nullptr;
        for (const telemetry::PhaseStat& s : b.phases) {
            if (s.phase == phase)
                stat = &s;
        }
        const double total = stat ? stat->totalMs : 0.0;
        const std::size_t reqs = stat ? stat->requests : 0;
        out.push_back({"span." + name + ".share", share(total, b.attributedTotalMs),
                       "share", "simulated", reqs});
        for (const telemetry::SpanPhase timed : kTimed) {
            if (timed != phase)
                continue;
            out.push_back({"span." + name + ".mean_ms", stat ? stat->meanMs : 0.0,
                           "ms", "simulated", reqs});
            out.push_back({"span." + name + ".p99_ms", stat ? stat->p99Ms : 0.0, "ms",
                           "simulated", reqs});
        }
    }
}

int
runUntraced(const Args& args, const Workload& w)
{
    Checks checks;
    Samples setup_s;
    for (int i = 0; i < kSetupProbes; ++i) {
        setup_s.add(w.httpSetup ? liveSetupProbe(w, args.seed)
                                : offlineSetupProbe(w, args.seed));
    }

    // Offline repetitions and live segments alternate in kRounds
    // rounds, so every host metric samples the whole run.
    LiveSession session(w, args.seed, false);
    const double round_open_s = kOpenShare * args.seconds / kRounds;
    const std::size_t closed_per_window = kClosedStreams / (kRounds * kClosedWindowsPerRound);
    Samples sim_rps;
    // Keep the first repetition's report; later ones must match it.
    OfflineRun first;
    std::size_t rep_count = 0;
    bool deterministic = true;
    bool all_conserved = true;
    const double offline_budget_s = kOfflineShare * args.seconds;
    double offline_used_s = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        // Spread the offline budget evenly over the rounds; a
        // repetition longer than a round's share runs in fewer rounds.
        const double due_s = offline_budget_s * (round + 1) / kRounds;
        // The first round always runs one, and the last one more if
        // fewer than kMinReps ran.
        bool forced = rep_count == 0 || (round == kRounds - 1 && rep_count < kMinReps);
        while (forced || offline_used_s < due_s) {
            forced = false;
            const auto rep_start = Clock::now();
            OfflineRun rep = runOffline(w, args.seed, false);
            all_conserved = all_conserved && conserved(rep);
            sim_rps.add(
                share(static_cast<double>(rep.report.requests.completed()), rep.runCpuS));
            if (rep_count == 0)
                first = std::move(rep);
            else
                deterministic = deterministic && rep.digest == first.digest;
            ++rep_count;
            offline_used_s += std::chrono::duration<double>(Clock::now() - rep_start).count();
        }
        session.openLoop(round_open_s);
        for (int k = 0; k < kClosedWindowsPerRound; ++k)
            session.closedLoop(closed_per_window);
    }
    const LiveStats live = session.finish();
    printHostSamples("setup_s", setup_s);
    printHostSamples("sim_req_per_s", sim_rps);
    printHostSamples("http_ttft_window_p50_ms", live.httpTtftWindowMs);
    printHostSamples("http_stream_window_rps", live.streamRps);
    checks.expect(all_conserved, "offline: completed + shed == submitted, every rep");
    checks.expect(deterministic, "offline: every repetition simulates identically");
    printOfflineAccounting(first);
    checkLive(live, checks);

    const core::RunReport& r = first.report;
    const auto ttft = r.requests.ttftStats();
    const auto tbt = r.requests.tbtStats();
    const core::SloChecker slo(w.llm);
    const double completed = static_cast<double>(r.requests.completed());
    const StreamCounts& c = live.counts;
    const std::uint64_t attempted = r.submitted + c.attempted;
    const std::uint64_t shed_or_refused = r.rejected + c.shed + c.refused;
    const std::uint64_t failed =
        (r.submitted - r.requests.completed() - r.rejected) + c.failures() +
        live.metricsErrors + live.leaked;
    const double failed_share =
        share(static_cast<double>(failed + shed_or_refused), static_cast<double>(attempted));
    std::printf("failed_share=%.6f = (failed %llu + shed/refused %llu) / attempted %llu\n",
                failed_share, (unsigned long long)failed,
                (unsigned long long)shed_or_refused, (unsigned long long)attempted);

    checks.expect(tailSupported(99.0, ttft.count) && tailSupported(99.0, tbt.count),
                  "offline: >= 10 samples beyond every reported p99");
    checks.expect(tailSupported(50.0, live.httpTtftMs.count()) &&
                      live.httpTtftWindowMs.count() >= 5 && live.streamRps.count() >= 5,
                  "live: enough open-loop windows, closed-loop windows and samples");

    const std::vector<Metric> metrics = {
        {"setup_s", setup_s.percentile(kSustainedCostPercentile), "s", "host",
         setup_s.count()},
        {"sim_req_per_s", sim_rps.percentile(kSustainedRatePercentile), "1/s", "host",
         sim_rps.count()},
        {"peak_rss_mb", peakRssMb(), "MB", "host", 1},
        {"ttft_p50_ms", ttft.p50, "ms", "simulated", ttft.count},
        {"ttft_p99_ms", ttft.p99, "ms", "simulated", ttft.count},
        {"tbt_p50_ms", tbt.p50, "ms", "simulated", tbt.count},
        {"tbt_p99_ms", tbt.p99, "ms", "simulated", tbt.count},
        {"slo_attainment", core::sloAttainment(slo, r.requests, r.submitted), "share",
         "simulated", r.submitted},
        {"machine_h_per_kreq", perThousand(machineHours(r), completed), "h", "simulated",
         r.requests.completed()},
        {"energy_wh_per_kreq", perThousand(energyWh(r), completed), "Wh", "simulated",
         r.requests.completed()},
        {"http_ttft_p50_ms", live.httpTtftWindowMs.median(), "ms", "host",
         live.httpTtftMs.count()},
        {"served_share", 1.0 - failed_share, "share", "both", attempted},
    };
    std::string not_positive;
    for (const Metric& m : metrics) {
        if (!(m.value > 0.0 && std::isfinite(m.value)))
            not_positive += " " + m.name;
    }
    checks.expect(not_positive.empty(),
                  "every end-to-end metric is positive and finite" + not_positive);
    printTable(metrics);
    printResult(checks.ok(), attempted, failed, metrics);
    return checks.ok() ? 0 : 1;
}

int
runTraced(const Args& args, const Workload& w)
{
    Checks checks;
    const OfflineRun plain = runOffline(w, args.seed, false);
    const OfflineRun traced = runOffline(w, args.seed, true);
    checks.expect(conserved(plain) && conserved(traced),
                  "offline: completed + shed == submitted");
    checks.expect(traced.digest == plain.digest,
                  "traced run reproduces the untraced simulation exactly");
    printOfflineAccounting(traced);

    LiveSession session(w, args.seed, true);
    session.openLoop(kOpenShare * args.seconds);
    session.ingressOpenLoop(kOpenShare * args.seconds);
    for (int k = 0; k < kRounds * kClosedWindowsPerRound; ++k)
        session.closedLoop(kClosedStreams / (kRounds * kClosedWindowsPerRound));
    const LiveStats live = session.finish();
    checkLive(live, checks);
    checks.expect(!live.ingressTtftMs.empty() && !live.handlerMs.empty(),
                  "live: traced wrappers saw requests");

    const core::RunReport& r = traced.report;
    const double completed = static_cast<double>(r.requests.completed());
    const double submitted = static_cast<double>(r.submitted);
    const double events = static_cast<double>(plain.events);
    const auto& kv = r.transfers;
    const auto& pc = r.prefixCache;
    const auto& ctl = r.control;
    std::vector<Metric> metrics = {
        {"sim.events_per_req", share(events, completed), "count", "simulated",
         r.requests.completed()},
        {"sim.ns_per_event", share(plain.runS * 1e9, events), "ns", "host", plain.events},
        {"sim.events_per_advance",
         share(static_cast<double>(traced.events), static_cast<double>(traced.advances)),
         "count", "simulated", traced.advances},
        {"sim.pending_peak", static_cast<double>(traced.pendingPeak), "count",
         "simulated", traced.advances},
        {"workload.next_ns",
         share(traced.streamS * 1e9, static_cast<double>(traced.streamCalls)), "ns",
         "host", traced.streamCalls},
        {"workload.share", share(traced.streamS, traced.runS), "share", "host",
         traced.streamCalls},
        {"core.cls.route_scan_us", traced.routeScanUs.median(), "us", "host",
         traced.routeScanUs.count()},
        {"core.cls.shed", static_cast<double>(traced.clsShed), "count", "simulated",
         r.submitted},
        {"core.cls.mixed_routes", static_cast<double>(r.mixedRoutes), "count",
         "simulated", r.submitted},
        {"engine.prompt_busy_share",
         share(static_cast<double>(r.promptPool.busyUs),
               static_cast<double>(r.promptPool.poweredUs)),
         "share", "simulated", static_cast<std::size_t>(r.promptPool.machines)},
        {"engine.token_busy_share",
         share(static_cast<double>(r.tokenPool.busyUs),
               static_cast<double>(r.tokenPool.poweredUs)),
         "share", "simulated", static_cast<std::size_t>(r.tokenPool.machines)},
        {"engine.decode_batch_mean",
         share(static_cast<double>(r.tokenPool.tokensGenerated),
               static_cast<double>(r.tokenPool.iterations)),
         "count", "simulated", r.tokenPool.iterations},
        {"engine.preemptions", static_cast<double>(r.preemptions), "count", "simulated",
         r.submitted},
        {"engine.restarts", static_cast<double>(r.restarts), "count", "simulated",
         r.submitted},
        {"engine.kv.visible_ms_mean",
         share(static_cast<double>(kv.totalVisibleUs) / 1e3,
               static_cast<double>(kv.transfers)),
         "ms", "simulated", kv.transfers},
        {"engine.kv.layerwise_share",
         share(static_cast<double>(kv.layerwiseTransfers),
               static_cast<double>(kv.transfers)),
         "share", "simulated", kv.transfers},
        {"engine.kv.memory_stalls", static_cast<double>(kv.memoryStalls), "count",
         "simulated", kv.transfers},
        {"engine.kv.retries", static_cast<double>(kv.transferRetries), "count",
         "simulated", kv.transfers},
        {"engine.kv.aborts", static_cast<double>(kv.transferAborts), "count",
         "simulated", kv.transfers},
        {"engine.live_high_water", static_cast<double>(traced.liveHighWater), "count",
         "simulated", r.submitted},
        {"sched.prefix.token_share",
         share(static_cast<double>(pc.hitTokens),
               static_cast<double>(r.requests.totalPromptTokens())),
         "share", "simulated", r.requests.completed()},
        {"sched.prefix.hit_share", share(static_cast<double>(pc.hits), submitted),
         "share", "simulated", r.submitted},
        {"sched.prefix.evictions", static_cast<double>(pc.evictions), "count",
         "simulated", r.submitted},
        {"sched.prefix.affinity_share",
         share(static_cast<double>(pc.affinityRoutes), submitted), "share",
         "simulated", r.submitted},
        {"control.ticks", static_cast<double>(ctl.ticks), "count", "simulated",
         ctl.ticks},
        {"control.scale_ups", static_cast<double>(ctl.scaleUps), "count", "simulated",
         ctl.ticks},
        {"control.scale_downs", static_cast<double>(ctl.scaleDowns), "count",
         "simulated", ctl.ticks},
        {"control.role_flexes", static_cast<double>(ctl.roleFlexes), "count",
         "simulated", ctl.ticks},
        {"control.brownout_share",
         share(static_cast<double>(ctl.brownoutUs), static_cast<double>(r.simulatedUs)),
         "share", "simulated", ctl.ticks},
        {"control.max_brownout_level", static_cast<double>(ctl.maxBrownoutLevel),
         "count", "simulated", ctl.ticks},
    };
    addSpanMetrics(r.breakdown, metrics);
    const std::vector<Metric> tail = {
        {"telemetry.trace_overhead", share(traced.runS, plain.runS), "ratio", "host", 2},
        {"server.connect_us_p50", live.connectUs.median(), "us", "host",
         live.connectUs.count()},
        {"server.handler_ms_p50", live.handlerMs.median(), "ms", "host",
         live.handlerMs.count()},
        {"server.threads_peak", static_cast<double>(live.threadsPeak), "count", "host",
         1},
        {"server.stream_rps", live.streamRps.median(), "1/s", "host", live.closedStreams},
        {"server.http_ttft_p99_ms", live.httpTtftMs.percentile(99.0), "ms", "host",
         live.httpTtftMs.count()},
        {"core.ingress.ttft_ms_p50", live.ingressTtftMs.median(), "ms", "host",
         live.ingressTtftMs.count()},
        {"core.ingress.submit_us_p50", live.ingressSubmitUs.median(), "us", "host",
         live.ingressSubmitUs.count()},
        {"core.ingress.inspect_ms_p50", live.ingressInspectMs.median(), "ms", "host",
         live.ingressInspectMs.count()},
        {"gen.late_ms_p99", live.lateMs.percentile(99.0), "ms", "host",
         live.lateMs.count()},
        {"gen.late_ms_max", live.lateMs.max(), "ms", "host", live.lateMs.count()},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());
    checks.expect(r.breakdown.enabled &&
                      std::fabs(r.breakdown.attributedTotalMs - r.breakdown.e2eTotalMs) <=
                          1e-6 * std::max(1.0, r.breakdown.e2eTotalMs),
                  "spans attribute all of E2E");
    printTable(metrics);
    const StreamCounts& c = live.counts;
    const std::uint64_t attempted = r.submitted + c.attempted;
    const std::uint64_t failed = (r.submitted - r.requests.completed() - r.rejected) +
                                 c.failures() + live.metricsErrors + live.leaked;
    printResult(checks.ok(), attempted, failed, metrics);
    return checks.ok() ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    pinCpus();
    try {
        const Workload w = makeWorkload(args.workload, args.seed);
        std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d clients=%d\n",
                    w.name.c_str(), (unsigned long long)args.seed, args.seconds,
                    args.trace, clientThreads());
        return args.trace == 0 ? runUntraced(args, w) : runTraced(args, w);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
