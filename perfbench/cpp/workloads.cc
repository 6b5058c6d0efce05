#include "workloads.h"

#include <stdexcept>

#include "core/designs.h"
#include "sched/policy.h"
#include "workload/multi_turn.h"
#include "workload/rate_curve.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace perfbench {

namespace {

using namespace splitwise;

// fleet: bench_scale's shape — a 2000-machine coding Splitwise-HH at
// the paper's 7:1 prompt:token ratio, ~1.4 req/s per machine.
constexpr int kFleetMachines = 2000;
constexpr double kFleetRpsPerMachine = 1.4;
constexpr double kFleetSimSeconds = 12.0;

// sessions/burst: the iso-power conversation design, 17P/23T.
constexpr int kIsoPowerPrompt = 17;
constexpr int kIsoPowerToken = 23;
// Below the ~24/s knee: nearer it, congestion episodes made
// tbt_p99_ms differ 4x between seeds.
constexpr double kSessionsPerSecond = 18.0;
constexpr double kSessionsThinkTimeS = 5.0;
constexpr double kSessionsSimSeconds = 600.0;

// burst: compressed diurnal days, each with a 2.5x flash spike on
// its rising edge and its share of a seeded fault storm. Several days
// per run average one seed's fault and spike timing over as many
// cycles, so the modelled metrics repeat across seeds.
constexpr double kBurstDayS = 240.0;
constexpr int kBurstDays = 6;
/**
 * The fault storm is part of the scenario, like the design: one fixed
 * plan, so --seed varies the traffic and run-to-run spread is not
 * dominated by where a dozen crashes happen to land.
 */
constexpr std::uint64_t kBurstStormSeed = 2024;
constexpr double kBurstTroughRps = 15.0;
constexpr double kBurstPeakRps = 45.0;

// live: a small serving cluster behind the HTTP front-end.
constexpr int kLivePrompt = 4;
constexpr int kLiveToken = 4;
constexpr double kLiveOfflineRps = 14.0;
constexpr double kLiveOfflineSimSeconds = 420.0;

/**
 * kBurstDays compressed days back to back, each its own seeded
 * stream with one flash spike. Chained rather than one long curve
 * because RateCurve's thinning envelope compounds every spike.
 */
class DaysStream final : public workload::TraceStream {
  public:
    explicit DaysStream(std::uint64_t seed) : seed_(seed) { openDay(); }

    bool
    next(workload::Request& out) override
    {
        while (day_ < kBurstDays) {
            if (current_->next(out)) {
                out.arrival += sim::secondsToUs(day_ * kBurstDayS);
                out.id = ++lastId_;
                return true;
            }
            if (++day_ < kBurstDays)
                openDay();
        }
        return false;
    }

  private:
    void
    openDay()
    {
        auto curve = workload::RateCurve::diurnal(
            kBurstTroughRps, kBurstPeakRps, sim::secondsToUs(kBurstDayS));
        curve.addSpike(sim::secondsToUs(0.35 * kBurstDayS),
                       sim::secondsToUs(0.08 * kBurstDayS), 2.5);
        workload::TraceGenerator gen(workload::conversation(),
                                     seed_ * kBurstDays + static_cast<std::uint64_t>(day_));
        current_ = gen.streamCurve(curve, sim::secondsToUs(kBurstDayS));
    }

    std::uint64_t seed_;
    int day_ = 0;
    std::uint64_t lastId_ = 0;
    std::unique_ptr<workload::TraceStream> current_;
};

/** Controller tuned for the compressed burst day (see the README). */
control::AutoscalerConfig
burstControllerConfig()
{
    control::AutoscalerConfig cfg;
    cfg.tickIntervalUs = sim::msToUs(250.0);
    cfg.slidingWindowUs = sim::secondsToUs(5.0);
    cfg.provisioningLeadUs = sim::secondsToUs(2.0);
    cfg.scaleCooldownUs = sim::secondsToUs(4.0);
    cfg.brownoutCooldownUs = sim::secondsToUs(4.0);
    cfg.ttftScaleUpSlowdown = 2.5;
    cfg.tbtScaleUpSlowdown = 2.0;
    cfg.queuedTokensHighPerMachine = 3000;
    cfg.queuedTokensLowPerMachine = 300;
    cfg.kvLowUtilization = 0.20;
    cfg.brownoutQueuedTokensPerMachine = 25000;
    cfg.brownoutTtftSlowdown = 30.0;
    cfg.brownoutRecoverFraction = 0.5;
    cfg.minPromptMachines = 12;
    cfg.minTokenMachines = 20;
    return cfg;
}

Workload
fleet(std::uint64_t seed)
{
    Workload w;
    w.name = "fleet";
    w.llm = model::llama2_70b();
    const int token = kFleetMachines / 8;
    w.design = core::splitwiseHH(kFleetMachines - token, token);
    // Random routing: JSQ herds on stale token-load signals at this
    // machine count (see bench_scale).
    w.sim.cls.routing = core::RoutingPolicy::kRandom;
    w.sim.cls.routingSeed = seed;
    w.stream = [](std::uint64_t s) -> std::unique_ptr<workload::TraceStream> {
        workload::TraceGenerator gen(workload::coding(), s);
        return gen.streamPoisson(kFleetRpsPerMachine * kFleetMachines,
                                 sim::secondsToUs(kFleetSimSeconds));
    };
    w.live.openRate = 200.0;
    return w;
}

Workload
sessions(std::uint64_t)
{
    Workload w;
    w.name = "sessions";
    w.llm = model::llama2_70b();
    w.design = core::splitwiseHH(kIsoPowerPrompt, kIsoPowerToken);
    workload::MultiTurnConfig mt = workload::defaultMultiTurnConfig();
    mt.thinkTimeMeanS = kSessionsThinkTimeS;
    w.sim.policy.kind = sched::PolicyKind::kPrefixCache;
    w.sim.policy.maxContextTokens = mt.maxContextTokens;
    w.stream = [mt](std::uint64_t s) -> std::unique_ptr<workload::TraceStream> {
        workload::MultiTurnTraceGenerator gen(mt, s);
        return gen.stream(kSessionsPerSecond,
                          sim::secondsToUs(kSessionsSimSeconds));
    };
    w.live.openRate = 150.0;
    return w;
}

Workload
burst(std::uint64_t)
{
    Workload w;
    w.name = "burst";
    w.llm = model::llama2_70b();
    w.design = core::splitwiseHH(kIsoPowerPrompt, kIsoPowerToken);
    // Admission shedding bound: the last line of defence behind the
    // controller's scale-ups and brownout ladder.
    w.sim.cls.shedQueuedTokensBound = 400000;
    w.stream = [](std::uint64_t s) -> std::unique_ptr<workload::TraceStream> {
        return std::make_unique<DaysStream>(s);
    };
    w.attach = [](core::Cluster& cluster, std::uint64_t, Attachments& out) {
        core::FaultStormConfig storm;
        storm.numMachines = cluster.design().machines();
        storm.horizonUs = sim::secondsToUs(kBurstDays * kBurstDayS);
        storm.crashes = 2 * kBurstDays;
        storm.slowdowns = 2 * kBurstDays;
        storm.linkFaults = 2 * kBurstDays;
        storm.linkDegrades = 2 * kBurstDays;
        out.faults = std::make_unique<core::FaultInjector>(cluster);
        out.faults->apply(core::makeFaultStorm(storm, kBurstStormSeed));
        out.autoscaler = std::make_unique<control::Autoscaler>(
            cluster, burstControllerConfig());
    };
    w.live.openRate = 150.0;
    return w;
}

Workload
live(std::uint64_t)
{
    Workload w;
    w.name = "live";
    w.llm = model::llama2_70b();
    w.design = core::splitwiseHH(kLivePrompt, kLiveToken);
    w.stream = [](std::uint64_t s) -> std::unique_ptr<workload::TraceStream> {
        workload::TraceGenerator gen(workload::conversation(), s);
        return gen.streamPoisson(kLiveOfflineRps,
                                 sim::secondsToUs(kLiveOfflineSimSeconds));
    };
    w.live.openRate = 150.0;
    w.live.cancelShare = 0.10;
    w.live.abortShare = 0.05;
    w.live.metricsEvery = 50;
    w.live.maxOutputTokens = 64;
    w.httpSetup = true;
    return w;
}

}  // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"fleet", "sessions",
                                                   "burst", "live"};
    return names;
}

Workload
makeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "fleet")
        return fleet(seed);
    if (name == "sessions")
        return sessions(seed);
    if (name == "burst")
        return burst(seed);
    if (name == "live")
        return live(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
