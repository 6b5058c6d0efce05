#include "testing/fuzzer.h"

#include <algorithm>

#include "hw/machine_spec.h"
#include "model/llm_config.h"
#include "sim/rng.h"
#include "sim/run_pool.h"
#include "workload/multi_turn.h"
#include "workload/trace_gen.h"
#include "workload/workloads.h"

namespace splitwise::testing {

namespace {

/** Upper bound on fuzzed trace length: keeps one scenario cheap so
 *  soak campaigns get breadth (many scenarios) over depth. */
constexpr std::size_t kMaxRequests = 60;

}  // namespace

Scenario
makeScenario(std::uint64_t seed)
{
    sim::Rng rng(seed);
    Scenario s;
    s.seed = seed;
    s.name = "fuzz-" + std::to_string(seed);

    // Cluster design: any of the six families, small pools.
    const auto& kinds = provision::allDesignKinds();
    s.designKind =
        kinds[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(kinds.size()) - 1))];
    if (provision::isBaseline(s.designKind)) {
        s.numPrompt = static_cast<int>(rng.uniformInt(2, 4));
        s.numToken = 0;
    } else {
        s.numPrompt = static_cast<int>(rng.uniformInt(1, 3));
        s.numToken = static_cast<int>(rng.uniformInt(1, 3));
    }

    // Scheduler / MLS / transfer knobs.
    if (rng.bernoulli(0.25)) {
        s.routing = core::RoutingPolicy::kRandom;
        s.routingSeed =
            static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000));
    }
    if (rng.bernoulli(0.3))
        s.shedQueuedTokensBound = rng.uniformInt(6000, 30000);
    if (rng.bernoulli(0.3))
        s.promptChunkTokens = rng.bernoulli(0.5) ? 512 : 1024;
    s.kvCheckpointing = rng.bernoulli(0.3);
    s.usePiecewisePerfModel = rng.bernoulli(0.25);
    s.traceEnabled = rng.bernoulli(0.3);
    s.kvRetry.maxRetries = static_cast<int>(rng.uniformInt(0, 4));
    s.kvRetry.backoffBaseUs = rng.uniformInt(500, 4000);
    s.kvRetry.backoffMultiplier = rng.uniform(1.5, 3.0);
    // Generous timeouts: fault windows are finite, so every transfer
    // eventually succeeds and the scenario always drains.
    s.kvRetry.timeoutUs =
        rng.bernoulli(0.3) ? sim::msToUs(
                                 static_cast<double>(
                                     rng.uniformInt(100, 1000)))
                           : 0;

    // Workload: either service, load scaled to the small pools.
    const bool coding = rng.bernoulli(0.5);
    const double rps = coding ? rng.uniform(1.0, 6.0)
                              : rng.uniform(2.0, 10.0);
    const sim::TimeUs duration = sim::secondsToUs(rng.uniform(1.0, 2.5));
    workload::TraceGenerator gen(
        coding ? workload::coding() : workload::conversation(),
        static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000)));
    s.requests = gen.generate(rps, duration);
    if (s.requests.size() > kMaxRequests)
        s.requests.resize(kMaxRequests);

    // Fault storm over the trace window plus drain slack. Crashes
    // are sampled without replacement and capped below the machine
    // count so at least one machine survives any overlap.
    core::FaultStormConfig storm;
    storm.numMachines = s.machines();
    storm.horizonUs = duration + sim::secondsToUs(1.0);
    storm.crashes = static_cast<int>(
        rng.uniformInt(0, std::min<std::int64_t>(2, s.machines() - 1)));
    storm.minDowntimeUs = sim::msToUs(200.0);
    storm.maxDowntimeUs = sim::msToUs(1500.0);
    storm.slowdowns = static_cast<int>(rng.uniformInt(0, 2));
    storm.slowdownWindowUs = sim::msToUs(800.0);
    storm.linkFaults = static_cast<int>(rng.uniformInt(0, 3));
    storm.linkFaultWindowUs = sim::msToUs(200.0);
    storm.linkDegrades = static_cast<int>(rng.uniformInt(0, 2));
    storm.linkDegradeWindowUs = sim::msToUs(600.0);
    s.faults = core::makeFaultStorm(
        storm, static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000)));

    // Control plane last, so pre-autoscaler seeds keep drawing the
    // same scenario prefix. Sheddable priorities make brownout L1
    // observable; baselines ignore the flag.
    s.autoscale = rng.bernoulli(0.35);
    if (s.autoscale) {
        workload::assignPriorities(
            s.requests, rng.uniform(0.1, 0.5),
            static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000)));
    }

    // Prefix-cache sessions last, appended after every earlier draw
    // so pre-policy seeds keep composing byte-identical scenarios. A
    // quarter of seeds swap the trace for interleaved multi-turn chat
    // sessions under the prefix-cache policy, so shared-block
    // refcounts and hit accounting race the fault storm above
    // (crashes drop cached prefixes mid-session).
    if (rng.bernoulli(0.25)) {
        s.policy = sched::PolicyKind::kPrefixCache;
        workload::MultiTurnConfig mt = workload::defaultMultiTurnConfig();
        mt.maxTurns = static_cast<int>(rng.uniformInt(3, 6));
        // Seconds-scale horizons need sub-second think times, and a
        // small context cap reaches the truncation paths that the
        // production 16k cap never would in a few simulated seconds.
        mt.thinkTimeMeanS = rng.uniform(0.05, 0.3);
        mt.maxContextTokens = rng.bernoulli(0.5) ? 2048 : 4096;
        s.policyMaxContextTokens = mt.maxContextTokens;
        workload::MultiTurnTraceGenerator sessions(
            mt,
            static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000)));
        s.requests = sessions.generate(rng.uniform(1.0, 4.0), duration);
        // Tail truncation only drops late turns of open sessions -
        // their cached prefixes simply go unused, which is legal.
        if (s.requests.size() > kMaxRequests)
            s.requests.resize(kMaxRequests);
        if (s.autoscale) {
            workload::assignPriorities(
                s.requests, rng.uniform(0.1, 0.5),
                static_cast<std::uint64_t>(
                    rng.uniformInt(1, 1'000'000'000)));
        }
    }

    // KV pressure last, for the same reason. A fifth of the
    // single-turn seeds leave each machine a few thousand tokens of
    // KV and swap in a trace of long outputs, a few requests per
    // machine: decodes outgrow the memory, so the MLS preempts
    // residents back into its prompt queue and re-admits them on
    // fresh block-table slots. Prompts are capped so any one
    // request's final context still fits a machine (an oversize
    // request is a config error, not a scenario). Session traces keep
    // their shape: their prompts embed earlier outputs.
    if (rng.bernoulli(0.2) && s.policy == sched::PolicyKind::kDefault) {
        const model::LlmConfig& llm = model::llama2_70b();
        const std::int64_t kv_tokens = rng.uniformInt(2500, 6000);
        // Every design's GPUs carry the same HBM per machine.
        s.memoryUtilFraction =
            static_cast<double>(llm.weightBytes() +
                                kv_tokens * llm.kvBytesPerToken()) /
            static_cast<double>(hw::dgxH100().totalHbmBytes());
        workload::TraceGenerator pressure(
            rng.bernoulli(0.5) ? workload::coding()
                               : workload::conversation(),
            static_cast<std::uint64_t>(rng.uniformInt(1, 1'000'000'000)));
        s.requests =
            pressure.generate(s.machines() * rng.uniform(2.0, 5.0), duration);
        if (s.requests.size() > kMaxRequests)
            s.requests.resize(kMaxRequests);
        for (workload::Request& r : s.requests) {
            r.promptTokens = std::min<std::int64_t>(r.promptTokens, 1000);
            r.outputTokens = rng.uniformInt(200, 1000);
        }
        if (s.autoscale) {
            workload::assignPriorities(
                s.requests, rng.uniform(0.1, 0.5),
                static_cast<std::uint64_t>(
                    rng.uniformInt(1, 1'000'000'000)));
        }
    }
    return s;
}

std::vector<FuzzResult>
fuzz(const FuzzerConfig& config)
{
    std::vector<std::uint64_t> seeds;
    seeds.reserve(static_cast<std::size_t>(config.scenarios));
    for (int i = 0; i < config.scenarios; ++i)
        seeds.push_back(config.baseSeed + static_cast<std::uint64_t>(i));

    sim::RunPool pool(config.jobs);
    return pool.map(seeds, [&config](std::uint64_t seed) {
        FuzzResult result;
        result.seed = seed;
        result.scenario = makeScenario(seed);
        result.scenario.spanOverride = config.spanOverride;
        // A quarter of seeds run through the streaming ingestion
        // path. Derived from the seed outside makeScenario so the
        // scenario's RNG draw order - and thus every existing pinned
        // seed - is untouched; both paths must be byte-identical
        // anyway, so which one a seed takes cannot matter.
        result.scenario.streamIngest = (seed % 4 == 0);
        result.outcome = runScenario(result.scenario, config.invariants);
        return result;
    });
}

}  // namespace splitwise::testing
