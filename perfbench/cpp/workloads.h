#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_
/**
 * @file
 * The benchmark's named workloads. Each one is a cluster design, a
 * simulation config, a seeded request stream for the offline
 * (simulated) phase, optional control-plane and fault attachments,
 * and the load shape of the live HTTP phase served by the same
 * design and policy.
 */
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/autoscaler.h"
#include "core/cluster.h"
#include "core/fault_plan.h"
#include "workload/trace_stream.h"

namespace perfbench {

/** Controller and fault plan riding on one offline cluster run. */
struct Attachments {
    std::unique_ptr<splitwise::control::Autoscaler> autoscaler;
    std::unique_ptr<splitwise::core::FaultInjector> faults;
};

/** Load shape of the live HTTP phase. */
struct LiveMix {
    /** Open-loop arrival rate, requests per host second. */
    double openRate = 100.0;
    /** Share of streams cancelled by DELETE after the first token. */
    double cancelShare = 0.0;
    /** Share of streams abandoned (connection closed) mid-stream. */
    double abortShare = 0.0;
    /** GET /v1/metrics after every Nth request; 0 = never. */
    int metricsEvery = 0;
    /**
     * Output cap applied to the generated live requests: each output
     * token is one NDJSON record, so the cap bounds the host work of a
     * stream and keeps it alike across seeds.
     */
    std::int64_t maxOutputTokens = 32;
};

struct Workload {
    std::string name;
    splitwise::model::LlmConfig llm;
    splitwise::core::ClusterDesign design;
    /** Offline config; the live phase uses it with the controller off. */
    splitwise::core::SimConfig sim;
    /** The seeded request stream of one offline repetition. */
    std::function<std::unique_ptr<splitwise::workload::TraceStream>(
        std::uint64_t seed)>
        stream;
    /** Attach controller/faults before the offline run; may be empty. */
    std::function<void(splitwise::core::Cluster&, std::uint64_t seed,
                       Attachments&)>
        attach;
    LiveMix live;
    /** The benchmark's setup probe for this workload serves over HTTP. */
    bool httpSetup = false;
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** The workload called @p name, with its routing seeded by @p seed. */
Workload makeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
