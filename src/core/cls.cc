#include "core/cls.h"

#include <limits>
#include <string>

#include "sim/log.h"

namespace splitwise::core {

const char*
poolTypeName(PoolType pool)
{
    switch (pool) {
      case PoolType::kPrompt: return "prompt";
      case PoolType::kToken: return "token";
      case PoolType::kMixed: return "mixed";
    }
    return "?";
}

namespace {

std::size_t
poolIndex(PoolType pool)
{
    return static_cast<std::size_t>(pool);
}

/** JSQ over a member list: the first machine with the smallest
 *  @p load, nullptr when the list is empty. */
template <typename Load>
engine::Machine*
leastLoaded(const std::vector<engine::Machine*>& members, Load load)
{
    engine::Machine* best = nullptr;
    std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
    for (engine::Machine* m : members) {
        const std::int64_t l = load(*m);
        if (l < best_load) {
            best_load = l;
            best = m;
        }
    }
    return best;
}

}  // namespace

ClusterScheduler::ClusterScheduler(sim::Simulator& simulator, ClsConfig config,
                                   std::vector<engine::Machine*> prompt_machines,
                                   std::vector<engine::Machine*> token_machines,
                                   bool splitwise)
    : simulator_(simulator), config_(config), splitwise_(splitwise),
      routingRng_(config.routingSeed)
{
    if (prompt_machines.empty() && token_machines.empty())
        sim::fatal("ClusterScheduler: no machines");
    for (auto* m : prompt_machines) {
        const PoolType origin = splitwise_ ? PoolType::kPrompt : PoolType::kMixed;
        entries_[m->id()] = {m, origin, origin, 0};
    }
    for (auto* m : token_machines) {
        const PoolType origin = splitwise_ ? PoolType::kToken : PoolType::kMixed;
        entries_[m->id()] = {m, origin, origin, 0};
    }
    // Size every member list for the whole fleet up front, so no
    // later rebuild allocates.
    const std::size_t fleet = entries_.size();
    members_.routed.reserve(fleet);
    for (auto& list : members_.pool)
        list.reserve(fleet);
    members_.promptPhase.reserve(fleet);
    members_.tokenPhase.reserve(fleet);
    rebuildMembers();
}

void
ClusterScheduler::buildMembers(Members& out) const
{
    out.routed.clear();
    for (auto& list : out.pool)
        list.clear();
    out.promptPhase.clear();
    out.tokenPhase.clear();
    for (const auto& [id, entry] : entries_) {
        engine::Machine* m = entry.machine;
        out.routed.push_back(m);
        out.pool[poolIndex(entry.pool)].push_back(m);
        // A mixed machine takes work of its origin's phase.
        const PoolType phase =
            entry.pool == PoolType::kMixed ? entry.origin : entry.pool;
        if (phase == PoolType::kPrompt)
            out.promptPhase.push_back(m);
        else if (phase == PoolType::kToken)
            out.tokenPhase.push_back(m);
    }
}

std::string
ClusterScheduler::integrityError() const
{
    Members fresh;
    buildMembers(fresh);
    const struct {
        const char* name;
        const std::vector<engine::Machine*>& cached;
        const std::vector<engine::Machine*>& want;
    } lists[] = {
        {"routed", members_.routed, fresh.routed},
        {"prompt-pool", members_.pool[poolIndex(PoolType::kPrompt)],
         fresh.pool[poolIndex(PoolType::kPrompt)]},
        {"token-pool", members_.pool[poolIndex(PoolType::kToken)],
         fresh.pool[poolIndex(PoolType::kToken)]},
        {"mixed-pool", members_.pool[poolIndex(PoolType::kMixed)],
         fresh.pool[poolIndex(PoolType::kMixed)]},
        {"prompt-phase", members_.promptPhase, fresh.promptPhase},
        {"token-phase", members_.tokenPhase, fresh.tokenPhase},
    };
    for (const auto& list : lists) {
        if (list.cached != list.want) {
            return std::string("cached ") + list.name + " members (" +
                   std::to_string(list.cached.size()) +
                   ") disagree with the routed entries (" +
                   std::to_string(list.want.size()) + ")";
        }
    }
    return {};
}

const std::vector<engine::Machine*>&
ClusterScheduler::promptMembers(PoolType pool) const
{
    if (pool == PoolType::kPrompt)
        return members_.promptPhase;
    return members_.pool[poolIndex(pool)];
}

const std::vector<engine::Machine*>&
ClusterScheduler::tokenMembers(PoolType pool) const
{
    if (pool == PoolType::kToken)
        return members_.tokenPhase;
    return members_.pool[poolIndex(pool)];
}

void
ClusterScheduler::markFailed(int machine_id)
{
    const auto it = entries_.find(machine_id);
    if (it != entries_.end()) {
        lost_.insert(*it);
        entries_.erase(it);
        rebuildMembers();
    } else {
        // A machine can crash while retired to standby (draining or
        // parked); it still needs to be parked for rejoin().
        const auto sit = standby_.find(machine_id);
        if (sit == standby_.end())
            return;
        lost_.insert(*sit);
        standby_.erase(sit);
    }
    // Routed machines can hit zero while standby still holds live
    // capacity - the owner must restore from standby immediately
    // (Cluster's emergency restore). Only a cluster with nothing
    // left anywhere is unrecoverable.
    if (entries_.empty() && standby_.empty())
        sim::fatal("ClusterScheduler: every machine has failed");
}

void
ClusterScheduler::rejoin(int machine_id)
{
    const auto it = lost_.find(machine_id);
    if (it == lost_.end())
        sim::fatal("ClusterScheduler::rejoin: machine was never lost");
    Entry entry = it->second;
    lost_.erase(it);
    // The machine comes back empty: restore its original identity
    // and drop any mixed-pool residue from before the crash.
    entry.pool = entry.origin;
    entry.mixedSince = 0;
    entries_[machine_id] = entry;
    rebuildMembers();
    ++rejoins_;
    TELEM_INSTANT(trace_, telemetry::TraceRecorder::clusterTrack(), "rejoin",
                  simulator_.now(),
                  {{"machine", machine_id},
                   {"pool", poolTypeName(entry.pool)}});
}

void
ClusterScheduler::retire(int machine_id)
{
    const auto it = entries_.find(machine_id);
    if (it == entries_.end())
        sim::fatal("ClusterScheduler::retire: machine is not routed");
    if (entries_.size() == 1)
        sim::fatal("ClusterScheduler::retire: last routed machine");
    standby_.insert(*it);
    entries_.erase(it);
    rebuildMembers();
    ++retires_;
    TELEM_INSTANT(trace_, telemetry::TraceRecorder::clusterTrack(), "retire",
                  simulator_.now(), {{"machine", machine_id}});
}

void
ClusterScheduler::restore(int machine_id)
{
    const auto it = standby_.find(machine_id);
    if (it == standby_.end())
        sim::fatal("ClusterScheduler::restore: machine is not in standby");
    restore(machine_id, it->second.origin);
}

void
ClusterScheduler::restore(int machine_id, PoolType origin)
{
    const auto it = standby_.find(machine_id);
    if (it == standby_.end())
        sim::fatal("ClusterScheduler::restore: machine is not in standby");
    Entry entry = it->second;
    standby_.erase(it);
    // The machine was drained before standby, so it re-enters with a
    // clean identity - possibly a new one (role flex).
    entry.origin = origin;
    entry.pool = origin;
    entry.mixedSince = 0;
    entries_[machine_id] = entry;
    rebuildMembers();
    ++restores_;
    TELEM_INSTANT(trace_, telemetry::TraceRecorder::clusterTrack(), "restore",
                  simulator_.now(),
                  {{"machine", machine_id}, {"pool", poolTypeName(origin)}});
}

bool
ClusterScheduler::inStandby(int machine_id) const
{
    return standby_.count(machine_id) > 0;
}

int
ClusterScheduler::anyStandby() const
{
    int best = -1;
    for (const auto& [id, entry] : standby_) {
        if (best < 0 || id < best)
            best = id;
    }
    return best;
}

void
ClusterScheduler::setBrownoutLevel(int level)
{
    if (level < 0 || level > 3)
        sim::fatal("ClusterScheduler::setBrownoutLevel: level out of range");
    if (level == brownoutLevel_)
        return;
    brownoutLevel_ = level;
    TELEM_INSTANT(trace_, telemetry::TraceRecorder::clusterTrack(),
                  "brownout", simulator_.now(), {{"level", level}});
    if (spans_)
        spans_->setBrownoutLevel(level);
}

std::size_t
ClusterScheduler::poolSize(PoolType pool) const
{
    return members_.pool[poolIndex(pool)].size();
}

bool
ClusterScheduler::contains(int machine_id) const
{
    return entries_.count(machine_id) > 0;
}

PoolType
ClusterScheduler::poolOf(int machine_id) const
{
    const auto it = entries_.find(machine_id);
    if (it != entries_.end())
        return it->second.pool;
    // Standby and failed machines hold no routing pool; report their
    // remembered identity instead.
    return originOf(machine_id);
}

PoolType
ClusterScheduler::originOf(int machine_id) const
{
    const auto it = entries_.find(machine_id);
    if (it != entries_.end())
        return it->second.origin;
    const auto standby = standby_.find(machine_id);
    if (standby != standby_.end())
        return standby->second.origin;
    return lost_.at(machine_id).origin;
}

engine::Machine*
ClusterScheduler::pickRandom(
    const std::vector<engine::Machine*>& eligible) const
{
    if (eligible.empty())
        return nullptr;
    const auto idx = static_cast<std::size_t>(routingRng_.uniformInt(
        0, static_cast<std::int64_t>(eligible.size()) - 1));
    return eligible[idx];
}

engine::Machine*
ClusterScheduler::jsqPrompt(PoolType pool) const
{
    // A mixed-pool machine retains its identity (SIV-A): a prompt
    // machine temporarily running tokens still takes prompt work.
    const auto& members = promptMembers(pool);
    if (config_.routing == RoutingPolicy::kRandom)
        return pickRandom(members);
    return leastLoaded(members, [](const engine::Machine& m) {
        return m.promptQueueDepthTokens();
    });
}

engine::Machine*
ClusterScheduler::jsqToken(PoolType pool) const
{
    const auto& members = tokenMembers(pool);
    if (config_.routing == RoutingPolicy::kRandom)
        return pickRandom(members);
    return leastLoaded(members, [](const engine::Machine& m) {
        return m.tokenLoadTokens();
    });
}

void
ClusterScheduler::moveToPool(int machine_id, PoolType pool)
{
    Entry& entry = entries_.at(machine_id);
    if (entry.pool == pool)
        return;
    entry.pool = pool;
    if (pool == PoolType::kMixed)
        entry.mixedSince = simulator_.now();
    rebuildMembers();
    ++poolTransitions_;
    TELEM_INSTANT(trace_, telemetry::TraceRecorder::clusterTrack(),
                  "pool_transition", simulator_.now(),
                  {{"machine", machine_id}, {"pool", poolTypeName(pool)}});
}

bool
ClusterScheduler::promptOverloaded(const engine::Machine& m) const
{
    return m.promptQueueDepthTokens() > config_.promptOverflowTokens;
}

bool
ClusterScheduler::tokenOverloaded(const engine::Machine& m) const
{
    const std::int64_t capacity = m.mls().blocks().tokenCapacity();
    if (capacity <= 0)
        return true;
    const double util = static_cast<double>(m.tokenLoadTokens()) /
                        static_cast<double>(capacity);
    if (util > config_.tokenOverflowUtilization)
        return true;
    // Residents plus reserved inbound transfers: past the
    // latency-efficient batch range the machine counts as full even
    // with KV memory to spare.
    const auto pending = static_cast<int>(m.mls().blocks().residents());
    const int limit = config_.tokenSloTbtMs > 0.0
                          ? m.maxBatchWithinTbt(config_.tokenSloTbtMs)
                          : config_.tokenOverflowResidents;
    return pending > limit;
}

engine::Machine*
ClusterScheduler::pickPromptMachine(bool& local_decode)
{
    local_decode = false;
    engine::Machine* best = jsqPrompt(PoolType::kPrompt);
    if (best && !promptOverloaded(*best))
        return best;

    // Overflow: consult the mixed pool; a mixed machine serves the
    // request like a non-Splitwise machine, both phases local.
    engine::Machine* mixed = jsqPrompt(PoolType::kMixed);
    if (mixed && !promptOverloaded(*mixed)) {
        local_decode = true;
        ++mixedRoutes_;
        return mixed;
    }

    // Mixed pool full too: pull the least-loaded token machine in.
    engine::Machine* pulled = jsqPrompt(PoolType::kToken);
    if (pulled) {
        moveToPool(pulled->id(), PoolType::kMixed);
        local_decode = true;
        ++mixedRoutes_;
        return pulled;
    }
    return best ? best : mixed;
}

engine::Machine*
ClusterScheduler::pickTokenMachine()
{
    engine::Machine* best = jsqToken(PoolType::kToken);
    if (best && !tokenOverloaded(*best))
        return best;

    engine::Machine* mixed = jsqToken(PoolType::kMixed);
    if (mixed && !tokenOverloaded(*mixed)) {
        ++mixedRoutes_;
        return mixed;
    }

    engine::Machine* pulled = jsqToken(PoolType::kPrompt);
    if (pulled) {
        moveToPool(pulled->id(), PoolType::kMixed);
        ++mixedRoutes_;
        return pulled;
    }
    return best ? best : mixed;
}

engine::Machine*
ClusterScheduler::pickRecoveryTokenMachine()
{
    // Recovery placement is conservative: the cluster is already in
    // a degraded state, so never pull a prompt machine into mixed
    // and never land a recovered decode on a failed or saturated
    // host - a nullptr falls back to a from-scratch restart instead.
    engine::Machine* best = nullptr;
    std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
    for (const auto& [id, entry] : entries_) {
        engine::Machine* m = entry.machine;
        if (m->failed())
            continue;
        const bool token_capable =
            entry.pool == PoolType::kToken ||
            entry.pool == PoolType::kMixed;
        if (!token_capable || tokenOverloaded(*m))
            continue;
        const std::int64_t load = m->tokenLoadTokens();
        if (load < best_load) {
            best_load = load;
            best = m;
        }
    }
    return best;
}

std::int64_t
ClusterScheduler::queuedPromptTokens() const
{
    std::int64_t total = 0;
    for (const engine::Machine* m : members_.routed)
        total += m->promptQueueDepthTokens();
    return total;
}

bool
ClusterScheduler::shouldShed() const
{
    return config_.shedQueuedTokensBound > 0 &&
           queuedPromptTokens() > config_.shedQueuedTokensBound;
}

bool
ClusterScheduler::shouldShedRequest(const engine::LiveRequest& request) const
{
    // The brownout ladder degrades admission progressively: L1 drops
    // the lowest-value traffic, L3 closes the door entirely. The
    // static queue bound stays active at every level.
    if (brownoutLevel_ >= 3)
        return true;
    if (brownoutLevel_ >= 1 && request.spec.priority > 0)
        return true;
    return shouldShed();
}

engine::Machine*
ClusterScheduler::affinityMachine(engine::LiveRequest* request)
{
    if (!policy_)
        return nullptr;
    const int target = policy_->prepareRoute(*request);
    if (target < 0)
        return nullptr;
    const auto it = entries_.find(target);
    if (it == entries_.end() || it->second.machine->failed()) {
        // Stale directory entry: the machine crashed, retired, or
        // parked since the prefix was stored. The prefix can only be
        // pinned where it lives, so the hit degrades to a full
        // prefill on whatever machine JSQ picks.
        request->cachedPrefixTokens = 0;
        return nullptr;
    }
    policy_->noteAffinityRoute();
    return it->second.machine;
}

void
ClusterScheduler::routeBaseline(engine::LiveRequest* request)
{
    if (engine::Machine* affinity = affinityMachine(request)) {
        request->tokenMachine = affinity->id();
        affinity->submitPrompt(request);
        return;
    }
    engine::Machine* best = nullptr;
    if (config_.routing == RoutingPolicy::kRandom) {
        best = pickRandom(members_.routed);
    } else {
        // Pending tokens: queued prompt work plus one per active
        // decode (a decode contributes one token per iteration).
        best = leastLoaded(members_.routed, [](const engine::Machine& m) {
            return m.promptQueueDepthTokens() +
                   static_cast<std::int64_t>(m.mls().residentCount());
        });
    }
    request->tokenMachine = best->id();
    best->submitPrompt(request);
}

void
ClusterScheduler::routeSplitwise(engine::LiveRequest* request)
{
    bool local_decode = false;
    engine::Machine* prompt_machine = affinityMachine(request);
    if (prompt_machine) {
        // Session affinity overrides JSQ for the prompt phase only;
        // the decode placement below stays load-driven. A mixed-pool
        // target keeps both phases local, like any mixed-pool route.
        local_decode = poolOf(prompt_machine->id()) == PoolType::kMixed;
    } else {
        prompt_machine = pickPromptMachine(local_decode);
    }
    if (!prompt_machine)
        sim::panic("ClusterScheduler: no prompt machine available");

    if (local_decode) {
        request->tokenMachine = prompt_machine->id();
    } else {
        engine::Machine* token_machine = pickTokenMachine();
        // When every token-capable machine is saturated, shipping
        // the KV-cache would only add transfer stalls on top of the
        // overload: run both phases locally instead - at stress
        // Splitwise devolves into the iso-count baseline (SVI-E).
        if (!token_machine ||
            (token_machine != prompt_machine &&
             tokenOverloaded(*token_machine))) {
            request->tokenMachine = prompt_machine->id();
        } else {
            request->tokenMachine = token_machine->id();
        }
    }
    prompt_machine->submitPrompt(request);
}

bool
ClusterScheduler::onArrival(engine::LiveRequest* request, bool force_admit)
{
    if (!force_admit && shouldShedRequest(*request)) {
        ++shedRequests_;
        TELEM_INSTANT(trace_, telemetry::TraceRecorder::clusterTrack(),
                      "shed", simulator_.now(),
                      {{"request", request->spec.id}});
        return false;
    }
    // Brownout L2+: cap how much generation an admitted request may
    // demand. Applied at admission so the cap is part of the
    // request's contract for its whole lifetime.
    if (!force_admit && brownoutLevel_ >= 2 &&
        request->spec.outputTokens > config_.brownoutMaxOutputTokens) {
        request->spec.outputTokens = config_.brownoutMaxOutputTokens;
        ++cappedRequests_;
    }
    if (splitwise_)
        routeSplitwise(request);
    else
        routeBaseline(request);
    return true;
}

void
ClusterScheduler::onIterationEnd(engine::Machine& machine)
{
    const auto it = entries_.find(machine.id());
    if (it == entries_.end())
        return;  // failed machine draining a stale event
    Entry& entry = it->second;
    if (entry.pool != PoolType::kMixed || entry.origin == PoolType::kMixed)
        return;

    // Permanent re-purposing after a long mixed-pool stay (SIV-A).
    if (config_.repurposeAfterUs > 0 &&
        simulator_.now() - entry.mixedSince > config_.repurposeAfterUs) {
        entry.origin = entry.origin == PoolType::kPrompt ? PoolType::kToken
                                                         : PoolType::kPrompt;
        rebuildMembers();
        ++repurposings_;
    }

    // A mixed-pool machine returns to its origin pool once it has no
    // tasks of the opposite kind left.
    const bool opposite_drained =
        entry.origin == PoolType::kPrompt
            ? !machine.mls().hasDecodeWork()
            : !machine.mls().hasPromptWork();
    if (opposite_drained)
        moveToPool(machine.id(), entry.origin);
}

}  // namespace splitwise::core
