#include "control/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace splitwise::control {

const char*
actionTypeName(ActionType type)
{
    switch (type) {
    case ActionType::kScaleUpStart: return "scale_up_start";
    case ActionType::kScaleUp: return "scale_up";
    case ActionType::kScaleDownStart: return "scale_down_start";
    case ActionType::kScaleDown: return "scale_down";
    case ActionType::kFlexStart: return "flex_start";
    case ActionType::kFlex: return "flex";
    case ActionType::kBrownout: return "brownout";
    case ActionType::kPowerCap: return "power_cap";
    }
    return "unknown";
}

Autoscaler::Autoscaler(core::Cluster& cluster, AutoscalerConfig config)
    : cluster_(cluster), config_(config),
      monitor_(cluster.llm(), config.slidingWindowUs)
{
    if (!cluster.design().splitwise)
        sim::fatal("Autoscaler: needs a Splitwise (phase-split) design");
    if (config_.tickIntervalUs <= 0)
        sim::fatal("Autoscaler: tick interval must be positive");
    if (config_.provisioningLeadUs < 0 || config_.scaleCooldownUs < 0 ||
        config_.brownoutCooldownUs < 0)
        sim::fatal("Autoscaler: negative lead or cooldown");
    if (config_.tokenCapFloor <= 0.0 || config_.tokenCapFloor > 1.0 ||
        config_.promptCapFloor <= 0.0 || config_.promptCapFloor > 1.0)
        sim::fatal("Autoscaler: cap floors must lie in (0, 1]");
    if (config_.minPromptMachines < 1 || config_.minTokenMachines < 1)
        sim::fatal("Autoscaler: pool minimums must be at least 1");
    cluster_.simulator().postAfter(config_.tickIntervalUs,
                                   [this] { tick(); });
}

void
Autoscaler::record(ActionType type, int machine, core::PoolType pool,
                   int level, double cap)
{
    actions_.push_back({cluster_.simulator().now(), type, machine, pool,
                        level, cap});
}

void
Autoscaler::tick()
{
    ++ticks_;
    sim::Simulator& simulator = cluster_.simulator();
    completeDrains();
    const WindowStats stats =
        monitor_.refresh(cluster_.results(), simulator.now());
    enforcePowerBudget();
    stepBrownout(stats);
    scalePools(stats);
    // The controller is a passenger: it keeps ticking only while the
    // simulation has work of its own, so runs drain exactly when
    // they would have without it.
    if (simulator.pendingEvents() > 0)
        simulator.postAfter(config_.tickIntervalUs, [this] { tick(); });
}

bool
Autoscaler::drained(const engine::Machine& m,
                    std::vector<char>& referenced) const
{
    if (m.busy() || m.mls().hasWork() || m.mls().blocks().residents() > 0)
        return false;
    // Any live request still naming this machine (queued transfer,
    // pre-retire routing decision) could try to reserve KV here
    // later; a parked machine rejects the reservation and never
    // fires onMemoryFreed, deadlocking the request. Hold the park
    // until nothing in the simulation references the machine.
    if (referenced.empty()) {
        referenced.assign(cluster_.machines().size(), 0);
        cluster_.requestPool().forEachLive(
            [&](const engine::LiveRequest& req) {
                if (req.terminal())
                    return;
                for (const int id : {req.promptMachine, req.tokenMachine}) {
                    if (id >= 0)
                        referenced[static_cast<std::size_t>(id)] = 1;
                }
            });
    }
    return referenced[static_cast<std::size_t>(m.id())] == 0;
}

void
Autoscaler::completeDrains()
{
    core::ClusterScheduler& cls = cluster_.scheduler();
    // Filled by the first idle candidate's check. One walk of the
    // live requests serves every pending drain: parking or restoring
    // a machine moves no request.
    std::vector<char> referenced;
    for (auto it = pendingDrains_.begin(); it != pendingDrains_.end();) {
        const int id = it->first;
        engine::Machine* m = cluster_.machines()[static_cast<std::size_t>(id)]
                                 .get();
        // Crashed while draining (the rejoin path owns it now) or
        // emergency-restored by the failure handler: drop the intent.
        if (m->failed() || !cls.inStandby(id)) {
            it = pendingDrains_.erase(it);
            continue;
        }
        if (!drained(*m, referenced)) {
            ++it;
            continue;
        }
        if (it->second.park) {
            m->park();
            ++scaleDowns_;
            record(ActionType::kScaleDown, id, cls.originOf(id));
        } else {
            cls.restore(id, it->second.flexTo);
            ++roleFlexes_;
            record(ActionType::kFlex, id, it->second.flexTo);
        }
        it = pendingDrains_.erase(it);
    }
}

void
Autoscaler::enforcePowerBudget()
{
    if (config_.powerBudgetWatts <= 0.0)
        return;
    core::ClusterScheduler& cls = cluster_.scheduler();
    const auto& machines = cluster_.machines();

    // Budget the provisioned (peak) draw of every powered machine -
    // failed ones included, since they resume drawing on recovery
    // and flapping caps around crashes would defeat the hysteresis.
    double prompt_watts = 0.0;
    double token_watts = 0.0;
    for (const auto& m : machines) {
        if (m->parked())
            continue;
        const double watts = m->spec().provisionedPowerWatts();
        if (cls.originOf(m->id()) == core::PoolType::kToken)
            token_watts += watts;
        else
            prompt_watts += watts;
    }

    // SLO-aware placement (Fig. 9): cap the token pool first - its
    // bandwidth-bound iterations draw ~half of TDP, so caps down to
    // that need are free - and touch the prompt pool, whose latency
    // pays for caps almost proportionally, only as a last resort.
    double token_cap = 1.0;
    double prompt_cap = 1.0;
    const double budget = config_.powerBudgetWatts;
    if (prompt_watts + token_watts > budget) {
        if (token_watts > 0.0) {
            token_cap = std::clamp((budget - prompt_watts) / token_watts,
                                   config_.tokenCapFloor, 1.0);
        }
        if (prompt_watts > 0.0 &&
            prompt_watts + token_watts * token_cap > budget) {
            prompt_cap =
                std::clamp((budget - token_watts * token_cap) / prompt_watts,
                           config_.promptCapFloor, 1.0);
        }
    }

    for (const auto& m : machines) {
        if (m->parked())
            continue;
        const core::PoolType origin = cls.originOf(m->id());
        const double cap =
            origin == core::PoolType::kToken ? token_cap : prompt_cap;
        if (std::abs(m->powerCap() - cap) > 1e-9) {
            m->setPowerCap(cap);
            ++powerCapChanges_;
            record(ActionType::kPowerCap, m->id(), origin, 0, cap);
        }
    }
}

void
Autoscaler::stepBrownout(const WindowStats& stats)
{
    core::ClusterScheduler& cls = cluster_.scheduler();
    const sim::TimeUs now = cluster_.simulator().now();
    if (now - lastBrownoutMove_ < config_.brownoutCooldownUs)
        return;

    const auto routed = static_cast<std::int64_t>(
        std::max<std::size_t>(1, cls.liveMachines()));
    const std::int64_t queued_per = cls.queuedPromptTokens() / routed;

    // One ladder, one step per move: sustained overload ratchets
    // L1 -> L2 -> L3 across successive cooldown periods, and the
    // recovery band sits well below the trigger so the level cannot
    // flap across a tick boundary.
    const bool escalate =
        queued_per > config_.brownoutQueuedTokensPerMachine ||
        stats.ttftP99Slowdown > config_.brownoutTtftSlowdown;
    const double frac = config_.brownoutRecoverFraction;
    const bool recover =
        static_cast<double>(queued_per) <
            frac * static_cast<double>(
                       config_.brownoutQueuedTokensPerMachine) &&
        stats.ttftP99Slowdown < frac * config_.brownoutTtftSlowdown;

    const int level = cls.brownoutLevel();
    int next = level;
    if (escalate && level < 3)
        next = level + 1;
    else if (recover && level > 0)
        next = level - 1;
    if (next == level)
        return;

    cls.setBrownoutLevel(next);
    lastBrownoutMove_ = now;
    ++brownoutTransitions_;
    maxBrownoutLevel_ = std::max(maxBrownoutLevel_, next);
    if (level == 0)
        brownoutSince_ = now;
    if (next == 0)
        brownoutUs_ += now - brownoutSince_;
    record(ActionType::kBrownout, -1, core::PoolType::kPrompt, next);
}

std::size_t
Autoscaler::routedOf(core::PoolType pool) const
{
    const core::ClusterScheduler& cls = cluster_.scheduler();
    std::size_t n = 0;
    for (const auto& m : cluster_.machines()) {
        if (cls.contains(m->id()) && cls.originOf(m->id()) == pool)
            ++n;
    }
    return n;
}

void
Autoscaler::scalePools(const WindowStats& stats)
{
    core::ClusterScheduler& cls = cluster_.scheduler();
    const sim::TimeUs now = cluster_.simulator().now();
    const auto cooled = [&](sim::TimeUs last) {
        return now - last >= config_.scaleCooldownUs;
    };

    const std::size_t prompt_routed = routedOf(core::PoolType::kPrompt);
    const std::size_t token_routed = routedOf(core::PoolType::kToken);

    // Leading indicators: queue depth per prompt machine (grows
    // before completions reflect the surge) and mean KV utilization
    // across the token pool. In-flight scale-ups count as capacity
    // so one surge does not unpark the whole standby fleet.
    const auto prompt_capacity = static_cast<std::int64_t>(
        std::max<std::size_t>(1, prompt_routed + pendingUpPrompt_));
    const std::int64_t queued_per = cls.queuedPromptTokens() / prompt_capacity;

    double kv_util = 0.0;
    std::size_t token_live = 0;
    for (const auto& m : cluster_.machines()) {
        if (cls.contains(m->id()) &&
            cls.originOf(m->id()) == core::PoolType::kToken) {
            kv_util += m->mls().blocks().utilization();
            ++token_live;
        }
    }
    if (token_live > 0)
        kv_util /= static_cast<double>(token_live);

    const bool prompt_hot =
        stats.ttftP99Slowdown > config_.ttftScaleUpSlowdown ||
        queued_per > config_.queuedTokensHighPerMachine;
    const bool token_hot =
        stats.tbtP99Slowdown > config_.tbtScaleUpSlowdown ||
        kv_util > config_.kvHighUtilization;

    if (prompt_hot && cooled(lastScalePrompt_))
        scaleUp(core::PoolType::kPrompt, token_hot);
    if (token_hot && cooled(lastScaleToken_))
        scaleUp(core::PoolType::kToken, prompt_hot);

    const bool healthy =
        stats.ttftP99Slowdown < config_.ttftScaleDownSlowdown &&
        stats.tbtP99Slowdown < config_.tbtScaleDownSlowdown;
    if (healthy && !prompt_hot && pendingUpPrompt_ == 0 &&
        queued_per < config_.queuedTokensLowPerMachine &&
        prompt_routed > config_.minPromptMachines &&
        cooled(lastScalePrompt_)) {
        scaleDown(core::PoolType::kPrompt);
    }
    if (healthy && !token_hot && pendingUpToken_ == 0 &&
        kv_util < config_.kvLowUtilization &&
        token_routed > config_.minTokenMachines &&
        cooled(lastScaleToken_)) {
        scaleDown(core::PoolType::kToken);
    }
}

void
Autoscaler::scaleUp(core::PoolType pool, bool opposite_strained)
{
    core::ClusterScheduler& cls = cluster_.scheduler();
    const sim::TimeUs now = cluster_.simulator().now();
    auto& last = pool == core::PoolType::kPrompt ? lastScalePrompt_
                                                 : lastScaleToken_;
    auto& pending_up = pool == core::PoolType::kPrompt ? pendingUpPrompt_
                                                       : pendingUpToken_;

    // Cheapest first: a machine still draining toward park has not
    // powered off yet - cancel the scale-down and put it straight
    // back into routing.
    for (auto it = pendingDrains_.begin(); it != pendingDrains_.end(); ++it) {
        const int id = it->first;
        if (!it->second.park || !cls.inStandby(id))
            continue;
        cls.restore(id, pool);
        pendingDrains_.erase(it);
        ++scaleUps_;
        // Initiation and completion coincide: no lead time to pay.
        record(ActionType::kScaleUpStart, id, pool);
        record(ActionType::kScaleUp, id, pool);
        last = now;
        return;
    }

    // Next: unpark a standby machine, paying the provisioning lead
    // time before it can take work.
    for (const auto& m : cluster_.machines()) {
        const int id = m->id();
        if (!m->parked() || !cls.inStandby(id) ||
            pendingUnparks_.count(id) > 0)
            continue;
        if (!budgetAdmits(*m, pool))
            continue;
        pendingUnparks_.insert(id);
        ++pending_up;
        record(ActionType::kScaleUpStart, id, pool);
        last = now;
        cluster_.simulator().postAfter(
            config_.provisioningLeadUs,
            [this, id, pool] { finishUnpark(id, pool); });
        return;
    }

    // Last resort under a surge: flex a machine over from the
    // opposite pool - but never rob a pool that is strained itself
    // or already at its minimum. A flex perturbs both pools, so both
    // cooldowns must have expired (the caller only checked ours).
    if (opposite_strained)
        return;
    if (now - lastScalePrompt_ < config_.scaleCooldownUs ||
        now - lastScaleToken_ < config_.scaleCooldownUs)
        return;
    const core::PoolType opposite = pool == core::PoolType::kPrompt
                                        ? core::PoolType::kToken
                                        : core::PoolType::kPrompt;
    const std::size_t opposite_min = opposite == core::PoolType::kPrompt
                                         ? config_.minPromptMachines
                                         : config_.minTokenMachines;
    if (routedOf(opposite) <= opposite_min)
        return;
    // Donate the least-loaded machine so the drain completes fast.
    engine::Machine* donor = nullptr;
    std::int64_t best_load = 0;
    for (const auto& m : cluster_.machines()) {
        const int id = m->id();
        if (!cls.contains(id) || cls.originOf(id) != opposite)
            continue;
        const std::int64_t load = opposite == core::PoolType::kPrompt
                                      ? m->promptQueueDepthTokens()
                                      : m->tokenLoadTokens();
        if (donor == nullptr || load < best_load) {
            donor = m.get();
            best_load = load;
        }
    }
    if (donor == nullptr)
        return;
    cls.retire(donor->id());
    pendingDrains_[donor->id()] = {/*park=*/false, pool};
    record(ActionType::kFlexStart, donor->id(), pool);
    // A flex changes both pools; cool both down.
    lastScalePrompt_ = now;
    lastScaleToken_ = now;
}

void
Autoscaler::finishUnpark(int machine_id, core::PoolType pool)
{
    pendingUnparks_.erase(machine_id);
    auto& pending_up = pool == core::PoolType::kPrompt ? pendingUpPrompt_
                                                       : pendingUpToken_;
    if (pending_up > 0)
        --pending_up;
    core::ClusterScheduler& cls = cluster_.scheduler();
    // Failed or emergency-restored while the lead time ran.
    if (!cls.inStandby(machine_id))
        return;
    engine::Machine* m =
        cluster_.machines()[static_cast<std::size_t>(machine_id)].get();
    if (m->parked())
        m->unpark();
    cls.restore(machine_id, pool);
    ++scaleUps_;
    record(ActionType::kScaleUp, machine_id, pool);
}

void
Autoscaler::scaleDown(core::PoolType pool)
{
    core::ClusterScheduler& cls = cluster_.scheduler();
    // Retire the highest-id routed machine of this origin: a stable,
    // deterministic choice that tends to concentrate surviving load
    // on the low-id machines.
    const auto& machines = cluster_.machines();
    for (auto it = machines.rbegin(); it != machines.rend(); ++it) {
        const int id = (*it)->id();
        if (!cls.contains(id) || cls.originOf(id) != pool)
            continue;
        cls.retire(id);
        pendingDrains_[id] = {/*park=*/true, pool};
        record(ActionType::kScaleDownStart, id, pool);
        auto& last = pool == core::PoolType::kPrompt ? lastScalePrompt_
                                                     : lastScaleToken_;
        last = cluster_.simulator().now();
        return;
    }
}

bool
Autoscaler::budgetAdmits(const engine::Machine& candidate,
                         core::PoolType as) const
{
    if (config_.powerBudgetWatts <= 0.0)
        return true;
    const core::ClusterScheduler& cls = cluster_.scheduler();
    const auto floor_of = [&](core::PoolType origin) {
        return origin == core::PoolType::kToken ? config_.tokenCapFloor
                                                : config_.promptCapFloor;
    };
    // Even at the deepest caps, would the fleet plus the candidate
    // fit? If not, the brownout ladder has to absorb the surge.
    double watts = candidate.spec().provisionedPowerWatts() * floor_of(as);
    for (const auto& m : cluster_.machines()) {
        if (m->parked() || m->id() == candidate.id())
            continue;
        watts += m->spec().provisionedPowerWatts() *
                 floor_of(cls.originOf(m->id()));
    }
    return watts <= config_.powerBudgetWatts;
}

void
Autoscaler::fillReport(core::RunReport& report) const
{
    core::ControlReport& c = report.control;
    c.enabled = true;
    c.ticks = ticks_;
    c.scaleUps = scaleUps_;
    c.scaleDowns = scaleDowns_;
    c.roleFlexes = roleFlexes_;
    c.brownoutTransitions = brownoutTransitions_;
    c.maxBrownoutLevel = maxBrownoutLevel_;
    c.brownoutUs = brownoutUs_;
    if (cluster_.scheduler().brownoutLevel() > 0)
        c.brownoutUs += report.simulatedUs - brownoutSince_;
    c.powerCapChanges = powerCapChanges_;
    c.emergencyRestores = cluster_.emergencyRestores();
    const sim::TimeUs powered =
        report.promptPool.poweredUs + report.tokenPool.poweredUs;
    c.machineHours = sim::usToSeconds(powered) / 3600.0;
    c.costDollars =
        report.promptPool.costDollars + report.tokenPool.costDollars;
    c.totalEnergyWh = report.promptPool.energyWh +
                      report.promptPool.idleEnergyWh +
                      report.tokenPool.energyWh +
                      report.tokenPool.idleEnergyWh;
    c.sloAttainment = core::sloAttainment(monitor_.checker(), report.requests,
                                          report.submitted, config_.slos);
}

}  // namespace splitwise::control
