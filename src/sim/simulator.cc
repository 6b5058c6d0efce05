#include "sim/simulator.h"

#include <string>

#include "sim/log.h"

namespace splitwise::sim {

void
Simulator::panicPast(TimeUs time) const
{
    panic("Simulator: scheduling at t=" + std::to_string(time) +
          "us, before now=" + std::to_string(now_) + "us");
}

void
Simulator::panicNegativeDelay() const
{
    panic("Simulator: scheduling with negative delay");
}

Simulator::HookId
Simulator::addTimeAdvanceHook(TimeAdvanceHook hook)
{
    hooks_.push_back(std::move(hook));
    return hooks_.size() - 1;
}

void
Simulator::removeTimeAdvanceHook(HookId id)
{
    if (id < hooks_.size())
        hooks_[id] = nullptr;
}

void
Simulator::fireTimeAdvance(TimeUs next)
{
    for (const auto& hook : hooks_) {
        if (hook)
            hook(next);
    }
}

std::uint64_t
Simulator::run(TimeUs until)
{
    std::uint64_t ran = 0;
    stopRequested_ = false;
    while (!queue_.empty() && !stopRequested_) {
        if (queue_.nextTime() > until)
            break;
        Event ev = queue_.pop();
        if (ev.time > now_)
            fireTimeAdvance(ev.time);
        now_ = ev.time;
        ev.action();
        ++ran;
        ++executed_;
    }
    // Advancing the clock to the horizon keeps back-to-back run()
    // calls with increasing horizons consistent even when idle.
    if (until != kTimeNever && now_ < until && queue_.nextTime() > until)
        now_ = until;
    return ran;
}

bool
Simulator::step()
{
    if (queue_.empty())
        return false;
    Event ev = queue_.pop();
    if (ev.time > now_)
        fireTimeAdvance(ev.time);
    now_ = ev.time;
    ev.action();
    ++executed_;
    return true;
}

}  // namespace splitwise::sim
