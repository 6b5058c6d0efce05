#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "sim/log.h"

namespace splitwise::sim {

namespace {

/** 4-ary heap geometry: children of i are 4i+1 .. 4i+4. */
constexpr std::uint32_t kArity = 4;

constexpr std::uint32_t
parentOf(std::uint32_t pos)
{
    return (pos - 1) / kArity;
}

constexpr std::uint32_t
firstChildOf(std::uint32_t pos)
{
    return kArity * pos + 1;
}

}  // namespace

void
EventQueue::post(TimeUs time, EventAction action, int priority)
{
    if (!action)
        panic("EventQueue: scheduling an empty action");

    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(actions_.size());
        actions_.emplace_back();
        ++poolGrowths_;
    }
    actions_[slot] = std::move(action);

    heap_.push_back({time, nextSeq_++, priority, slot});
    siftUp(static_cast<std::uint32_t>(heap_.size()) - 1);
    ++scheduled_;
}

TimeUs
EventQueue::nextTime() const
{
    return heap_.empty() ? kTimeNever : heap_.front().time;
}

Event
EventQueue::pop()
{
    if (heap_.empty())
        panic("EventQueue::pop on empty queue");
    const Node top = heap_.front();

    // Moving the action out empties its slot, which is recycled
    // before the callback runs, so the callback can post into it.
    Event ev{top.time, top.priority, std::move(actions_[top.slot])};
    free_.push_back(top.slot);

    heap_.front() = heap_.back();
    heap_.pop_back();
    siftDown(0);
    return ev;
}

void
EventQueue::siftUp(std::uint32_t pos)
{
    const Node node = heap_[pos];
    while (pos > 0) {
        const std::uint32_t parent = parentOf(pos);
        if (!before(node, heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        pos = parent;
    }
    heap_[pos] = node;
}

void
EventQueue::siftDown(std::uint32_t pos)
{
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    if (n == 0)
        return;
    const Node node = heap_[pos];
    while (true) {
        const std::uint32_t first = firstChildOf(pos);
        if (first >= n)
            break;
        std::uint32_t best = first;
        const std::uint32_t end = std::min(first + kArity, n);
        for (std::uint32_t c = first + 1; c < end; ++c) {
            if (before(heap_[c], heap_[best]))
                best = c;
        }
        if (!before(heap_[best], node))
            break;
        heap_[pos] = heap_[best];
        pos = best;
    }
    heap_[pos] = node;
}

void
EventQueue::reserve(std::size_t events)
{
    heap_.reserve(events);
    free_.reserve(events);
    while (actions_.size() < events) {
        actions_.emplace_back();
        free_.push_back(static_cast<std::uint32_t>(actions_.size() - 1));
    }
}

std::string
EventQueue::integrityError() const
{
    if (heap_.size() + free_.size() != actions_.size()) {
        return "slot accounting broken: " + std::to_string(heap_.size()) +
               " in heap + " + std::to_string(free_.size()) + " free != " +
               std::to_string(actions_.size()) + " pooled";
    }
    for (std::uint32_t pos = 0; pos < heap_.size(); ++pos) {
        const std::uint32_t slot = heap_[pos].slot;
        if (slot >= actions_.size())
            return "heap entry " + std::to_string(pos) + " out of pool";
        if (!actions_[slot])
            return "pending slot " + std::to_string(slot) +
                   " holds no action";
        if (pos > 0 && before(heap_[pos], heap_[parentOf(pos)])) {
            return "heap property violated at position " +
                   std::to_string(pos);
        }
    }
    for (const std::uint32_t slot : free_) {
        if (slot >= actions_.size())
            return "free-list entry out of pool";
        if (actions_[slot])
            return "free slot " + std::to_string(slot) +
                   " still holds an action";
    }
    return {};
}

}  // namespace splitwise::sim
