#include "engine/block_manager.h"

#include <algorithm>

#include "sim/log.h"

namespace splitwise::engine {

BlockManager::BlockManager(std::int64_t capacity_tokens, int block_size_tokens)
    : blockSize_(block_size_tokens)
{
    if (block_size_tokens <= 0)
        sim::fatal("BlockManager: block size must be positive");
    if (capacity_tokens < 0)
        sim::fatal("BlockManager: negative capacity");
    totalBlocks_ = capacity_tokens / blockSize_;
}

std::int64_t
BlockManager::blocksFor(std::int64_t tokens) const
{
    return (tokens + blockSize_ - 1) / blockSize_;
}

bool
BlockManager::canAllocate(std::int64_t tokens) const
{
    return blocksFor(tokens) <= freeBlocks() + reclaimableBlocks_;
}

bool
BlockManager::reclaimFor(std::int64_t need_blocks)
{
    while (freeBlocks() < need_blocks) {
        if (idle_.empty())
            return false;
        const auto victim = prefixes_.find(idle_.begin()->second);
        idle_.erase(idle_.begin());
        usedBlocks_ -= victim->second.blocks;
        usedTokens_ -= victim->second.tokens;
        sharedBlocks_ -= victim->second.blocks;
        sharedTokens_ -= victim->second.tokens;
        reclaimableBlocks_ -= victim->second.blocks;
        reclaimableTokens_ -= victim->second.tokens;
        ++stats_.evictions;
        prefixes_.erase(victim);
    }
    return true;
}

void
BlockManager::pin(std::uint64_t key, SharedPrefix& entry)
{
    if (entry.refcount++ == 0) {
        reclaimableBlocks_ -= entry.blocks;
        reclaimableTokens_ -= entry.tokens;
        idle_.erase({entry.lastUse, key});
    }
}

void
BlockManager::unpin(std::uint64_t key, SharedPrefix& entry)
{
    if (--entry.refcount == 0) {
        reclaimableBlocks_ += entry.blocks;
        reclaimableTokens_ += entry.tokens;
        idle_.insert({entry.lastUse, key});
    }
}

void
BlockManager::touch(std::uint64_t key, SharedPrefix& entry)
{
    const std::uint64_t last = entry.lastUse;
    entry.lastUse = ++useTick_;
    if (entry.refcount != 0)
        return;
    // Reuse the index node: a touch is a move, not a reallocation,
    // and the newest tick always lands at the back.
    auto node = idle_.extract({last, key});
    if (node.empty())
        sim::panic("BlockManager: idle prefix missing from eviction index");
    node.value().first = entry.lastUse;
    idle_.insert(idle_.end(), std::move(node));
}

bool
BlockManager::allocate(std::uint64_t request_id, std::int64_t tokens)
{
    if (tokens < 0)
        sim::panic("BlockManager::allocate with negative tokens");
    if (table_.contains(request_id))
        return false;
    const std::int64_t prefix = prefixTokensHeldBy(request_id);
    const std::int64_t effective = std::max<std::int64_t>(0, tokens - prefix);
    const std::int64_t need = blocksFor(effective);
    if (need > freeBlocks() && !reclaimFor(need))
        return false;
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    slots_[slot] = {request_id, effective, need, prefix};
    table_[request_id] = slot;
    usedBlocks_ += need;
    usedTokens_ += effective;
    return true;
}

std::uint32_t
BlockManager::slotOf(std::uint64_t request_id) const
{
    const std::uint32_t* slot = table_.find(request_id);
    return slot == nullptr ? kNoSlot : *slot;
}

bool
BlockManager::slotHeldBy(std::uint32_t slot, std::uint64_t request_id) const
{
    return slot != kNoSlot && slotOf(request_id) == slot;
}

bool
BlockManager::canExtend(std::uint64_t request_id,
                        std::int64_t new_total_tokens) const
{
    const std::uint32_t* slot = table_.find(request_id);
    if (slot == nullptr)
        return false;
    const Allocation& alloc = slots_[*slot];
    const std::int64_t effective =
        std::max<std::int64_t>(0, new_total_tokens - alloc.prefixTokens);
    const std::int64_t need = blocksFor(effective) - alloc.blocks;
    return need <= freeBlocks() + reclaimableBlocks_;
}

bool
BlockManager::extend(std::uint64_t request_id, std::int64_t new_total_tokens)
{
    const std::uint32_t* slot = table_.find(request_id);
    return slot != nullptr && extendAt(*slot, new_total_tokens);
}

bool
BlockManager::growBlocks(Allocation& alloc, std::int64_t effective)
{
    const std::int64_t need = blocksFor(effective) - alloc.blocks;
    // reclaimFor() only erases prefix entries: alloc stays valid.
    if (need > freeBlocks() && !reclaimFor(need))
        return false;
    usedTokens_ += effective - alloc.tokens;
    alloc.tokens = effective;
    alloc.blocks += need;
    usedBlocks_ += need;
    return true;
}

void
BlockManager::release(std::uint64_t request_id)
{
    if (const std::uint32_t* slot = table_.find(request_id)) {
        const Allocation& alloc = slots_[*slot];
        usedBlocks_ -= alloc.blocks;
        usedTokens_ -= alloc.tokens;
        freeSlots_.push_back(*slot);
        table_.erase(request_id);
    }
    const auto pin = pins_.find(request_id);
    if (pin != pins_.end()) {
        const auto entry = prefixes_.find(pin->second.key);
        if (entry == prefixes_.end())
            sim::panic("BlockManager::release: pin on evicted prefix");
        unpin(entry->first, entry->second);
        pins_.erase(pin);
    }
}

bool
BlockManager::holds(std::uint64_t request_id) const
{
    return table_.contains(request_id);
}

std::int64_t
BlockManager::tokensOf(std::uint64_t request_id) const
{
    const std::uint32_t* slot = table_.find(request_id);
    return slot == nullptr ? 0 : slots_[*slot].tokens;
}

std::vector<std::uint64_t>
BlockManager::heldRequestIds() const
{
    std::vector<std::uint64_t> ids;
    ids.reserve(table_.size());
    table_.forEach(
        [&ids](std::uint64_t id, std::uint32_t) { ids.push_back(id); });
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
BlockManager::reset()
{
    slots_.clear();
    freeSlots_.clear();
    table_.clear();
    prefixes_.clear();
    idle_.clear();
    pins_.clear();
    usedBlocks_ = 0;
    usedTokens_ = 0;
    sharedBlocks_ = 0;
    sharedTokens_ = 0;
    reclaimableBlocks_ = 0;
    reclaimableTokens_ = 0;
    useTick_ = 0;
}

std::int64_t
BlockManager::lookupPrefix(std::uint64_t key)
{
    const auto it = prefixes_.find(key);
    if (it == prefixes_.end())
        return 0;
    touch(key, it->second);
    return it->second.tokens;
}

bool
BlockManager::storePrefix(std::uint64_t key, std::int64_t tokens)
{
    if (tokens <= 0)
        sim::panic("BlockManager::storePrefix with non-positive tokens");
    const auto it = prefixes_.find(key);
    if (it != prefixes_.end()) {
        SharedPrefix& entry = it->second;
        if (tokens <= entry.tokens) {
            touch(key, entry);
            return true;
        }
        const std::int64_t delta = blocksFor(tokens) - entry.blocks;
        // A refcount-zero entry must not be cannibalized to grow
        // itself, so it is temporarily pinned (out of the eviction
        // index) around the reclaim.
        pin(key, entry);
        const bool fits = delta <= freeBlocks() || reclaimFor(delta);
        unpin(key, entry);
        if (!fits)
            return false;
        const std::int64_t token_delta = tokens - entry.tokens;
        entry.tokens = tokens;
        entry.blocks += delta;
        usedBlocks_ += delta;
        usedTokens_ += token_delta;
        sharedBlocks_ += delta;
        sharedTokens_ += token_delta;
        if (entry.refcount == 0) {
            reclaimableBlocks_ += delta;
            reclaimableTokens_ += token_delta;
        }
        touch(key, entry);
        ++stats_.stores;
        return true;
    }
    const std::int64_t need = blocksFor(tokens);
    if (need > freeBlocks() && !reclaimFor(need))
        return false;
    SharedPrefix entry;
    entry.tokens = tokens;
    entry.blocks = need;
    entry.lastUse = ++useTick_;
    prefixes_.emplace(key, entry);
    idle_.emplace_hint(idle_.end(), entry.lastUse, key);
    usedBlocks_ += need;
    usedTokens_ += tokens;
    sharedBlocks_ += need;
    sharedTokens_ += tokens;
    reclaimableBlocks_ += need;
    reclaimableTokens_ += tokens;
    ++stats_.stores;
    return true;
}

bool
BlockManager::acquirePrefix(std::uint64_t key, std::uint64_t request_id)
{
    const auto it = prefixes_.find(key);
    if (it == prefixes_.end() || pins_.count(request_id) > 0) {
        ++stats_.misses;
        return false;
    }
    SharedPrefix& entry = it->second;
    pin(key, entry);
    pins_[request_id] = {key, entry.tokens};
    if (const std::uint32_t* slot = table_.find(request_id))
        slots_[*slot].prefixTokens = entry.tokens;
    touch(key, entry);
    ++stats_.hits;
    stats_.hitTokens += entry.tokens;
    return true;
}

std::int64_t
BlockManager::prefixTokensHeldBy(std::uint64_t request_id) const
{
    const auto it = pins_.find(request_id);
    return it == pins_.end() ? 0 : it->second.tokens;
}

std::int64_t
BlockManager::prefixRefcount(std::uint64_t key) const
{
    const auto it = prefixes_.find(key);
    return it == prefixes_.end() ? -1 : it->second.refcount;
}

std::vector<PrefixReference>
BlockManager::prefixReferences() const
{
    std::vector<PrefixReference> refs;
    refs.reserve(pins_.size());
    for (const auto& [id, pin] : pins_)
        refs.push_back({id, pin.key, pin.tokens});
    std::sort(refs.begin(), refs.end(),
              [](const PrefixReference& a, const PrefixReference& b) {
                  return a.requestId < b.requestId;
              });
    return refs;
}

std::string
BlockManager::audit() const
{
    std::int64_t blocks = 0;
    std::int64_t tokens = 0;
    std::string error;
    table_.forEach([&](std::uint64_t id, std::uint32_t slot) {
        if (!error.empty())
            return;
        if (slot >= slots_.size() || slots_[slot].requestId != id) {
            error = "table maps request " + std::to_string(id) +
                    " to slot " + std::to_string(slot) +
                    ", which it does not own";
            return;
        }
        const Allocation& alloc = slots_[slot];
        if (alloc.tokens < 0 || alloc.blocks < 0) {
            error = "allocation for request " + std::to_string(id) +
                    " has negative size";
        } else if (alloc.blocks != blocksFor(alloc.tokens)) {
            error = "allocation for request " + std::to_string(id) +
                    " holds " + std::to_string(alloc.blocks) +
                    " blocks for " + std::to_string(alloc.tokens) +
                    " tokens (expected " +
                    std::to_string(blocksFor(alloc.tokens)) + ")";
        } else if (alloc.prefixTokens != prefixTokensHeldBy(id)) {
            error = "allocation for request " + std::to_string(id) +
                    " caches a " + std::to_string(alloc.prefixTokens) +
                    "-token prefix but pins " +
                    std::to_string(prefixTokensHeldBy(id));
        }
        blocks += alloc.blocks;
        tokens += alloc.tokens;
    });
    if (!error.empty())
        return error;
    // Owned slots are distinct (each names its own request), so the
    // table and the free list partition the slab when the counts add
    // up and no free slot is owned.
    if (table_.size() + freeSlots_.size() != slots_.size()) {
        return "slab of " + std::to_string(slots_.size()) + " slots != " +
               std::to_string(table_.size()) + " held + " +
               std::to_string(freeSlots_.size()) + " free";
    }
    for (const std::uint32_t slot : freeSlots_) {
        if (slot >= slots_.size() ||
            slotOf(slots_[slot].requestId) == slot) {
            return "free slot " + std::to_string(slot) +
                   " is out of range or still held";
        }
    }
    std::unordered_map<std::uint64_t, std::int64_t> pin_counts;
    for (const auto& [id, pin] : pins_) {
        const auto entry = prefixes_.find(pin.key);
        if (entry == prefixes_.end()) {
            return "request " + std::to_string(id) +
                   " pins evicted prefix " + std::to_string(pin.key);
        }
        if (pin.tokens <= 0 || pin.tokens > entry->second.tokens) {
            return "request " + std::to_string(id) + " pins " +
                   std::to_string(pin.tokens) + " tokens of prefix " +
                   std::to_string(pin.key) + " holding " +
                   std::to_string(entry->second.tokens);
        }
        ++pin_counts[pin.key];
    }
    std::int64_t shared_blocks = 0;
    std::int64_t shared_tokens = 0;
    std::int64_t reclaim_blocks = 0;
    std::int64_t reclaim_tokens = 0;
    std::size_t idle = 0;
    for (const auto& [key, entry] : prefixes_) {
        if (entry.tokens <= 0 || entry.blocks != blocksFor(entry.tokens)) {
            return "prefix " + std::to_string(key) + " holds " +
                   std::to_string(entry.blocks) + " blocks for " +
                   std::to_string(entry.tokens) + " tokens";
        }
        const auto counted = pin_counts.find(key);
        const std::int64_t pinned =
            counted == pin_counts.end() ? 0 : counted->second;
        if (entry.refcount != pinned) {
            return "prefix " + std::to_string(key) + " refcount " +
                   std::to_string(entry.refcount) + " != " +
                   std::to_string(pinned) + " per-request references";
        }
        shared_blocks += entry.blocks;
        shared_tokens += entry.tokens;
        if (entry.refcount == 0) {
            reclaim_blocks += entry.blocks;
            reclaim_tokens += entry.tokens;
            ++idle;
            if (idle_.count({entry.lastUse, key}) == 0) {
                return "idle prefix " + std::to_string(key) +
                       " missing from the eviction index at lastUse " +
                       std::to_string(entry.lastUse);
            }
        }
    }
    if (idle != idle_.size()) {
        return "eviction index holds " + std::to_string(idle_.size()) +
               " entries for " + std::to_string(idle) + " idle prefixes";
    }
    if (shared_blocks != sharedBlocks_ || shared_tokens != sharedTokens_) {
        return "shared aggregates (" + std::to_string(sharedBlocks_) + "," +
               std::to_string(sharedTokens_) + ") != entry sums (" +
               std::to_string(shared_blocks) + "," +
               std::to_string(shared_tokens) + ")";
    }
    if (reclaim_blocks != reclaimableBlocks_ ||
        reclaim_tokens != reclaimableTokens_) {
        return "reclaimable aggregates (" +
               std::to_string(reclaimableBlocks_) + "," +
               std::to_string(reclaimableTokens_) + ") != entry sums (" +
               std::to_string(reclaim_blocks) + "," +
               std::to_string(reclaim_tokens) + ")";
    }
    if (blocks + shared_blocks != usedBlocks_) {
        return "used-block aggregate " + std::to_string(usedBlocks_) +
               " != table sum " + std::to_string(blocks + shared_blocks);
    }
    if (tokens + shared_tokens != usedTokens_) {
        return "used-token aggregate " + std::to_string(usedTokens_) +
               " != table sum " + std::to_string(tokens + shared_tokens);
    }
    if (usedBlocks_ < 0 || usedBlocks_ > totalBlocks_) {
        return "used blocks " + std::to_string(usedBlocks_) +
               " outside [0, " + std::to_string(totalBlocks_) + "]";
    }
    return "";
}

double
BlockManager::utilization() const
{
    if (totalBlocks_ == 0)
        return 0.0;
    return static_cast<double>(usedBlocks_) / static_cast<double>(totalBlocks_);
}

double
BlockManager::committedUtilization() const
{
    if (totalBlocks_ == 0)
        return 0.0;
    return static_cast<double>(usedBlocks_ - reclaimableBlocks_) /
           static_cast<double>(totalBlocks_);
}

}  // namespace splitwise::engine
