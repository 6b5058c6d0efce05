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
        // LRU victim among refcount-zero entries; key breaks ties
        // deterministically. O(entries) per eviction is fine at
        // cache sizes a machine can hold.
        auto victim = prefixes_.end();
        for (auto it = prefixes_.begin(); it != prefixes_.end(); ++it) {
            if (it->second.refcount != 0)
                continue;
            if (victim == prefixes_.end() ||
                it->second.lastUse < victim->second.lastUse ||
                (it->second.lastUse == victim->second.lastUse &&
                 it->first < victim->first)) {
                victim = it;
            }
        }
        if (victim == prefixes_.end())
            return false;
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
    table_[request_id] = {effective, need, prefix};
    usedBlocks_ += need;
    usedTokens_ += effective;
    return true;
}

bool
BlockManager::canExtend(std::uint64_t request_id,
                        std::int64_t new_total_tokens) const
{
    const Allocation* alloc = table_.find(request_id);
    if (alloc == nullptr)
        return false;
    const std::int64_t effective =
        std::max<std::int64_t>(0, new_total_tokens - alloc->prefixTokens);
    const std::int64_t need = blocksFor(effective) - alloc->blocks;
    return need <= freeBlocks() + reclaimableBlocks_;
}

bool
BlockManager::extend(std::uint64_t request_id, std::int64_t new_total_tokens)
{
    Allocation* alloc = table_.find(request_id);
    if (alloc == nullptr)
        return false;
    const std::int64_t effective =
        std::max<std::int64_t>(0, new_total_tokens - alloc->prefixTokens);
    if (effective <= alloc->tokens) {
        // Contexts only grow; a no-op extension is still a success.
        return true;
    }
    const std::int64_t need = blocksFor(effective) - alloc->blocks;
    // reclaimFor() only erases prefix entries: alloc stays valid.
    if (need > freeBlocks() && !reclaimFor(need))
        return false;
    usedTokens_ += effective - alloc->tokens;
    alloc->tokens = effective;
    alloc->blocks += need;
    usedBlocks_ += need;
    return true;
}

void
BlockManager::release(std::uint64_t request_id)
{
    if (const Allocation* alloc = table_.find(request_id)) {
        usedBlocks_ -= alloc->blocks;
        usedTokens_ -= alloc->tokens;
        table_.erase(request_id);
    }
    const auto pin = pins_.find(request_id);
    if (pin != pins_.end()) {
        const auto entry = prefixes_.find(pin->second.key);
        if (entry == prefixes_.end())
            sim::panic("BlockManager::release: pin on evicted prefix");
        if (--entry->second.refcount == 0) {
            reclaimableBlocks_ += entry->second.blocks;
            reclaimableTokens_ += entry->second.tokens;
        }
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
    const Allocation* alloc = table_.find(request_id);
    return alloc == nullptr ? 0 : alloc->tokens;
}

std::vector<std::uint64_t>
BlockManager::heldRequestIds() const
{
    std::vector<std::uint64_t> ids;
    ids.reserve(table_.size());
    table_.forEach(
        [&ids](std::uint64_t id, const Allocation&) { ids.push_back(id); });
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
BlockManager::reset()
{
    table_.clear();
    prefixes_.clear();
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
    touch(it->second);
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
            touch(entry);
            return true;
        }
        const std::int64_t delta = blocksFor(tokens) - entry.blocks;
        // A refcount-zero entry must not be cannibalized to grow
        // itself, so it is temporarily pinned around the reclaim.
        ++entry.refcount;
        if (entry.refcount == 1) {
            reclaimableBlocks_ -= entry.blocks;
            reclaimableTokens_ -= entry.tokens;
        }
        const bool fits = delta <= freeBlocks() || reclaimFor(delta);
        if (--entry.refcount == 0) {
            reclaimableBlocks_ += entry.blocks;
            reclaimableTokens_ += entry.tokens;
        }
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
        touch(entry);
        ++stats_.stores;
        return true;
    }
    const std::int64_t need = blocksFor(tokens);
    if (need > freeBlocks() && !reclaimFor(need))
        return false;
    SharedPrefix entry;
    entry.tokens = tokens;
    entry.blocks = need;
    touch(entry);
    prefixes_.emplace(key, entry);
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
    if (entry.refcount == 0) {
        reclaimableBlocks_ -= entry.blocks;
        reclaimableTokens_ -= entry.tokens;
    }
    ++entry.refcount;
    pins_[request_id] = {key, entry.tokens};
    if (Allocation* alloc = table_.find(request_id))
        alloc->prefixTokens = entry.tokens;
    touch(entry);
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
    table_.forEach([&](std::uint64_t id, const Allocation& alloc) {
        if (!error.empty())
            return;
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
        }
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
