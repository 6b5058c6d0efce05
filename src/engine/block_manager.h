#ifndef SPLITWISE_ENGINE_BLOCK_MANAGER_H_
#define SPLITWISE_ENGINE_BLOCK_MANAGER_H_

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/flat_map.h"

namespace splitwise::engine {

/** Hit/miss/evict accounting for the shared-prefix tier. Survives
 *  reset() so a machine's counters span crash/recovery cycles. */
struct PrefixCacheStats {
    /** Successful prefix acquisitions (one per reusing request). */
    std::uint64_t hits = 0;
    /** Failed acquisitions: the prefix was evicted, or the request
     *  was routed to a machine that never held it. The scheduling
     *  policy counts directory-level misses separately. */
    std::uint64_t misses = 0;
    /** Refcount-zero prefixes evicted under memory pressure. */
    std::uint64_t evictions = 0;
    /** Prefix inserts plus in-place growths. */
    std::uint64_t stores = 0;
    /** Prompt tokens skipped across all hits. */
    std::int64_t hitTokens = 0;
};

/** One request's pin on a shared prefix (for the DST checker). */
struct PrefixReference {
    std::uint64_t requestId = 0;
    std::uint64_t key = 0;
    /** The prefix size when acquired; the entry may grow later. */
    std::int64_t tokens = 0;
};

/**
 * Paged KV-cache allocator, in the style of vLLM's block manager.
 *
 * GPU memory for the KV cache is carved into fixed-size blocks of
 * @c blockSize tokens. Each request owns a block table that grows as
 * its context grows during decoding. Paging eliminates external
 * fragmentation; internal fragmentation is at most one block per
 * request, which utilization() accounts for.
 *
 * Allocations live in a slab: a request's slot index stays valid
 * while it holds the allocation, so a caller that cached it
 * (slotOf()) grows the context with extendAt() and no table probe.
 *
 * On top of the per-request tables sits a shared-prefix tier for
 * session KV reuse: ref-counted prefix entries keyed by session,
 * evicted LRU-at-refcount-zero, and evicted automatically whenever a
 * per-request allocation needs the space (the cache is strictly
 * opportunistic use of free memory). A request that acquirePrefix()'d
 * an entry has that many tokens of its context priced out of its own
 * allocations: allocate()/extend() are called with full context sizes
 * and deduct the pinned prefix internally.
 */
class BlockManager {
  public:
    /**
     * @param capacity_tokens Total KV capacity in tokens.
     * @param block_size_tokens Tokens per block (vLLM default 16).
     */
    BlockManager(std::int64_t capacity_tokens, int block_size_tokens = 16);

    /** Total blocks in the pool. */
    std::int64_t totalBlocks() const { return totalBlocks_; }

    /** Total token capacity of the pool. */
    std::int64_t
    tokenCapacity() const
    {
        return totalBlocks_ * blockSize_;
    }

    /** Currently unallocated blocks. */
    std::int64_t freeBlocks() const { return totalBlocks_ - usedBlocks_; }

    /** Tokens that could still be stored in free blocks. */
    std::int64_t
    freeTokens() const
    {
        return freeBlocks() * blockSize_;
    }

    /** Blocks needed to hold @p tokens. */
    std::int64_t blocksFor(std::int64_t tokens) const;

    /** True when @p tokens more could be allocated right now,
     *  counting reclaimable (refcount-zero) prefix blocks as free. */
    bool canAllocate(std::int64_t tokens) const;

    /**
     * Allocate the block table for a new request holding @p tokens
     * of context. A pinned shared prefix (acquirePrefix) is deducted
     * from @p tokens first; refcount-zero prefixes are evicted LRU as
     * needed to make room.
     *
     * @return false (and allocate nothing) when the pool is full or
     *     the request already holds an allocation.
     */
    bool allocate(std::uint64_t request_id, std::int64_t tokens);

    /**
     * Grow a request's context to @p new_total_tokens, allocating
     * blocks as needed (net of any pinned shared prefix, evicting
     * reclaimable prefixes as needed).
     *
     * @return false (leaving the allocation untouched) when the pool
     *     cannot cover the growth.
     */
    bool extend(std::uint64_t request_id, std::int64_t new_total_tokens);

    /** Returned by slotOf() for a request without an allocation. */
    static constexpr std::uint32_t kNoSlot =
        std::numeric_limits<std::uint32_t>::max();

    /**
     * Slab slot of @p request_id's allocation (kNoSlot if absent).
     * It stays valid until the request's allocation is released.
     */
    std::uint32_t slotOf(std::uint64_t request_id) const;

    /** True when @p slot holds @p request_id's allocation. */
    bool slotHeldBy(std::uint32_t slot, std::uint64_t request_id) const;

    /**
     * extend() by slab slot (see slotOf()): the per-decode-token
     * path. Growth within the allocation's last block updates the
     * token counts only; a block boundary falls through to the
     * out-of-line allocation path.
     */
    bool
    extendAt(std::uint32_t slot, std::int64_t new_total_tokens)
    {
        Allocation& alloc = slots_[slot];
        const std::int64_t effective = new_total_tokens - alloc.prefixTokens;
        // Contexts only grow; a no-op extension is still a success.
        if (effective <= alloc.tokens)
            return true;
        if (effective > alloc.blocks * blockSize_)
            return growBlocks(alloc, effective);
        usedTokens_ += effective - alloc.tokens;
        alloc.tokens = effective;
        return true;
    }

    /** Check whether extend() to @p new_total_tokens would succeed. */
    bool canExtend(std::uint64_t request_id,
                   std::int64_t new_total_tokens) const;

    /** Release a request's blocks and drop its shared-prefix pin (if
     *  any); no-op for unknown ids. */
    void release(std::uint64_t request_id);

    /** True when the request holds an allocation. */
    bool holds(std::uint64_t request_id) const;

    /** Tokens recorded for the request's own allocation, net of any
     *  pinned shared prefix (0 if absent). */
    std::int64_t tokensOf(std::uint64_t request_id) const;

    /** Total context tokens currently stored (pre-rounding),
     *  including the shared-prefix tier. */
    std::int64_t usedTokens() const { return usedTokens_; }

    /** usedTokens() minus reclaimable (refcount-zero) prefix tokens:
     *  the load a scheduler should see, since the cache yields to
     *  real traffic. Equal to usedTokens() when the cache is empty. */
    std::int64_t
    committedTokens() const
    {
        return usedTokens_ - reclaimableTokens_;
    }

    /** Fraction of blocks in use (including the shared tier). */
    double utilization() const;

    /** Fraction of blocks in use that cannot be reclaimed by
     *  evicting refcount-zero prefixes. */
    double committedUtilization() const;

    /** Number of requests holding allocations. */
    std::size_t residents() const { return table_.size(); }

    /** Ids of every request holding an allocation (sorted). */
    std::vector<std::uint64_t> heldRequestIds() const;

    /**
     * Drop every allocation, prefix entry, and prefix pin, returning
     * the pool to empty. Stats survive: a machine crash wipes its KV
     * (and its cached prefixes) but not its lifetime counters.
     */
    void reset();

    // Shared-prefix tier -------------------------------------------------

    /**
     * Cached prefix tokens for @p key (0 = not cached). Bumps the
     * entry's LRU position: the caller is about to route against it.
     */
    std::int64_t lookupPrefix(std::uint64_t key);

    /**
     * Insert or grow the cached prefix for @p key to @p tokens,
     * evicting refcount-zero prefixes LRU as needed. Entries never
     * shrink; storing fewer tokens than cached just bumps the LRU.
     *
     * @return false (cache unchanged) when the pool cannot make room.
     */
    bool storePrefix(std::uint64_t key, std::int64_t tokens);

    /**
     * Pin the prefix for @p key on behalf of @p request_id:
     * refcount+1, and the entry's current size is deducted from the
     * request's subsequent allocate()/extend() calls. Counted as a
     * hit; a pinned entry cannot be evicted.
     *
     * @return false (counted as a miss) when the key is not cached or
     *     the request already pins a prefix.
     */
    bool acquirePrefix(std::uint64_t key, std::uint64_t request_id);

    /** The tokens pinned by @p request_id's prefix reference (0 if
     *  none): the request's acquire-time prefix size. */
    std::int64_t prefixTokensHeldBy(std::uint64_t request_id) const;

    /** Number of cached prefix entries. */
    std::size_t sharedPrefixCount() const { return prefixes_.size(); }

    /** Blocks held by the shared-prefix tier. */
    std::int64_t sharedBlocks() const { return sharedBlocks_; }

    /** Refcount of @p key's entry; -1 when not cached. */
    std::int64_t prefixRefcount(std::uint64_t key) const;

    /** Every live prefix pin, sorted by request id (DST checker). */
    std::vector<PrefixReference> prefixReferences() const;

    /** Lifetime hit/miss/evict/store counters. */
    const PrefixCacheStats& prefixStats() const { return stats_; }

    /**
     * Audit the allocator's internal accounting: per-allocation block
     * counts match blocksFor(), the used-block/used-token aggregates
     * equal the table sums (private tables plus the shared tier),
     * per-entry refcounts equal the number of pins pointing at them,
     * every allocation's cached prefix size equals its pin's
     * acquire-time tokens (0 without a pin), the table and the slab's
     * free list partition the slab, the eviction index holds exactly
     * the refcount-zero prefixes at their LRU positions, and usage
     * stays within [0, capacity]. The DST invariant checker
     * calls this at every quiescent point; a leak or double-release
     * shows up as an aggregate mismatch.
     *
     * @return Empty string when consistent, else a description of
     *     the first inconsistency found.
     */
    std::string audit() const;

  private:
    struct Allocation {
        std::uint64_t requestId = 0;
        std::int64_t tokens = 0;
        std::int64_t blocks = 0;
        /** The request's pinned prefix size (its pin's acquire-time
         *  tokens, 0 without a pin), cached here so extendAt() needs
         *  no pin lookup per decode token. */
        std::int64_t prefixTokens = 0;
    };

    struct SharedPrefix {
        std::int64_t tokens = 0;
        std::int64_t blocks = 0;
        std::int64_t refcount = 0;
        /** LRU position: larger = more recently used. */
        std::uint64_t lastUse = 0;
    };

    struct PrefixPin {
        std::uint64_t key = 0;
        std::int64_t tokens = 0;
    };

    /** (lastUse, key) of a refcount-zero prefix: eviction order. */
    using IdleKey = std::pair<std::uint64_t, std::uint64_t>;

    /** extendAt()'s block-boundary path: allocate the blocks that
     *  growing @p alloc to @p effective private tokens needs. */
    bool growBlocks(Allocation& alloc, std::int64_t effective);

    /** Evict refcount-zero prefixes (LRU first, key as tie-break)
     *  until at least @p need_blocks are free. */
    bool reclaimFor(std::int64_t need_blocks);

    /** Refcount +1; a 0 -> 1 pin leaves the reclaimable tier and the
     *  eviction index. */
    void pin(std::uint64_t key, SharedPrefix& entry);

    /** Refcount -1; a drop to 0 rejoins the reclaimable tier and the
     *  eviction index at the entry's lastUse position. */
    void unpin(std::uint64_t key, SharedPrefix& entry);

    /** Mark the entry most recently used, moving it to the back of
     *  the eviction index when it is idle there. */
    void touch(std::uint64_t key, SharedPrefix& entry);

    std::int64_t totalBlocks_ = 0;
    std::int64_t usedBlocks_ = 0;
    std::int64_t usedTokens_ = 0;
    std::int64_t sharedBlocks_ = 0;
    std::int64_t sharedTokens_ = 0;
    std::int64_t reclaimableBlocks_ = 0;
    std::int64_t reclaimableTokens_ = 0;
    int blockSize_ = 16;
    std::uint64_t useTick_ = 0;
    /** Allocation slab; a slot is reused once its request releases. */
    std::vector<Allocation> slots_;
    std::vector<std::uint32_t> freeSlots_;
    /** Request id -> slab slot, for the by-id calls. */
    sim::FlatMap<std::uint64_t, std::uint32_t> table_;
    std::unordered_map<std::uint64_t, SharedPrefix> prefixes_;
    /** The refcount-zero prefixes in eviction order. */
    std::set<IdleKey> idle_;
    std::unordered_map<std::uint64_t, PrefixPin> pins_;
    PrefixCacheStats stats_;
};

}  // namespace splitwise::engine

#endif  // SPLITWISE_ENGINE_BLOCK_MANAGER_H_
