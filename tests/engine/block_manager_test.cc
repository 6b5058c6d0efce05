#include "engine/block_manager.h"

#include <gtest/gtest.h>

namespace splitwise::engine {
namespace {

TEST(BlockManagerTest, CapacityRoundsDownToBlocks)
{
    BlockManager bm(100, 16);
    EXPECT_EQ(bm.totalBlocks(), 6);
    EXPECT_EQ(bm.tokenCapacity(), 96);
}

TEST(BlockManagerTest, BlocksForRoundsUp)
{
    BlockManager bm(1600, 16);
    EXPECT_EQ(bm.blocksFor(0), 0);
    EXPECT_EQ(bm.blocksFor(1), 1);
    EXPECT_EQ(bm.blocksFor(16), 1);
    EXPECT_EQ(bm.blocksFor(17), 2);
}

TEST(BlockManagerTest, AllocateAndRelease)
{
    BlockManager bm(1600, 16);
    EXPECT_TRUE(bm.allocate(1, 100));
    EXPECT_TRUE(bm.holds(1));
    EXPECT_EQ(bm.tokensOf(1), 100);
    EXPECT_EQ(bm.freeBlocks(), 100 - 7);
    EXPECT_EQ(bm.usedTokens(), 100);
    bm.release(1);
    EXPECT_FALSE(bm.holds(1));
    EXPECT_EQ(bm.freeBlocks(), 100);
    EXPECT_EQ(bm.usedTokens(), 0);
}

TEST(BlockManagerTest, DoubleAllocateFails)
{
    BlockManager bm(1600, 16);
    EXPECT_TRUE(bm.allocate(1, 10));
    EXPECT_FALSE(bm.allocate(1, 10));
}

TEST(BlockManagerTest, AllocateFailsWhenFull)
{
    BlockManager bm(160, 16);
    EXPECT_TRUE(bm.allocate(1, 100));
    EXPECT_FALSE(bm.allocate(2, 100));
    // Failed allocation changed nothing; the 3 remaining blocks
    // (48 tokens) are still allocatable.
    EXPECT_FALSE(bm.holds(2));
    EXPECT_TRUE(bm.allocate(3, 48));
}

TEST(BlockManagerTest, CanAllocateMatchesAllocate)
{
    BlockManager bm(160, 16);
    EXPECT_TRUE(bm.canAllocate(160));
    EXPECT_FALSE(bm.canAllocate(161));
    bm.allocate(1, 100);
    EXPECT_TRUE(bm.canAllocate(48));
    EXPECT_FALSE(bm.canAllocate(49));
}

TEST(BlockManagerTest, ExtendGrowsWithinBlock)
{
    BlockManager bm(1600, 16);
    bm.allocate(1, 10);
    const auto before = bm.freeBlocks();
    // Growing within the same block allocates nothing new.
    EXPECT_TRUE(bm.extend(1, 16));
    EXPECT_EQ(bm.freeBlocks(), before);
    // Crossing the boundary takes a block.
    EXPECT_TRUE(bm.extend(1, 17));
    EXPECT_EQ(bm.freeBlocks(), before - 1);
}

TEST(BlockManagerTest, ExtendFailsWhenFullAndLeavesStateIntact)
{
    BlockManager bm(32, 16);
    bm.allocate(1, 16);
    bm.allocate(2, 16);
    EXPECT_FALSE(bm.extend(1, 17));
    EXPECT_EQ(bm.tokensOf(1), 16);
    bm.release(2);
    EXPECT_TRUE(bm.extend(1, 17));
}

TEST(BlockManagerTest, ExtendShrinkIsNoOpSuccess)
{
    BlockManager bm(1600, 16);
    bm.allocate(1, 100);
    EXPECT_TRUE(bm.extend(1, 50));
    EXPECT_EQ(bm.tokensOf(1), 100);
}

TEST(BlockManagerTest, ExtendUnknownIdFails)
{
    BlockManager bm(1600, 16);
    EXPECT_FALSE(bm.extend(9, 10));
    EXPECT_FALSE(bm.canExtend(9, 10));
}

TEST(BlockManagerTest, CanExtendPredictsExtend)
{
    BlockManager bm(64, 16);
    bm.allocate(1, 16);
    bm.allocate(2, 32);
    EXPECT_TRUE(bm.canExtend(1, 32));
    EXPECT_FALSE(bm.canExtend(1, 48));
}

TEST(BlockManagerTest, ReleaseUnknownIsNoOp)
{
    BlockManager bm(160, 16);
    bm.release(42);
    EXPECT_EQ(bm.freeBlocks(), 10);
}

TEST(BlockManagerTest, UtilizationTracksUse)
{
    BlockManager bm(160, 16);
    EXPECT_DOUBLE_EQ(bm.utilization(), 0.0);
    bm.allocate(1, 80);
    EXPECT_DOUBLE_EQ(bm.utilization(), 0.5);
    bm.allocate(2, 80);
    EXPECT_DOUBLE_EQ(bm.utilization(), 1.0);
}

TEST(BlockManagerTest, ResidentsCount)
{
    BlockManager bm(160, 16);
    bm.allocate(1, 16);
    bm.allocate(2, 16);
    EXPECT_EQ(bm.residents(), 2u);
    bm.release(1);
    EXPECT_EQ(bm.residents(), 1u);
}

TEST(BlockManagerTest, ZeroTokenAllocationHoldsNothing)
{
    BlockManager bm(160, 16);
    EXPECT_TRUE(bm.allocate(1, 0));
    EXPECT_TRUE(bm.holds(1));
    EXPECT_EQ(bm.freeBlocks(), 10);
}

TEST(BlockManagerTest, ManyRequestsInternalFragmentationBounded)
{
    BlockManager bm(16000, 16);
    // 100 requests of 17 tokens: 2 blocks each despite 17 < 32.
    for (std::uint64_t i = 0; i < 100; ++i)
        ASSERT_TRUE(bm.allocate(i, 17));
    EXPECT_EQ(bm.freeBlocks(), 1000 - 200);
    EXPECT_EQ(bm.usedTokens(), 1700);
}

TEST(BlockManagerTest, ReleasedSlotIsReusedByTheNextAllocation)
{
    BlockManager bm(1600, 16);
    ASSERT_TRUE(bm.allocate(1, 20));
    ASSERT_TRUE(bm.allocate(2, 20));
    const std::uint32_t first = bm.slotOf(1);
    ASSERT_NE(first, BlockManager::kNoSlot);
    EXPECT_NE(bm.slotOf(2), first);
    EXPECT_TRUE(bm.slotHeldBy(first, 1));

    bm.release(1);
    EXPECT_EQ(bm.slotOf(1), BlockManager::kNoSlot);
    EXPECT_FALSE(bm.slotHeldBy(first, 1));
    EXPECT_FALSE(bm.slotHeldBy(BlockManager::kNoSlot, 1));

    // The freed slot goes to the next allocation; a cached copy of
    // it no longer names request 1.
    ASSERT_TRUE(bm.allocate(3, 40));
    EXPECT_EQ(bm.slotOf(3), first);
    EXPECT_TRUE(bm.slotHeldBy(first, 3));
    EXPECT_FALSE(bm.slotHeldBy(first, 1));
    EXPECT_TRUE(bm.extendAt(first, 41));
    EXPECT_EQ(bm.tokensOf(3), 41);
    EXPECT_EQ(bm.tokensOf(2), 20);
    EXPECT_EQ(bm.audit(), "");
}

/** Grow one request in two managers in lockstep, by id and by slot,
 *  and require identical results and state. */
void
expectExtendAtMatchesExtend(std::int64_t pinned_prefix)
{
    // The prefix's blocks plus 12: room for the request and a rival
    // that makes the last growths fail.
    const std::int64_t capacity = (pinned_prefix + 15) / 16 * 16 + 192;
    BlockManager by_id(capacity, 16);
    BlockManager by_slot(capacity, 16);
    constexpr std::uint64_t kId = 1;
    for (BlockManager* bm : {&by_id, &by_slot}) {
        if (pinned_prefix > 0) {
            ASSERT_TRUE(bm->storePrefix(9, pinned_prefix));
            ASSERT_TRUE(bm->acquirePrefix(9, kId));
        }
        ASSERT_TRUE(bm->allocate(kId, pinned_prefix + 10));
        ASSERT_TRUE(bm->allocate(2, 64));
    }
    const std::uint32_t slot = by_slot.slotOf(kId);
    // Below the current size, equal to it, up to and across a block
    // boundary, a multi-block jump, and past what the pool holds.
    for (const std::int64_t context :
         {5, 10, 15, 16, 17, 31, 32, 33, 70, 96, 97, 200, 1000}) {
        const std::int64_t total = pinned_prefix + context;
        const bool ok = by_id.extend(kId, total);
        EXPECT_EQ(by_slot.extendAt(slot, total), ok)
            << "prefix " << pinned_prefix << " context " << context;
        EXPECT_EQ(by_slot.tokensOf(kId), by_id.tokensOf(kId));
        EXPECT_EQ(by_slot.usedTokens(), by_id.usedTokens());
        EXPECT_EQ(by_slot.freeBlocks(), by_id.freeBlocks());
        EXPECT_EQ(by_slot.audit(), "");
        EXPECT_EQ(by_id.audit(), "");
    }
    // The last growths did not fit and left the allocation intact.
    EXPECT_EQ(by_slot.tokensOf(kId), 97);
    EXPECT_FALSE(by_slot.extendAt(slot, pinned_prefix + 200));
}

TEST(BlockManagerTest, ExtendAtMatchesExtendAcrossBlockBoundaries)
{
    expectExtendAtMatchesExtend(0);
}

TEST(BlockManagerTest, ExtendAtMatchesExtendWithAPinnedPrefix)
{
    expectExtendAtMatchesExtend(40);
}

TEST(BlockManagerTest, IdlePrefixesEvictInLastUseOrderNotReleaseOrder)
{
    // Three one-block prefixes fill the pool.
    BlockManager bm(48, 16);
    ASSERT_TRUE(bm.storePrefix(1, 16));
    ASSERT_TRUE(bm.storePrefix(2, 16));
    ASSERT_TRUE(bm.storePrefix(3, 16));
    // Prefix 1 is pinned (touched) before prefix 2, but released
    // after it: its last use is still the older one.
    ASSERT_TRUE(bm.acquirePrefix(1, 10));
    ASSERT_TRUE(bm.acquirePrefix(2, 11));
    bm.release(11);
    bm.release(10);
    ASSERT_EQ(bm.audit(), "");

    // Each one-block allocation evicts the least recently used idle
    // prefix: 3 (never pinned), then 1, then 2.
    ASSERT_TRUE(bm.allocate(20, 16));
    EXPECT_EQ(bm.prefixRefcount(3), -1);
    EXPECT_EQ(bm.sharedPrefixCount(), 2u);
    ASSERT_TRUE(bm.allocate(21, 16));
    EXPECT_EQ(bm.prefixRefcount(1), -1);
    EXPECT_EQ(bm.prefixRefcount(2), 0);
    ASSERT_TRUE(bm.allocate(22, 16));
    EXPECT_EQ(bm.sharedPrefixCount(), 0u);
    EXPECT_EQ(bm.prefixStats().evictions, 3u);
    EXPECT_EQ(bm.audit(), "");
}

TEST(BlockManagerTest, LookupMovesAnIdlePrefixToTheBackOfEviction)
{
    BlockManager bm(32, 16);
    ASSERT_TRUE(bm.storePrefix(1, 16));
    ASSERT_TRUE(bm.storePrefix(2, 16));
    EXPECT_EQ(bm.lookupPrefix(1), 16);
    ASSERT_TRUE(bm.allocate(20, 16));
    EXPECT_EQ(bm.prefixRefcount(2), -1);
    EXPECT_EQ(bm.prefixRefcount(1), 0);
    EXPECT_EQ(bm.audit(), "");
}

TEST(BlockManagerDeathTest, RejectsBadConfig)
{
    EXPECT_THROW(BlockManager(100, 0), std::runtime_error);
    EXPECT_THROW(BlockManager(-1, 16), std::runtime_error);
}

}  // namespace
}  // namespace splitwise::engine
