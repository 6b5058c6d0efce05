#include "sim/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/rng.h"

namespace splitwise::sim {
namespace {

/** Assert @p map holds exactly @p ref (sizes, lookups, iteration). */
template <typename K>
void
expectMatches(const FlatMap<K, std::int64_t>& map,
              const std::unordered_map<K, std::int64_t>& ref,
              const std::string& where)
{
    ASSERT_EQ(map.size(), ref.size()) << where;
    for (const auto& [key, value] : ref) {
        const std::int64_t* found = map.find(key);
        ASSERT_NE(found, nullptr) << where << ": lost key " << key;
        ASSERT_EQ(*found, value) << where << ": key " << key;
    }
    std::size_t visited = 0;
    map.forEach([&](K key, std::int64_t value) {
        ++visited;
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << where << ": stray key " << key;
        EXPECT_EQ(value, it->second) << where << ": key " << key;
    });
    ASSERT_EQ(visited, ref.size()) << where;
}

TEST(FlatMapTest, EmptyMapFindsNothingAndAllocatesNothing)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), 0u);
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_FALSE(map.contains(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_EQ(map.capacity(), 0u);
}

TEST(FlatMapTest, ExtremeKeysAreOrdinaryKeys)
{
    // Occupancy is a flag, not a reserved key: the zero key and both
    // ends of the range store like any other.
    FlatMap<std::int64_t, int> map;
    const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    map[kMin] = 1;
    map[0] = 2;
    map[kMax] = 3;
    map[-1] = 4;
    ASSERT_EQ(map.size(), 4u);
    EXPECT_EQ(*map.find(kMin), 1);
    EXPECT_EQ(*map.find(0), 2);
    EXPECT_EQ(*map.find(kMax), 3);
    EXPECT_EQ(*map.find(-1), 4);
    EXPECT_TRUE(map.erase(kMin));
    EXPECT_EQ(map.find(kMin), nullptr);
    EXPECT_EQ(*map.find(0), 2);

    FlatMap<std::uint64_t, int> unsigned_map;
    const std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
    unsigned_map[kTop] = 7;
    unsigned_map[0] = 8;
    EXPECT_EQ(*unsigned_map.find(kTop), 7);
    EXPECT_EQ(*unsigned_map.find(0), 8);
}

TEST(FlatMapTest, ClearKeepsCapacity)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map[k] = static_cast<int>(k);
    const std::size_t capacity = map.capacity();
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), capacity);
    EXPECT_EQ(map.find(7), nullptr);
    map[7] = 1;
    EXPECT_EQ(*map.find(7), 1);
    EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatMapProperty, ClustersWrappingPastTheEndSurviveErase)
{
    // Fill a 16-slot table (no growth below 13 keys) with keys homed
    // on the last two slots and the first, so their probe clusters
    // wrap to the front, then erase in random order: every erase
    // inside a wrapped cluster must shift its successors back across
    // the wrap or they become unreachable.
    Rng rng(2024);
    for (int round = 0; round < 300; ++round) {
        FlatMap<std::int64_t, std::int64_t> map;
        map[0] = 0;
        map.erase(0);
        const std::size_t capacity = map.capacity();
        ASSERT_EQ(capacity, 16u);

        std::vector<std::int64_t> keys;
        std::unordered_map<std::int64_t, std::int64_t> ref;
        const auto wanted = [&](std::int64_t key) {
            const std::size_t home = map.homeSlot(key);
            return home + 2 >= capacity || home == 0;
        };
        const int n = static_cast<int>(rng.uniformInt(4, 12));
        while (static_cast<int>(keys.size()) < n) {
            const auto key = static_cast<std::int64_t>(rng.engine()());
            if (!wanted(key) || ref.count(key) > 0)
                continue;
            keys.push_back(key);
            ref[key] = rng.uniformInt(-1000, 1000);
            map[key] = ref[key];
        }
        ASSERT_EQ(map.capacity(), capacity) << "round " << round;
        expectMatches(map, ref, "round " + std::to_string(round));

        while (!keys.empty()) {
            const auto pick = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(keys.size()) - 1));
            const std::int64_t key = keys[pick];
            keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(pick));
            ASSERT_TRUE(map.erase(key));
            ref.erase(key);
            ASSERT_FALSE(map.erase(key));
            expectMatches(map, ref,
                          "round " + std::to_string(round) + " after erase");
        }
    }
}

template <typename K>
void
runRandomOps(std::uint64_t seed)
{
    // Random upsert/find/erase/clear against std::unordered_map. Keys
    // come from a small pool (so finds and erases hit) plus the
    // extremes of the key range; the pool grows past several
    // doublings so growth interleaves with erases.
    Rng rng(seed);
    std::vector<K> pool;
    for (int i = 0; i < 600; ++i)
        pool.push_back(static_cast<K>(rng.engine()()));
    pool.push_back(std::numeric_limits<K>::min());
    pool.push_back(std::numeric_limits<K>::max());
    pool.push_back(0);
    pool.push_back(static_cast<K>(1));
    for (K k = 0; k < 64; ++k)
        pool.push_back(k);  // sequential ids, like request ids

    FlatMap<K, std::int64_t> map;
    std::unordered_map<K, std::int64_t> ref;
    for (int step = 0; step < 20000; ++step) {
        const std::string where = "seed " + std::to_string(seed) +
                                  " step " + std::to_string(step);
        const K key = pool[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(pool.size()) - 1))];
        const double op = rng.uniform();
        if (op < 0.50) {
            const std::int64_t v = rng.uniformInt(-50, 50);
            map[key] += v;
            ref[key] += v;
        } else if (op < 0.85) {
            ASSERT_EQ(map.erase(key), ref.erase(key) > 0) << where;
        } else if (op < 0.999) {
            const std::int64_t* found = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end()) << where;
            ASSERT_EQ(map.contains(key), it != ref.end()) << where;
            if (found != nullptr)
                ASSERT_EQ(*found, it->second) << where;
        } else {
            const std::size_t capacity = map.capacity();
            map.clear();
            ref.clear();
            ASSERT_EQ(map.capacity(), capacity) << where;
        }
        if (step % 97 == 0 || map.size() != ref.size())
            expectMatches(map, ref, where);
    }
    expectMatches(map, ref, "final");
}

TEST(FlatMapProperty, RandomSignedOpsMatchUnorderedMap)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        runRandomOps<std::int64_t>(seed);
}

TEST(FlatMapProperty, RandomUnsignedOpsMatchUnorderedMap)
{
    for (std::uint64_t seed = 11; seed <= 15; ++seed)
        runRandomOps<std::uint64_t>(seed);
}

TEST(FlatMapProperty, CopiesAreIndependent)
{
    FlatMap<std::uint64_t, std::int64_t> a;
    for (std::uint64_t k = 0; k < 40; ++k)
        a[k] = static_cast<std::int64_t>(k);
    FlatMap<std::uint64_t, std::int64_t> b = a;
    b.erase(3);
    b[100] = 1;
    EXPECT_EQ(*a.find(3), 3);
    EXPECT_EQ(a.find(100), nullptr);
    EXPECT_EQ(b.find(3), nullptr);
    EXPECT_EQ(b.size(), 40u);
}

}  // namespace
}  // namespace splitwise::sim
