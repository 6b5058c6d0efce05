#ifndef SPLITWISE_SIM_FLAT_MAP_H_
#define SPLITWISE_SIM_FLAT_MAP_H_

/**
 * @file
 * An open-addressing hash map keyed by 64-bit integers, for
 * bookkeeping touched once per decode token or per iteration.
 *
 * Design (see DESIGN.md "Per-token bookkeeping"):
 *
 *  - One flat slot array, power-of-two capacity, linear probing from
 *    a Fibonacci hash of the key: a hit is usually one cache line.
 *  - Erase shifts later members of the probe cluster back into the
 *    hole (backward-shift deletion), so there are no tombstones and
 *    probe lengths never degrade under insert/erase churn.
 *  - Occupancy is a per-slot flag, not a reserved key value, so every
 *    key - INT64_MIN and UINT64_MAX included - is storable.
 *  - clear() keeps the capacity: a map that has reached its
 *    high-water size allocates nothing afterwards.
 *  - Iteration order is the slot order, which depends on insertion
 *    history. Callers whose output must not depend on it sort.
 */

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace splitwise::sim {

template <typename K, typename V>
class FlatMap {
    static_assert(std::is_integral_v<K> && sizeof(K) == 8,
                  "FlatMap keys are 64-bit integers");

  public:
    /** Number of stored keys. */
    std::size_t size() const { return size_; }

    /** Slots allocated (0 until the first insert). */
    std::size_t capacity() const { return slots_.size(); }

    /** The slot @p key's probe starts at under the current capacity
     *  (0 before the first insert); lets tests build probe clusters
     *  that wrap past the end of the table. */
    std::size_t
    homeSlot(K key) const
    {
        return slots_.empty() ? 0 : homeOf(key);
    }

    /** The value stored under @p key, or nullptr. */
    V*
    find(K key)
    {
        const std::size_t i = slotOf(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    const V*
    find(K key) const
    {
        const std::size_t i = slotOf(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    bool contains(K key) const { return slotOf(key) != kNone; }

    /** The value under @p key, value-initialized on first use. */
    V&
    operator[](K key)
    {
        if (V* existing = find(key))
            return *existing;
        return place(key, V{});
    }

    /** Remove @p key; false when it was absent. */
    bool
    erase(K key)
    {
        std::size_t hole = slotOf(key);
        if (hole == kNone)
            return false;
        // Backward shift: walk the rest of the probe cluster and pull
        // back every entry whose home slot does not lie cyclically in
        // (hole, j] - those would become unreachable past the hole.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots_[j].used;
             j = (j + 1) & mask) {
            const std::size_t home = homeOf(slots_[j].key);
            const bool stays = hole < j ? (hole < home && home <= j)
                                        : (hole < home || home <= j);
            if (stays)
                continue;
            slots_[hole].key = slots_[j].key;
            slots_[hole].value = std::move(slots_[j].value);
            hole = j;
        }
        slots_[hole].used = false;
        --size_;
        return true;
    }

    /** Drop every key, keeping the capacity. */
    void
    clear()
    {
        for (Slot& s : slots_)
            s.used = false;
        size_ = 0;
    }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F&& fn) const
    {
        for (const Slot& s : slots_) {
            if (s.used)
                fn(s.key, s.value);
        }
    }

  private:
    struct Slot {
        K key{};
        V value{};
        bool used = false;
    };

    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    /** Fibonacci hashing: the top bits of key * 2^64/phi. */
    std::size_t
    homeOf(K key) const
    {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >>
            shift_);
    }

    std::size_t
    slotOf(K key) const
    {
        if (size_ == 0)
            return kNone;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = homeOf(key);; i = (i + 1) & mask) {
            if (!slots_[i].used)
                return kNone;
            if (slots_[i].key == key)
                return i;
        }
    }

    /** Store an absent key, growing first past a 3/4 load. */
    V&
    place(K key, V value)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = homeOf(key);
        while (slots_[i].used)
            i = (i + 1) & mask;
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        slots_[i].used = true;
        ++size_;
        return slots_[i].value;
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old(capacity);
        old.swap(slots_);
        shift_ = 64;
        for (std::size_t c = capacity; c > 1; c >>= 1)
            --shift_;
        size_ = 0;
        for (Slot& s : old) {
            if (s.used)
                place(s.key, std::move(s.value));
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    /** 64 - log2(capacity): homeOf() keeps the top log2 bits. */
    int shift_ = 64;
};

}  // namespace splitwise::sim

#endif  // SPLITWISE_SIM_FLAT_MAP_H_
