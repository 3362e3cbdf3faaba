#pragma once
/**
 * @file
 * Insert-only open-addressed hash table for the per-instruction lookup
 * paths (functional-memory pages, codec predictor banks).
 *
 * Power-of-two capacity, linear probing, a splitmix64 finalizer as the
 * hash (so dense pcs and keys that differ only in their high bits spread
 * over the whole table), and growth before the load passes one half.
 * Slots are stored inline, key next to value, so a hit costs one probe
 * into one cache line instead of a node-based bucket walk. There is no
 * erase and no iteration: nothing on those paths needs either, and
 * without them no result can depend on slot order.
 *
 * Values may be move-only (std::unique_ptr pages). References returned
 * by find() and operator[] stay valid until the next insertion; the
 * objects a unique_ptr value owns never move.
 */

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace lba {

template <typename Key, typename Value>
class FlatMap
{
    static_assert(std::is_integral_v<Key> && std::is_unsigned_v<Key>,
                  "FlatMap keys are unsigned integers");

  public:
    FlatMap() = default;

    /** Moves leave the source empty (a defaulted move would keep its
     *  size while taking its slots). */
    FlatMap(FlatMap&& other) noexcept
        : slots_(std::exchange(other.slots_, {})),
          size_(std::exchange(other.size_, 0))
    {
    }

    FlatMap&
    operator=(FlatMap&& other) noexcept
    {
        slots_ = std::exchange(other.slots_, {});
        size_ = std::exchange(other.size_, 0);
        return *this;
    }

    /** The value stored under @p key, or nullptr. */
    Value*
    find(Key key)
    {
        return const_cast<Value*>(std::as_const(*this).find(key));
    }

    const Value*
    find(Key key) const
    {
        if (slots_.empty()) return nullptr;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const Slot& slot = slots_[i];
            if (!slot.used) return nullptr;
            if (slot.key == key) return &slot.value;
        }
    }

    /** The value under @p key, value-initialized if it was absent. */
    Value&
    operator[](Key key)
    {
        if (2 * (size_ + 1) > slots_.size()) {
            if (Value* value = find(key)) return *value;
            grow();
        }
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Slot& slot = slots_[i];
            if (!slot.used) {
                slot.used = true;
                slot.key = key;
                ++size_;
                return slot.value;
            }
            if (slot.key == key) return slot.value;
        }
    }

    /** Number of keys stored. */
    std::size_t size() const { return size_; }

  private:
    struct Slot
    {
        Key key{};
        bool used = false;
        Value value{};
    };

    static constexpr std::size_t kMinCapacity = 16;

    /** splitmix64 finalizer: every key bit reaches the low index bits. */
    static std::size_t
    hash(Key key)
    {
        std::uint64_t x = static_cast<std::uint64_t>(key);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(x ^ (x >> 31));
    }

    /** Double the capacity (allocate the first table) and re-place
     *  every stored slot. */
    void
    grow()
    {
        std::vector<Slot> old(slots_.empty() ? kMinCapacity
                                             : 2 * slots_.size());
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (Slot& from : old) {
            if (!from.used) continue;
            std::size_t i = hash(from.key) & mask;
            while (slots_[i].used) i = (i + 1) & mask;
            slots_[i] = std::move(from);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace lba
