/**
 * @file
 * Tests for the insert-only open-addressed table behind the functional
 * memory pages and the codec predictor banks.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/flat_map.h"

namespace lba {
namespace {

TEST(FlatMap, EmptyFindsNothing)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.find(~0ull), nullptr);
    EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap, InsertAndFindAcrossGrowths)
{
    // Enough keys for several doublings from the initial capacity; every
    // key stays findable with its value after each growth.
    FlatMap<std::uint64_t, std::uint64_t> map;
    constexpr std::uint64_t kKeys = 5000;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        map[k * 8 + 0x400000] = k * k;
        ASSERT_EQ(map.size(), k + 1);
        if ((k & (k + 1)) == 0) { // after each power-of-two count
            for (std::uint64_t j = 0; j <= k; ++j) {
                const std::uint64_t* v = map.find(j * 8 + 0x400000);
                ASSERT_NE(v, nullptr) << "key " << j << " after " << k;
                EXPECT_EQ(*v, j * j);
            }
        }
    }
    EXPECT_EQ(map.find(0x3ffff8), nullptr);
    EXPECT_EQ(map.find(kKeys * 8 + 0x400000), nullptr);

    // operator[] on a present key returns the stored value, adds nothing.
    EXPECT_EQ(map[0x400000 + 8 * 7], 49u);
    EXPECT_EQ(map.size(), kKeys);
}

TEST(FlatMap, ExtremeKeys)
{
    FlatMap<std::uint64_t, int> map;
    map[0] = 1;
    map[~0ull] = 2;
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(0), nullptr);
    ASSERT_NE(map.find(~0ull), nullptr);
    EXPECT_EQ(*map.find(0), 1);
    EXPECT_EQ(*map.find(~0ull), 2);
    EXPECT_EQ(map.find(1), nullptr);

    // A value-initialized entry under key 0 is still an entry.
    FlatMap<std::uint16_t, std::uint64_t> small;
    small[0];
    small[0xffff] = 9;
    ASSERT_NE(small.find(0), nullptr);
    EXPECT_EQ(*small.find(0), 0u);
    EXPECT_EQ(*small.find(0xffff), 9u);
    EXPECT_EQ(small.size(), 2u);
}

TEST(FlatMap, KeysDifferingOnlyInHighBits)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t k = 0; k < 4096; ++k) map[k << 40] = k;
    EXPECT_EQ(map.size(), 4096u);
    for (std::uint64_t k = 0; k < 4096; ++k) {
        const std::uint64_t* v = map.find(k << 40);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, k);
    }
    EXPECT_EQ(map.find(4096ull << 40), nullptr);
    EXPECT_EQ(map.find(1), nullptr);
}

TEST(FlatMap, MatchesReferenceMapOnRandomKeys)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Small key space so keys repeat; odd steps read, even write.
        std::uint64_t key = (x >> 3) % 3000 * 0x1000;
        if (i & 1) {
            const std::uint64_t* v = map.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(v != nullptr, it != ref.end());
            if (v) {
                EXPECT_EQ(*v, it->second);
            }
        } else {
            map[key] += x;
            ref[key] += x;
        }
    }
    EXPECT_EQ(map.size(), ref.size());
}

TEST(FlatMap, HoldsMoveOnlyValues)
{
    FlatMap<std::uint64_t, std::unique_ptr<int>> map;
    map[7] = std::make_unique<int>(70);
    const int* stable = map.find(7)->get();
    // Growth moves the unique_ptrs, never the objects they own.
    for (std::uint64_t k = 100; k < 300; ++k) {
        map[k] = std::make_unique<int>(static_cast<int>(k));
    }
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(map.find(7)->get(), stable);
    EXPECT_EQ(**map.find(7), 70);
    EXPECT_EQ(**map.find(299), 299);

    FlatMap<std::uint64_t, std::unique_ptr<int>> moved(std::move(map));
    EXPECT_EQ(moved.size(), 201u);
    EXPECT_EQ(moved.find(7)->get(), stable);
    EXPECT_EQ(map.size(), 0u);        // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(map.find(7), nullptr);

    FlatMap<std::uint64_t, std::unique_ptr<int>> assigned;
    assigned[1] = std::make_unique<int>(1);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.size(), 201u);
    EXPECT_EQ(assigned.find(1), nullptr);
    EXPECT_EQ(**assigned.find(150), 150);
}

} // namespace
} // namespace lba
