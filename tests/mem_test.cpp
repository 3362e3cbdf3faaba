/**
 * @file
 * Tests for sparse memory and the cache/hierarchy timing models,
 * including LRU-correctness property checks against a reference model
 * (a uniform stream, and a locality stream that exercises the cache's
 * last-line memo).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/memory.h"

namespace lba::mem {
namespace {

TEST(Memory, UntouchedReadsZero)
{
    Memory m;
    EXPECT_EQ(m.read8(0x1234), 0u);
    EXPECT_EQ(m.read64(0xdeadbeef), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(Memory, ByteRoundTrip)
{
    Memory m;
    m.write8(0x42, 0xab);
    EXPECT_EQ(m.read8(0x42), 0xab);
    EXPECT_EQ(m.numPages(), 1u);
}

TEST(Memory, Word64RoundTripLittleEndian)
{
    Memory m;
    m.write64(0x1000, 0x1122334455667788ull);
    EXPECT_EQ(m.read64(0x1000), 0x1122334455667788ull);
    EXPECT_EQ(m.read8(0x1000), 0x88);
    EXPECT_EQ(m.read8(0x1007), 0x11);
}

TEST(Memory, CrossPageAccess)
{
    Memory m;
    Addr addr = Memory::kPageBytes - 4;
    m.write64(addr, 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(m.read64(addr), 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(Memory, Word32RoundTrip)
{
    Memory m;
    m.write32(0x2000, 0xcafebabe);
    EXPECT_EQ(m.read32(0x2000), 0xcafebabeu);
    EXPECT_EQ(m.readValue(0x2000, 4), 0xcafebabeull);
}

TEST(Memory, WriteBytesBulk)
{
    Memory m;
    std::uint8_t data[] = {1, 2, 3, 4, 5};
    m.writeBytes(0x3000, data, sizeof(data));
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(m.read8(0x3000 + i), i + 1);
    }
}

TEST(Memory, UntouchedReadsCreateNoPage)
{
    Memory m;
    for (unsigned bytes : {1u, 4u, 8u}) {
        EXPECT_EQ(m.readValue(0x5000 + bytes, bytes), 0u);
        // Straddling two untouched pages.
        EXPECT_EQ(m.readValue(0x6000 - 2, bytes), 0u);
    }
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(Memory, WriteAfterReadMissIsVisible)
{
    // A read miss must not leave a memo that hides the page a later
    // write creates.
    Memory m;
    EXPECT_EQ(m.read64(0x7008), 0u);
    m.write32(0x7010, 0x11223344);
    EXPECT_EQ(m.read32(0x7010), 0x11223344u);
    EXPECT_EQ(m.read64(0x7010), 0x11223344ull);
    EXPECT_EQ(m.read8(0x7013), 0x11);
    EXPECT_EQ(m.numPages(), 1u);

    // Alternating pages moves the memo back and forth.
    m.write8(0x9000, 0x5a);
    EXPECT_EQ(m.read32(0x7010), 0x11223344u);
    EXPECT_EQ(m.read8(0x9000), 0x5a);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(Memory, StraddlingWordsSplitAcrossPages)
{
    const Addr boundary = 4 * Memory::kPageBytes;
    for (unsigned bytes : {4u, 8u}) {
        for (unsigned before = 1; before < bytes; ++before) {
            Memory m;
            Addr addr = boundary - before;
            std::uint64_t value = 0x8877665544332211ull;
            if (bytes == 4) value &= 0xffffffffull;
            m.writeValue(addr, value, bytes);
            EXPECT_EQ(m.numPages(), 2u);
            EXPECT_EQ(m.readValue(addr, bytes), value);
            // Little-endian split: the low bytes sit below the boundary.
            EXPECT_EQ(m.read8(boundary - 1),
                      static_cast<std::uint8_t>(value >> (8 * (before - 1))));
            EXPECT_EQ(m.read8(boundary),
                      static_cast<std::uint8_t>(value >> (8 * before)));
            EXPECT_EQ(m.read8(boundary - before - 1), 0u);
            EXPECT_EQ(m.read8(addr + bytes), 0u);
        }
    }

    // A straddling read over one touched and one untouched page.
    Memory m;
    m.write8(boundary - 1, 0xab);
    EXPECT_EQ(m.read32(boundary - 1), 0xabu);
    EXPECT_EQ(m.read64(boundary - 2), 0xab00ull);
    EXPECT_EQ(m.numPages(), 1u);
}

TEST(Memory, MovedToMemoryReadsItsPages)
{
    Memory m;
    m.write64(0x1000, 0x0102030405060708ull);
    m.write64(0x20000, 0xfedcba9876543210ull);
    EXPECT_EQ(m.read64(0x20000), 0xfedcba9876543210ull); // memo: 0x20000

    Memory moved(std::move(m));
    EXPECT_EQ(moved.numPages(), 2u);
    EXPECT_EQ(moved.read64(0x20000), 0xfedcba9876543210ull);
    EXPECT_EQ(moved.read64(0x1000), 0x0102030405060708ull);
    moved.write8(0x20000, 0xee);
    EXPECT_EQ(moved.read8(0x20000), 0xee);

    Memory assigned;
    assigned.write8(0x20000, 0x77); // its own page, memoized
    assigned = std::move(moved);
    EXPECT_EQ(assigned.numPages(), 2u);
    EXPECT_EQ(assigned.read8(0x20000), 0xee);
    EXPECT_EQ(assigned.read64(0x1000), 0x0102030405060708ull);

    // A moved-from Memory is empty, not an alias of the new owner.
    EXPECT_EQ(m.numPages(), 0u);      // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.numPages(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.read64(0x20000), 0u);
    EXPECT_EQ(assigned.read8(0x20000), 0xee);
}

TEST(Cache, FirstAccessMissesThenHits)
{
    Cache c({"t", 1024, 64, 2});
    EXPECT_FALSE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x13f, false)); // same 64B line
    EXPECT_FALSE(c.access(0x140, false)); // next line
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, 64B lines, 2 sets -> 256B total.
    Cache c({"t", 256, 64, 2});
    // Three lines mapping to set 0: addresses 0, 128, 256.
    c.access(0, false);
    c.access(128, false);
    c.access(0, false);   // refresh 0
    c.access(256, false); // evicts 128 (LRU)
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(128));
    EXPECT_TRUE(c.probe(256));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache c({"t", 256, 64, 2});
    c.access(0, true); // dirty
    c.access(128, false);
    c.access(256, false); // evicts dirty line 0
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c({"t", 1024, 64, 2});
    c.access(0x100, false);
    c.flush();
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_FALSE(c.access(0x100, false)); // miss again
}

TEST(Cache, MissRatio)
{
    Cache c({"t", 1024, 64, 2});
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.25);
}

/**
 * Property: the cache agrees with a reference true-LRU model across a
 * pseudo-random access stream, for several geometries.
 */
class LruProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(LruProperty, MatchesReferenceModel)
{
    auto [size_kb, assoc] = GetParam();
    CacheConfig cfg{"t", static_cast<std::size_t>(size_kb) * 1024, 64,
                    static_cast<std::size_t>(assoc)};
    Cache cache(cfg);
    std::size_t sets = cache.numSets();

    // Reference: per-set list of line addresses, most recent first.
    std::vector<std::list<std::uint64_t>> ref(sets);

    std::uint64_t state = 99;
    for (int i = 0; i < 20000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Addr addr = (state % (1 << 22)); // 4MB address space
        std::uint64_t line = addr >> 6;
        std::size_t set = line & (sets - 1);

        auto& lru = ref[set];
        auto it = std::find(lru.begin(), lru.end(), line);
        bool ref_hit = it != lru.end();
        if (ref_hit) lru.erase(it);
        lru.push_front(line);
        if (lru.size() > cfg.associativity) lru.pop_back();

        bool hit = cache.access(addr, false);
        ASSERT_EQ(hit, ref_hit) << "access " << i << " addr " << addr;
    }
}

TEST_P(LruProperty, LocalityStreamMatchesReferenceModel)
{
    // The uniform stream above almost never touches one line twice in
    // a row, so it cannot see the last-line memo. This stream mixes
    // runs on one line, a hot set that overfills one cache set, stores
    // and cold random accesses, and flushes once between two accesses
    // to the same line; every access is checked for hit or miss, and
    // evictions and writebacks against a model with dirty bits.
    auto [size_kb, assoc] = GetParam();
    CacheConfig cfg{"t", static_cast<std::size_t>(size_kb) * 1024, 64,
                    static_cast<std::size_t>(assoc)};
    Cache cache(cfg);
    const std::size_t sets = cache.numSets();

    // Reference: per-set (line, dirty) list, most recent first.
    struct RefLine
    {
        std::uint64_t line;
        bool dirty;
    };
    std::vector<std::list<RefLine>> ref(sets);
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    // Hot set: two more lines in set 3 than it has ways, so the hot
    // set keeps evicting itself, plus two lines in other sets.
    const Addr set_stride = static_cast<Addr>(sets) * 64;
    std::vector<Addr> hot;
    for (Addr k = 0; k < cfg.associativity + 2; ++k) {
        hot.push_back(0x40000 + 3 * 64 + k * set_stride);
    }
    hot.push_back(0x80000 + 5 * 64);
    hot.push_back(0x90000 + 9 * 64);

    std::uint64_t state = 7;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    const int kAccesses = 20000;
    const int kFlushAt = kAccesses / 2;
    Addr addr = 0;
    int run_left = 0;
    for (int i = 0; i < kAccesses; ++i) {
        if (i == kFlushAt) {
            // Same line on both sides of the flush: a memo that
            // survived it would report a hit on an empty cache.
            cache.flush();
            for (auto& lru : ref) lru.clear();
            addr = (addr & ~Addr{63}) | (next() & 63);
        } else if (run_left > 0) {
            --run_left; // stay on the line, at another byte
            addr = (addr & ~Addr{63}) | (next() & 63);
        } else {
            std::uint64_t pick = next() % 8;
            if (pick < 3) {
                addr = next() % (1 << 22); // cold, 4MB space
            } else {
                addr = hot[next() % hot.size()] + (next() & 63);
            }
            run_left = static_cast<int>(next() % 6);
        }
        const bool is_write = next() % 4 == 0;

        std::uint64_t line = addr >> 6;
        auto& lru = ref[line & (sets - 1)];
        auto it = std::find_if(lru.begin(), lru.end(),
                               [line](const RefLine& l) {
                                   return l.line == line;
                               });
        const bool ref_hit = it != lru.end();
        RefLine entry{line, is_write};
        if (ref_hit) {
            entry.dirty = it->dirty || is_write;
            lru.erase(it);
        }
        lru.push_front(entry);
        if (lru.size() > cfg.associativity) {
            ++evictions;
            if (lru.back().dirty) ++writebacks;
            lru.pop_back();
        }

        bool hit = cache.access(addr, is_write);
        ASSERT_EQ(hit, ref_hit) << "access " << i << " addr " << addr;
        ASSERT_EQ(cache.stats().evictions, evictions) << "access " << i;
        ASSERT_EQ(cache.stats().writebacks, writebacks) << "access " << i;
    }
    EXPECT_EQ(cache.stats().accesses(),
              static_cast<std::uint64_t>(kAccesses));
    EXPECT_GT(writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruProperty,
    ::testing::Values(std::make_tuple(16, 4), std::make_tuple(16, 1),
                      std::make_tuple(64, 8), std::make_tuple(4, 2)));

TEST(Hierarchy, PaperConfiguration)
{
    CacheHierarchy h(HierarchyConfig{});
    EXPECT_EQ(h.l1i(0).config().size_bytes, 16u * 1024);
    EXPECT_EQ(h.l1d(0).config().size_bytes, 16u * 1024);
    EXPECT_EQ(h.l2().config().size_bytes, 512u * 1024);
}

TEST(Hierarchy, LatenciesByLevel)
{
    HierarchyConfig cfg;
    cfg.l2_hit_cycles = 6;
    cfg.mem_cycles = 100;
    CacheHierarchy h(cfg);
    // Cold: L1 miss + L2 miss.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), 106u);
    // Warm L1.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), 0u);
    h.flushAll();
    // After flush: cold again.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), 106u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    HierarchyConfig cfg;
    CacheHierarchy h(cfg);
    h.dataAccess(0, 0x1000, false); // install in L1 + L2
    // Blow L1 (16KB, 4-way): touch 16KB/64 * 4 distinct lines mapping
    // everywhere.
    for (Addr a = 0x100000; a < 0x100000 + 64 * 1024; a += 64) {
        h.dataAccess(0, a, false);
    }
    // 0x1000 should be out of L1 but still in 512KB L2.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), cfg.l2_hit_cycles);
}

TEST(Hierarchy, CoresHavePrivateL1s)
{
    HierarchyConfig cfg;
    cfg.num_cores = 2;
    CacheHierarchy h(cfg);
    h.dataAccess(0, 0x1000, false);
    // Core 1 misses its own L1 but hits the shared L2.
    EXPECT_EQ(h.dataAccess(1, 0x1000, false), cfg.l2_hit_cycles);
}

TEST(Hierarchy, SplitL1InstructionAndData)
{
    HierarchyConfig cfg;
    CacheHierarchy h(cfg);
    h.instrFetch(0, 0x1000);
    // A data access to the same address does not hit L1D (split caches),
    // but hits L2.
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), cfg.l2_hit_cycles);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    CacheHierarchy h(HierarchyConfig{});
    h.dataAccess(0, 0x1000, false);
    h.resetStats();
    EXPECT_EQ(h.l1d(0).stats().accesses(), 0u);
    EXPECT_EQ(h.dataAccess(0, 0x1000, false), 0u); // still cached
}

} // namespace
} // namespace lba::mem
