#pragma once
/**
 * @file
 * Timing-only set-associative cache model (tags, no data).
 *
 * The functional state lives in mem::Memory; the caches exist purely to
 * account hits and misses for the timing model, matching the paper's
 * single-CPI in-order cores with 16KB split L1s and a 512KB shared L2.
 * Write policy is write-back / write-allocate with true-LRU replacement.
 *
 * Each cache remembers the way its last access touched. The next
 * access to the same line takes the hit path without scanning the set:
 * that line is still resident (only an access to this cache can evict
 * it, and that access would have moved the memo), so the shortcut makes
 * exactly the tick, LRU, dirty-bit and hit-count updates the scan would
 * make. flush() forgets the memo. Runs on one line are the common case
 * for instruction fetch and for a handler's metadata accesses.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace lba::mem {

/** Static geometry of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    std::size_t size_bytes = 16 * 1024;
    std::size_t line_bytes = 64;
    std::size_t associativity = 4;
};

/** Hit/miss accounting for one cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t accesses() const { return hits + misses; }

    /** Miss ratio in [0,1]; 0 when no accesses were made. */
    double
    missRatio() const
    {
        return accesses()
                   ? static_cast<double>(misses) /
                         static_cast<double>(accesses())
                   : 0.0;
    }
};

/**
 * One level of cache. access() reports whether the line was present and
 * installs it; the caller (CacheHierarchy) decides what a miss costs.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig& config);

    /**
     * Access the line containing @p addr.
     *
     * @param addr Byte address accessed.
     * @param is_write True for stores (marks the line dirty).
     * @return True on hit, false on miss (the line is installed either way).
     */
    bool access(Addr addr, bool is_write);

    /** True if the line containing @p addr is currently present. */
    bool probe(Addr addr) const;

    /** Invalidate every line, reset LRU state and forget the
     *  last-line memo (keeps stats). */
    void flush();

    const CacheConfig& config() const { return config_; }
    const CacheStats& stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    std::size_t numSets() const { return sets_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lru_tick = 0;
        bool valid = false;
        bool dirty = false;
    };

    CacheConfig config_;
    std::size_t sets_;
    unsigned line_shift_;
    std::vector<Line> lines_; // sets_ * associativity, row-major by set
    std::uint64_t tick_ = 0;
    /** Last-line memo: the line address of the last access and the
     *  index into lines_ of the way it touched. An index, not a
     *  pointer, so a copied Cache keeps a memo into its own lines. */
    std::uint64_t memo_line_ = 0;
    std::size_t memo_way_ = 0;
    bool memo_valid_ = false;
    CacheStats stats_;
};

} // namespace lba::mem
