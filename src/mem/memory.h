#pragma once
/**
 * @file
 * Sparse functional main memory for the simulated machine.
 *
 * Backing storage is allocated lazily in 4 KiB pages; untouched memory
 * reads as zero. This is the *functional* store — timing is modelled
 * separately by mem/hierarchy.h so the lifeguard platforms can share one
 * functional image while keeping distinct cache behaviour.
 */

#include <cstdint>
#include <memory>

#include "common/flat_map.h"
#include "common/types.h"

namespace lba::mem {

/**
 * Byte-addressable sparse memory with 64-bit addressing.
 *
 * An access that stays inside one page resolves that page once; only a
 * page-crossing access falls back to the byte path. A last-page memo
 * (as in lifeguard::ShadowMemory) skips the page table for the common
 * run of accesses to one page. Page arrays never move once materialized
 * and are never freed before the Memory, so the memo cannot dangle; a
 * move hands the memo over with the pages and clears the source's.
 */
class Memory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::size_t kPageBytes = 1ull << kPageShift;

    Memory() = default;
    Memory(Memory&& other) noexcept;
    Memory& operator=(Memory&& other) noexcept;

    /** Read one byte (0 for untouched memory). */
    std::uint8_t read8(Addr addr) const;

    /** Read a little-endian 32-bit word. */
    std::uint32_t read32(Addr addr) const;

    /** Read a little-endian 64-bit word. */
    std::uint64_t read64(Addr addr) const;

    /** Write one byte. */
    void write8(Addr addr, std::uint8_t value);

    /** Write a little-endian 32-bit word. */
    void write32(Addr addr, std::uint32_t value);

    /** Write a little-endian 64-bit word. */
    void write64(Addr addr, std::uint64_t value);

    /** Read @p size bytes with @p width-agnostic access (1, 4, or 8). */
    std::uint64_t readValue(Addr addr, unsigned bytes) const;

    /** Write the low @p bytes bytes of @p value at @p addr. */
    void writeValue(Addr addr, std::uint64_t value, unsigned bytes);

    /** Copy a byte buffer into memory. */
    void writeBytes(Addr addr, const std::uint8_t* data, std::size_t len);

    /** Number of pages currently materialized (for tests/stats). */
    std::size_t numPages() const { return pages_.size(); }

  private:
    using Page = std::unique_ptr<std::uint8_t[]>;

    /** Find the page containing @p addr, or nullptr if untouched
     *  (a miss creates nothing and leaves the memo alone). */
    const std::uint8_t* findPage(Addr addr) const;

    /** Find or create the page containing @p addr. */
    std::uint8_t* touchPage(Addr addr);

    /** Little-endian load/store of one unsigned word: one page lookup
     *  in-page, the byte path across a page boundary. */
    template <typename T> T load(Addr addr) const;
    template <typename T> void store(Addr addr, T value);

    FlatMap<Addr, Page> pages_;
    /** Last-page memo: page number and its array (~0 = none). */
    mutable Addr memo_page_ = ~0ull;
    mutable std::uint8_t* memo_data_ = nullptr;
};

} // namespace lba::mem
