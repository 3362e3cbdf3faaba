/**
 * @file
 * Sparse memory implementation.
 */

#include "mem/memory.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/assert.h"

namespace lba::mem {

namespace {

constexpr Addr kOffsetMask = Memory::kPageBytes - 1;

template <typename T>
T
loadLittleEndian(const std::uint8_t* bytes)
{
    T value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, bytes, sizeof(T));
    } else {
        for (unsigned b = 0; b < sizeof(T); ++b) {
            value |= static_cast<T>(static_cast<T>(bytes[b]) << (8 * b));
        }
    }
    return value;
}

template <typename T>
void
storeLittleEndian(std::uint8_t* bytes, T value)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(bytes, &value, sizeof(T));
    } else {
        for (unsigned b = 0; b < sizeof(T); ++b) {
            bytes[b] = static_cast<std::uint8_t>(value >> (8 * b));
        }
    }
}

} // namespace

Memory::Memory(Memory&& other) noexcept
    : pages_(std::move(other.pages_)),
      memo_page_(std::exchange(other.memo_page_, ~0ull)),
      memo_data_(std::exchange(other.memo_data_, nullptr))
{
}

Memory&
Memory::operator=(Memory&& other) noexcept
{
    pages_ = std::move(other.pages_);
    memo_page_ = std::exchange(other.memo_page_, ~0ull);
    memo_data_ = std::exchange(other.memo_data_, nullptr);
    return *this;
}

const std::uint8_t*
Memory::findPage(Addr addr) const
{
    Addr page = addr >> kPageShift;
    if (page == memo_page_) return memo_data_;
    const Page* found = pages_.find(page);
    if (found == nullptr) return nullptr;
    memo_page_ = page;
    memo_data_ = found->get();
    return memo_data_;
}

std::uint8_t*
Memory::touchPage(Addr addr)
{
    Addr page = addr >> kPageShift;
    if (page == memo_page_) return memo_data_;
    Page& slot = pages_[page];
    if (!slot) {
        // make_unique of an array value-initializes: a fresh page reads
        // as zero, like untouched memory.
        slot = std::make_unique<std::uint8_t[]>(kPageBytes);
    }
    memo_page_ = page;
    memo_data_ = slot.get();
    return memo_data_;
}

template <typename T>
T
Memory::load(Addr addr) const
{
    if ((addr & kOffsetMask) + sizeof(T) <= kPageBytes) {
        const std::uint8_t* page = findPage(addr);
        return page ? loadLittleEndian<T>(page + (addr & kOffsetMask)) : 0;
    }
    T value = 0;
    for (unsigned b = 0; b < sizeof(T); ++b) {
        value |= static_cast<T>(static_cast<T>(load<std::uint8_t>(addr + b))
                                << (8 * b));
    }
    return value;
}

template <typename T>
void
Memory::store(Addr addr, T value)
{
    if ((addr & kOffsetMask) + sizeof(T) <= kPageBytes) {
        storeLittleEndian<T>(touchPage(addr) + (addr & kOffsetMask), value);
        return;
    }
    for (unsigned b = 0; b < sizeof(T); ++b) {
        store<std::uint8_t>(addr + b,
                            static_cast<std::uint8_t>(value >> (8 * b)));
    }
}

std::uint8_t
Memory::read8(Addr addr) const
{
    return load<std::uint8_t>(addr);
}

std::uint32_t
Memory::read32(Addr addr) const
{
    return load<std::uint32_t>(addr);
}

std::uint64_t
Memory::read64(Addr addr) const
{
    return load<std::uint64_t>(addr);
}

void
Memory::write8(Addr addr, std::uint8_t value)
{
    store(addr, value);
}

void
Memory::write32(Addr addr, std::uint32_t value)
{
    store(addr, value);
}

void
Memory::write64(Addr addr, std::uint64_t value)
{
    store(addr, value);
}

std::uint64_t
Memory::readValue(Addr addr, unsigned bytes) const
{
    switch (bytes) {
      case 1: return load<std::uint8_t>(addr);
      case 4: return load<std::uint32_t>(addr);
      case 8: return load<std::uint64_t>(addr);
      default: LBA_ASSERT(false, "unsupported access width");
    }
}

void
Memory::writeValue(Addr addr, std::uint64_t value, unsigned bytes)
{
    switch (bytes) {
      case 1:
        store(addr, static_cast<std::uint8_t>(value));
        break;
      case 4:
        store(addr, static_cast<std::uint32_t>(value));
        break;
      case 8:
        store(addr, value);
        break;
      default:
        LBA_ASSERT(false, "unsupported access width");
    }
}

void
Memory::writeBytes(Addr addr, const std::uint8_t* data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        write8(addr + i, data[i]);
    }
}

} // namespace lba::mem
