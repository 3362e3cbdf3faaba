#pragma once
/**
 * @file
 * Bit-granular output/input streams used by the log codec.
 *
 * The compressor's whole point (paper Section 2) is to get the event
 * stream under one byte per instruction, so records must be bit-packed;
 * byte-aligned encodings cannot reach the target. Bits are filled LSB
 * first within each byte.
 */

#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace lba::compress {

/** Append-only bit stream writer. */
class BitWriter
{
  public:
    /**
     * Append the low @p count bits of @p value (count <= 64), a byte at
     * a time. Out of line (bitstream.cc): the multi-bit fields are the
     * rare ones, and keeping this body out of Encoder::append
     * leaves room to inline writeBit() at every flag.
     */
    void writeBits(std::uint64_t value, unsigned count);

    /** Append one bit (the per-field flag path, kept inline). */
    void
    writeBit(bool bit)
    {
        if (bit_pos_ == 0) bytes_.push_back(0);
        if (bit) bytes_.back() |= static_cast<std::uint8_t>(1u << bit_pos_);
        bit_pos_ = (bit_pos_ + 1) % 8;
    }

    /**
     * Append an unsigned LEB128-style varint: 7 value bits per group,
     * high bit of each group set when more groups follow.
     */
    void
    writeVarint(std::uint64_t value)
    {
        do {
            std::uint64_t group = value & 0x7f;
            value >>= 7;
            writeBits(group | (value ? 0x80 : 0), 8);
        } while (value);
    }

    /** Total bits written so far. */
    std::uint64_t bitCount() const
    {
        return bytes_.empty()
                   ? 0
                   : (bytes_.size() - 1) * 8 +
                         (bit_pos_ == 0 ? 8 : bit_pos_);
    }

    /** The backing bytes (the final byte may be partially filled). */
    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    unsigned bit_pos_ = 0; // next free bit index within bytes_.back()
};

/**
 * Outcome of a bit-stream read. kUnderrun is recoverable — the
 * caller may push more bytes, seek back to the record boundary and
 * retry — which is what the decoder's kNeedMore path does;
 * kMalformed is not.
 */
enum class BitsResult : std::uint8_t
{
    kOk = 0,
    /** The buffer holds too few bits. */
    kUnderrun,
    /** Structurally invalid encoding (e.g. overlong varint). */
    kMalformed,
};

/**
 * Sequential bit stream reader over a byte buffer. Every read is
 * checked: underruns and malformed encodings are reported, never
 * asserted, because the decoder reads untrusted input. The referenced
 * byte vector may grow between reads (the streaming decoder pushes
 * chunks into it); it must not shrink.
 */
class BitReader
{
  public:
    explicit BitReader(const std::vector<std::uint8_t>& bytes)
        : bytes_(bytes)
    {
    }

    /**
     * Read @p count bits (count <= 64, LSB-first order, matching
     * BitWriter) into @p out. On kUnderrun the position is left
     * unchanged and *out is unspecified.
     */
    BitsResult
    tryReadBits(unsigned count, std::uint64_t* out)
    {
        LBA_ASSERT(count <= 64, "cannot read more than 64 bits");
        if (pos_ + count > bytes_.size() * 8) {
            return BitsResult::kUnderrun;
        }
        std::uint64_t value = 0;
        for (unsigned i = 0; i < count; ++i) {
            std::size_t byte = pos_ / 8;
            if ((bytes_[byte] >> (pos_ % 8)) & 1) {
                value |= 1ull << i;
            }
            ++pos_;
        }
        *out = value;
        return BitsResult::kOk;
    }

    /** Read one bit. */
    BitsResult
    tryReadBit(bool* out)
    {
        std::uint64_t value = 0;
        BitsResult result = tryReadBits(1, &value);
        if (result == BitsResult::kOk) *out = value != 0;
        return result;
    }

    /**
     * Read a varint written by BitWriter::writeVarint. A varint whose continuation groups extend
     * past 64 value bits is kMalformed (an untrusted stream must not
     * be able to spin this loop); the position is then unspecified and
     * the caller is expected to seek back or abandon the stream.
     */
    BitsResult
    tryReadVarint(std::uint64_t* out)
    {
        std::uint64_t value = 0;
        unsigned shift = 0;
        while (true) {
            std::uint64_t group = 0;
            BitsResult result = tryReadBits(8, &group);
            if (result != BitsResult::kOk) return result;
            value |= (group & 0x7f) << shift;
            if (!(group & 0x80)) break;
            shift += 7;
            if (shift >= 64) return BitsResult::kMalformed;
        }
        *out = value;
        return BitsResult::kOk;
    }

    /** Bits consumed so far. */
    std::uint64_t bitPos() const { return pos_; }

    /** Bits currently buffered beyond the read position. */
    std::uint64_t
    bitsAvailable() const
    {
        return bytes_.size() * 8 - pos_;
    }

    /** Rewind/seek to an absolute bit position (record rollback). */
    void
    seekBit(std::uint64_t pos)
    {
        LBA_ASSERT(pos <= bytes_.size() * 8, "seek past end");
        pos_ = pos;
    }

  private:
    const std::vector<std::uint8_t>& bytes_;
    std::uint64_t pos_ = 0;
};

/** Map a signed delta to an unsigned value with small magnitudes small. */
inline std::uint64_t
zigzagEncode(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

/** Inverse of zigzagEncode. */
inline std::int64_t
zigzagDecode(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

/**
 * Zigzag-mapped delta of two unsigned values. The subtraction wraps mod
 * 2^64 (signed subtraction of arbitrary 64-bit values would overflow),
 * which zigzagApply inverts exactly.
 */
inline std::uint64_t
zigzagDelta(std::uint64_t value, std::uint64_t base)
{
    return zigzagEncode(static_cast<std::int64_t>(value - base));
}

/** Inverse of zigzagDelta: reapply a decoded delta to the base. */
inline std::uint64_t
zigzagApply(std::uint64_t base, std::uint64_t delta)
{
    return base + static_cast<std::uint64_t>(zigzagDecode(delta));
}

} // namespace lba::compress
