/**
 * @file
 * Bit stream writer: the multi-bit append.
 */

#include "compress/bitstream.h"

namespace lba::compress {

void
BitWriter::writeBits(std::uint64_t value, unsigned count)
{
    LBA_ASSERT(count <= 64, "cannot write more than 64 bits");
    // Top up the partial last byte, append whole bytes, then the
    // remainder: at most nine steps instead of one per bit.
    if (count < 64) value &= (1ull << count) - 1;
    if (bit_pos_ != 0) {
        bytes_.back() |= static_cast<std::uint8_t>(value << bit_pos_);
        unsigned room = 8 - bit_pos_;
        if (count < room) {
            bit_pos_ += count;
            return;
        }
        value >>= room;
        count -= room;
        bit_pos_ = 0;
    }
    for (; count >= 8; count -= 8, value >>= 8) {
        bytes_.push_back(static_cast<std::uint8_t>(value));
    }
    if (count != 0) {
        bytes_.push_back(static_cast<std::uint8_t>(value));
        bit_pos_ = count;
    }
}

} // namespace lba::compress
