/**
 * @file
 * Encoder fuzz harness: arbitrary bytes reinterpreted as event
 * records, pushed through the streaming encoder.
 *
 * Input format: the whole input is consumed in fixed-width strides as
 * packed EventRecord fields (compress/record_gen.h), each
 * canonicalized — capture-shaped records are the documented encoder
 * precondition. The contract under test: append() never aborts,
 * bitsWritten() grows with every record, records() tracks the append
 * count, and after finishStream() the pullable bytes drain to exactly
 * ceil(bitsWritten/8).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "compress/codec.h"
#include "compress/record_gen.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    using namespace lba::compress;
    Encoder encoder;
    std::uint64_t appended = 0;
    std::uint64_t pulled = 0;
    std::uint8_t sink[64];
    for (std::size_t pos = 0; pos < size; pos += kRecordStrideBytes) {
        lba::log::EventRecord record =
            canonicalize(recordFromBytes(data + pos, size - pos));
        std::uint64_t before = encoder.bitsWritten();
        encoder.append(record);
        ++appended;
        LBA_ASSERT(encoder.bitsWritten() > before,
                   "append must write at least one bit");
        LBA_ASSERT(encoder.records() == appended,
                   "encoder record count out of sync");
        // Interleave pulls: streaming consumers drain mid-encode.
        pulled += encoder.pull(sink, sizeof sink);
    }
    encoder.finishStream();
    while (std::size_t n = encoder.pull(sink, sizeof sink))
        pulled += n;
    LBA_ASSERT(encoder.pullableBytes() == 0,
               "drained encoder must report nothing pullable");
    LBA_ASSERT(pulled == (encoder.bitsWritten() + 7) / 8,
               "drained bytes must equal ceil(bitsWritten/8)");
    return 0;
}
