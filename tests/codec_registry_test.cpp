/**
 * @file
 * Streaming-codec contract tests: the roundtrip property the codec
 * owes the transport — byte-exact decode of whatever it encoded, under
 * adversarial chunking, on empty / single-record / randomized /
 * long streams — and typed (never crashing) failure on truncated or
 * garbage input. Plus the registry lookup perfbench compiles against.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compress/codec.h"
#include "compress/record_gen.h"
#include "compress/registry.h"

namespace lba::compress {
namespace {

/**
 * @p count records: capture-shaped workload records, or canonicalized
 * arbitrary ones (every field pattern the capture unit can emit).
 */
std::vector<log::EventRecord>
makeRecords(std::size_t count, std::uint64_t seed, bool arbitrary = true)
{
    RecordGen gen(seed);
    std::vector<log::EventRecord> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(arbitrary ? canonicalize(gen.nextArbitrary())
                                : gen.next());
    }
    return out;
}

/** Encode with interleaved small pulls; return the full payload. */
std::vector<std::uint8_t>
encodeChunked(const std::vector<log::EventRecord>& records,
              std::size_t pull_bytes)
{
    Encoder encoder;
    std::vector<std::uint8_t> payload;
    std::uint8_t sink[256];
    std::uint64_t bits_before = 0;
    for (const auto& record : records) {
        encoder.append(record);
        EXPECT_GT(encoder.bitsWritten(), bits_before);
        bits_before = encoder.bitsWritten();
        while (std::size_t n = encoder.pull(
                   sink, std::min(pull_bytes, sizeof sink)))
            payload.insert(payload.end(), sink, sink + n);
    }
    encoder.finishStream();
    while (std::size_t n =
               encoder.pull(sink, std::min(pull_bytes, sizeof sink)))
        payload.insert(payload.end(), sink, sink + n);
    EXPECT_EQ(encoder.records(), records.size());
    EXPECT_EQ(encoder.pullableBytes(), 0u);
    EXPECT_EQ(payload.size(), (encoder.bitsWritten() + 7) / 8);
    return payload;
}

/** Decode with @p chunk-byte pushes; expects a clean kEnd. */
std::vector<log::EventRecord>
decodeChunked(const std::vector<std::uint8_t>& payload, std::size_t chunk)
{
    Decoder decoder;
    std::vector<log::EventRecord> records;
    log::EventRecord record;
    std::size_t pos = 0;
    while (true) {
        DecodeStatus status = decoder.next(&record);
        if (status == DecodeStatus::kOk) {
            records.push_back(record);
            continue;
        }
        if (status == DecodeStatus::kNeedMore) {
            if (pos < payload.size()) {
                std::size_t n = std::min(chunk, payload.size() - pos);
                decoder.push(payload.data() + pos, n);
                pos += n;
            } else {
                decoder.finishInput();
            }
            continue;
        }
        EXPECT_EQ(status, DecodeStatus::kEnd)
            << decoder.error().toString();
        break;
    }
    EXPECT_EQ(decoder.records(), records.size());
    return records;
}

TEST(CodecRegistry, FindsOnlyThePredictorCodec)
{
    const CodecInfo* info =
        CodecRegistry::instance().find(kDefaultCodec);
    ASSERT_NE(info, nullptr);
    EXPECT_STREQ(kDefaultCodec, "predictor");
    EXPECT_EQ(CodecRegistry::instance().find("varint"), nullptr);
    EXPECT_EQ(CodecRegistry::instance().find("dict"), nullptr);
    EXPECT_EQ(CodecRegistry::instance().find(""), nullptr);

    // Fresh, independent encoders.
    auto a = info->makeEncoder();
    auto b = info->makeEncoder();
    RecordGen gen(1);
    a->append(gen.next());
    EXPECT_EQ(a->records(), 1u);
    EXPECT_EQ(b->records(), 0u);
    EXPECT_EQ(b->bitsWritten(), 0u);
}

TEST(CodecProperty, EmptyStreamRoundTrips)
{
    auto payload = encodeChunked({}, 256);
    EXPECT_TRUE(payload.empty());
    EXPECT_TRUE(decodeChunked(payload, 1).empty());
}

TEST(CodecProperty, SingleRecordRoundTrips)
{
    auto input = makeRecords(1, 0x5eed);
    EXPECT_EQ(decodeChunked(encodeChunked(input, 256), 1), input);
}

TEST(CodecProperty, RandomizedStreamsRoundTripByteExact)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        auto input = makeRecords(500, seed);
        EXPECT_EQ(decodeChunked(encodeChunked(input, 7), 3), input)
            << "seed " << seed;
    }
}

TEST(CodecProperty, WorkloadShapedStreamsRoundTrip)
{
    // Hot loops and strided addresses, what the pipeline produces.
    auto input = makeRecords(2000, 0xcafe, /*arbitrary=*/false);
    EXPECT_EQ(decodeChunked(encodeChunked(input, 64), 16), input);
}

TEST(CodecProperty, LongArbitraryStreamsRoundTrip)
{
    // Thousands of distinct random pcs: every predictor bank grows
    // well past its initial capacity mid-stream.
    auto input = makeRecords(6000, 0xd1c7);
    EXPECT_EQ(decodeChunked(encodeChunked(input, 512), 64), input);
}

TEST(CodecProperty, OneBytePushesMatchBulkPush)
{
    auto input = makeRecords(64, 0xab);
    auto payload = encodeChunked(input, 1);
    EXPECT_EQ(decodeChunked(payload, 1), input);
    EXPECT_EQ(decodeChunked(payload, payload.size() + 1), input);
}

TEST(CodecProperty, TruncatedStreamsFailTyped)
{
    auto input = makeRecords(100, 0x720);
    auto payload = encodeChunked(input, 256);
    // Cut at several depths; every cut must end in a typed error or a
    // clean early end — never a crash or a hang.
    for (std::size_t cut :
         {payload.size() / 4, payload.size() / 2, payload.size() - 1}) {
        Decoder decoder;
        decoder.push(payload.data(), cut);
        decoder.finishInput();
        log::EventRecord record;
        std::size_t decoded = 0;
        DecodeStatus status;
        while ((status = decoder.next(&record)) == DecodeStatus::kOk)
            ++decoded;
        EXPECT_NE(status, DecodeStatus::kNeedMore);
        EXPECT_LT(decoded, input.size()) << "cut " << cut;
        if (status == DecodeStatus::kError) {
            EXPECT_NE(decoder.error().kind, DecodeErrorKind::kNone);
            // And the error sticks.
            EXPECT_EQ(decoder.next(&record), DecodeStatus::kError);
        }
    }
}

TEST(CodecProperty, GarbageInputFailsTypedNotFatally)
{
    RecordGen noise(0xbad);
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<std::uint8_t> garbage(64 + (noise.nextU64() % 256));
        for (auto& b : garbage)
            b = static_cast<std::uint8_t>(noise.nextU64());
        Decoder decoder;
        decoder.push(garbage.data(), garbage.size());
        decoder.finishInput();
        log::EventRecord record;
        DecodeStatus status;
        std::size_t guard = 0;
        while ((status = decoder.next(&record)) == DecodeStatus::kOk &&
               ++guard < garbage.size() * 8) {
        }
        EXPECT_TRUE(status == DecodeStatus::kEnd ||
                    status == DecodeStatus::kError);
    }
}

} // namespace
} // namespace lba::compress
