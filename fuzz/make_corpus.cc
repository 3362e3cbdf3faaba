/**
 * @file
 * Seed-corpus generator. Writes the checked-in corpora under
 * fuzz/corpus/{decoder,encoder,roundtrip}/ — fully deterministic, so
 * rerunning it reproduces the committed files byte for byte:
 *
 *   make_corpus <repo>/fuzz/corpus
 *
 * Seeds are small and structure-bearing (libFuzzer guidance): for the
 * decoder, a genuinely valid encoded stream plus truncated/corrupted/
 * garbage variants so the fuzzer starts on both sides of every
 * validity check; for the encoder and roundtrip harnesses, packed
 * record bytes in the recordFromBytes() layout.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "compress/record_gen.h"

namespace {

using namespace lba::compress;

void
writeFile(const std::filesystem::path& path,
          const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
}

/** Encode @p count workload records. */
std::vector<std::uint8_t>
encodedStream(std::size_t count)
{
    RecordGen gen(0xc0dec);
    Encoder encoder;
    for (std::size_t i = 0; i < count; ++i) encoder.append(gen.next());
    encoder.finishStream();
    std::vector<std::uint8_t> payload(encoder.pullableBytes());
    encoder.pull(payload.data(), payload.size());
    return payload;
}

/** Pack records in the recordFromBytes() byte layout. */
std::vector<std::uint8_t>
packedRecords(std::uint64_t seed, std::size_t count, bool arbitrary)
{
    RecordGen gen(seed);
    std::vector<std::uint8_t> bytes;
    auto put64 = [&](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    for (std::size_t i = 0; i < count; ++i) {
        auto r = arbitrary ? gen.nextArbitrary() : gen.next();
        put64(r.pc);
        bytes.push_back(static_cast<std::uint8_t>(r.tid));
        bytes.push_back(static_cast<std::uint8_t>(r.tid >> 8));
        bytes.push_back(static_cast<std::uint8_t>(r.type));
        bytes.push_back(r.opcode);
        bytes.push_back(r.rd);
        bytes.push_back(r.rs1);
        bytes.push_back(r.rs2);
        put64(r.addr);
        put64(r.aux);
    }
    return bytes;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <corpus output dir>\n",
                     argv[0]);
        return 2;
    }
    std::filesystem::path root(argv[1]);
    for (const char* sub : {"decoder", "encoder", "roundtrip"})
        std::filesystem::create_directories(root / sub);

    // Decoder seeds: [chunk, stream].
    std::vector<std::uint8_t> payload = encodedStream(60);
    std::vector<std::uint8_t> valid = {7};
    valid.insert(valid.end(), payload.begin(), payload.end());
    writeFile(root / "decoder" / "valid", valid);

    std::vector<std::uint8_t> trunc(
        valid.begin(),
        valid.begin() + static_cast<std::ptrdiff_t>(valid.size() / 2));
    writeFile(root / "decoder" / "trunc", trunc);

    std::vector<std::uint8_t> flipped = valid;
    flipped[flipped.size() / 3] ^= 0x55;
    writeFile(root / "decoder" / "flip", flipped);

    // Encoder seeds: [packed records].
    std::vector<std::uint8_t> recs =
        packedRecords(0xfeed, 12, /*arbitrary=*/true);
    writeFile(root / "encoder" / "records", recs);

    // Roundtrip seeds: [chunk, packed records].
    std::vector<std::uint8_t> rt = {3};
    rt.insert(rt.end(), recs.begin(), recs.end());
    writeFile(root / "roundtrip" / "records", rt);

    // Structure-free seeds: pure noise and minimal inputs.
    RecordGen noise(0xbadbee5);
    std::vector<std::uint8_t> garbage = {0};
    for (int i = 0; i < 64; ++i)
        garbage.push_back(static_cast<std::uint8_t>(noise.nextU64()));
    writeFile(root / "decoder" / "garbage", garbage);
    writeFile(root / "decoder" / "tiny", {0x01, 0x00});
    writeFile(root / "encoder" / "tiny", {0x02});
    writeFile(root / "roundtrip" / "tiny", {0x00, 0x41});

    std::printf("corpora written under %s\n", root.c_str());
    return 0;
}
