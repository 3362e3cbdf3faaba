/**
 * @file
 * Reproduces the Section 2 compression claim — the value-prediction
 * compressor achieves "less than one byte per instruction" on every
 * benchmark's event log, with a per-field bit breakdown — and measures
 * the codec on the whole suite's capture stream: compressed
 * bytes/record, ratio against the 31-byte packed record encoding, and
 * host-side encode/decode cost per record, behind an exact roundtrip
 * check.
 *
 * JSON rows land in BENCH_results.json via --json (see
 * docs/BENCHMARKS.md for the schema).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/assert.h"
#include "compress/codec.h"
#include "compress/record_gen.h"
#include "log/capture.h"
#include "sim/process.h"

namespace {

using namespace lba;

double
nsPerRecord(std::chrono::steady_clock::duration d, std::size_t records)
{
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                   .count()) /
           static_cast<double>(records);
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t instrs = bench::benchInstructions();
    bench::JsonReport report("compression_ratio",
                             bench::jsonOutPath(argc, argv));

    std::printf("Compression (paper Section 2: < 1 byte/instruction)\n\n");
    stats::Table table({"benchmark", "records", "bytes/record",
                        "bits: pc", "static", "addr", "ctrl", "other"});

    // Full capture stream across the suite, reused for the host-cost
    // measurement below.
    std::vector<log::EventRecord> all_records;

    double worst = 0.0;
    for (const workload::Profile& profile : workload::fullSuite()) {
        auto generated = workload::generate(profile, {}, instrs);
        compress::Encoder compressor;
        log::CaptureUnit capture([&](const log::EventRecord& r) {
            compressor.append(r);
            all_records.push_back(r);
        });
        sim::Process process;
        process.load(generated.program);
        process.run(&capture);

        double bpr = compressor.bytesPerRecord();
        worst = std::max(worst, bpr);
        const compress::FieldBits& f = compressor.fieldBits();
        auto per = [&](std::uint64_t bits) {
            return stats::formatDouble(
                static_cast<double>(bits) /
                    static_cast<double>(compressor.records()),
                3);
        };
        table.addRow({profile.name,
                      std::to_string(compressor.records()),
                      stats::formatDouble(bpr, 3), per(f.pc),
                      per(f.stat), per(f.addr), per(f.ctrl),
                      per(f.kind + f.tid + f.annotation)});
    }
    std::printf("%s\n", table.toString().c_str());
    report.addTable("per-benchmark predictor bits", table);

    // Host cost of the codec on the whole suite's capture stream, with
    // a decode-side roundtrip check (a codec that cannot reproduce the
    // stream has no business reporting a ratio).
    stats::Table codec({"codec", "records", "payload B", "bytes/record",
                        "ratio", "encode ns/rec", "decode ns/rec"});
    const double raw_bytes =
        static_cast<double>(all_records.size()) *
        static_cast<double>(compress::kRecordStrideBytes);
    compress::Encoder encoder;
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& record : all_records) encoder.append(record);
    encoder.finishStream();
    auto t1 = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> payload(encoder.pullableBytes());
    LBA_ASSERT(encoder.pull(payload.data(), payload.size()) ==
                   payload.size(),
               "encoder under-drained");

    compress::Decoder decoder;
    decoder.push(payload.data(), payload.size());
    decoder.finishInput();
    log::EventRecord record;
    std::size_t decoded = 0;
    bool exact = true;
    auto t2 = std::chrono::steady_clock::now();
    while (decoder.next(&record) == compress::DecodeStatus::kOk) {
        exact = exact && decoded < all_records.size() &&
                record == all_records[decoded];
        ++decoded;
    }
    auto t3 = std::chrono::steady_clock::now();
    LBA_ASSERT(decoder.error().ok(),
               "codec failed to decode its own stream");
    LBA_ASSERT(exact && decoded == all_records.size(),
               "codec roundtrip is not exact");

    double bpr = static_cast<double>(payload.size()) /
                 static_cast<double>(all_records.size());
    codec.addRow(
        {compress::kCodecName, std::to_string(all_records.size()),
         std::to_string(payload.size()), stats::formatDouble(bpr, 3),
         stats::formatDouble(
             raw_bytes / static_cast<double>(payload.size()), 2),
         stats::formatDouble(nsPerRecord(t1 - t0, decoded), 1),
         stats::formatDouble(nsPerRecord(t3 - t2, decoded), 1)});
    std::printf("Codec host cost (whole-suite capture stream, %zu "
                "records; raw = %zu B packed records)\n\n",
                all_records.size(),
                static_cast<std::size_t>(raw_bytes));
    std::printf("%s\n", codec.toString().c_str());
    report.addTable("codec ratio and host cost", codec);

    std::printf("worst case: %.3f bytes/record -> target (< 1 B) %s\n",
                worst, worst < 1.0 ? "MET" : "MISSED");
    return worst < 1.0 ? 0 : 1;
}
