/**
 * @file
 * MICRO-COMP: google-benchmark microbenchmarks of the log codec —
 * compression/decompression throughput (decode behind a roundtrip
 * check) and predictor-hit behaviour on characteristic record streams. Supports the Section 2 bandwidth
 * argument: the compress engine must keep up with instruction retirement.
 */

#include <benchmark/benchmark.h>

#include "compress/codec.h"
#include "log/capture.h"
#include "sim/process.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace lba;

/** A strided load trace (best case for the predictors). */
std::vector<log::EventRecord>
stridedTrace(std::size_t n)
{
    std::vector<log::EventRecord> trace;
    trace.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        log::EventRecord r;
        r.pc = 0x1000 + (i % 8) * 8;
        r.type = log::EventType::kLoad;
        r.opcode = static_cast<std::uint8_t>(isa::Opcode::kLd);
        r.rd = 1;
        r.rs1 = 2;
        r.addr = 0x100000 + i * 16;
        r.aux = 8;
        trace.push_back(r);
    }
    return trace;
}

/** A benchmark-derived trace (realistic predictor behaviour). */
const std::vector<log::EventRecord>&
benchmarkTrace()
{
    static const std::vector<log::EventRecord> trace = [] {
        auto generated = workload::generate(
            *workload::findProfile("gzip"), {}, 100000);
        std::vector<log::EventRecord> t;
        log::CaptureUnit capture(
            [&](const log::EventRecord& r) { t.push_back(r); });
        sim::Process p;
        p.load(generated.program);
        p.run(&capture);
        return t;
    }();
    return trace;
}

/** Encode @p trace and seal the stream. */
std::vector<std::uint8_t>
encodeAll(const std::vector<log::EventRecord>& trace)
{
    compress::Encoder encoder;
    for (const auto& r : trace) encoder.append(r);
    encoder.finishStream();
    std::vector<std::uint8_t> payload(encoder.pullableBytes());
    encoder.pull(payload.data(), payload.size());
    return payload;
}

void
BM_CompressStrided(benchmark::State& state)
{
    auto trace = stridedTrace(4096);
    for (auto _ : state) {
        compress::Encoder c;
        for (const auto& r : trace) c.append(r);
        benchmark::DoNotOptimize(c.bitsWritten());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_CompressStrided);

void
BM_CompressBenchmarkTrace(benchmark::State& state)
{
    const auto& trace = benchmarkTrace();
    for (auto _ : state) {
        compress::Encoder c;
        for (const auto& r : trace) c.append(r);
        benchmark::DoNotOptimize(c.bitsWritten());
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
    // Report the headline metric alongside throughput.
    compress::Encoder c;
    for (const auto& r : trace) c.append(r);
    state.counters["bytes_per_record"] = c.bytesPerRecord();
}
BENCHMARK(BM_CompressBenchmarkTrace);

void
BM_DecompressBenchmarkTrace(benchmark::State& state)
{
    const auto& trace = benchmarkTrace();
    const std::vector<std::uint8_t> payload = encodeAll(trace);
    log::EventRecord record;
    {
        // Roundtrip check: a decoder that cannot reproduce the stream
        // has no throughput worth reporting.
        compress::Decoder d;
        d.push(payload.data(), payload.size());
        d.finishInput();
        for (const auto& expected : trace) {
            if (d.next(&record) != compress::DecodeStatus::kOk ||
                !(record == expected)) {
                state.SkipWithError("roundtrip mismatch");
                return;
            }
        }
    }
    for (auto _ : state) {
        compress::Decoder d;
        d.push(payload.data(), payload.size());
        d.finishInput();
        while (d.next(&record) == compress::DecodeStatus::kOk)
            benchmark::DoNotOptimize(record);
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_DecompressBenchmarkTrace);

void
BM_CaptureRecordFormation(benchmark::State& state)
{
    sim::Retired r;
    r.pc = 0x1000;
    r.instr = {isa::Opcode::kLd, 1, 2, 0, 8};
    r.mem_addr = 0x20000;
    r.mem_bytes = 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(log::CaptureUnit::makeRecord(r));
    }
}
BENCHMARK(BM_CaptureRecordFormation);

} // namespace

BENCHMARK_MAIN();
