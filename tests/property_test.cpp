/**
 * @file
 * Cross-module property tests: seeded fuzz sweeps of the compressor
 * round-trip, disassembler/assembler round-trip on random programs,
 * heap allocator invariants under random workloads, and bug-injection
 * matrix coverage of the whole pipeline.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "asm/assembler.h"
#include "compress/codec.h"
#include "core/runner.h"
#include "isa/disasm.h"
#include "isa/encoding.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/lockset.h"
#include "lifeguards/taintcheck.h"
#include "log/capture.h"
#include "sim/heap.h"
#include "sim/process.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba {
namespace {

/** Deterministic fuzz RNG. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
    std::uint64_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_;
    }
    std::uint64_t bounded(std::uint64_t b) { return b ? next() % b : 0; }

  private:
    std::uint64_t state_;
};

// ------------------------------------------------ compressor fuzzing --

/** Fuzzed record streams mixing realistic and adversarial patterns. */
class CompressorFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CompressorFuzz, RoundTripIsExact)
{
    Rng rng(GetParam());
    std::vector<log::EventRecord> trace;
    Addr loop_pc = 0x10000;
    Addr stream_addr = 0x20000000;
    for (int i = 0; i < 3000; ++i) {
        log::EventRecord r;
        r.tid = static_cast<ThreadId>(rng.bounded(3));
        switch (rng.bounded(6)) {
          case 0: // loopy load (predictable)
            r.pc = loop_pc + rng.bounded(4) * 8;
            r.type = log::EventType::kLoad;
            r.opcode = static_cast<std::uint8_t>(isa::Opcode::kLd);
            r.rd = static_cast<std::uint8_t>(rng.bounded(32));
            r.rs1 = static_cast<std::uint8_t>(rng.bounded(32));
            r.addr = stream_addr += 16;
            r.aux = 8;
            break;
          case 1: // wild store (adversarial address)
            r.pc = rng.bounded(1 << 20) * 8;
            r.type = log::EventType::kStore;
            r.opcode = static_cast<std::uint8_t>(isa::Opcode::kSb);
            r.rs1 = static_cast<std::uint8_t>(rng.bounded(32));
            r.rs2 = static_cast<std::uint8_t>(rng.bounded(32));
            r.addr = rng.next();
            r.aux = 1;
            break;
          case 2: // branch with varying taken-ness
            r.pc = loop_pc + 64;
            r.type = log::EventType::kBranch;
            r.opcode = static_cast<std::uint8_t>(isa::Opcode::kBne);
            if (rng.bounded(2)) {
                r.addr = loop_pc;
                r.aux = 1;
            }
            break;
          case 3: // return to varying sites
            r.pc = loop_pc + 128;
            r.type = log::EventType::kReturn;
            r.opcode = static_cast<std::uint8_t>(isa::Opcode::kRet);
            r.addr = 0x30000 + rng.bounded(8) * 0x40;
            r.aux = 1;
            break;
          case 4: // annotation with random payload
            r.type = static_cast<log::EventType>(
                static_cast<unsigned>(log::EventType::kAlloc) +
                rng.bounded(8));
            r.addr = rng.next();
            r.aux = rng.next() & 0xffff;
            break;
          default: // plain ALU
            r.pc = loop_pc + rng.bounded(16) * 8;
            r.type = log::EventType::kIntAlu;
            r.opcode = static_cast<std::uint8_t>(isa::Opcode::kAdd);
            r.rd = static_cast<std::uint8_t>(rng.bounded(32));
            r.rs1 = static_cast<std::uint8_t>(rng.bounded(32));
            r.rs2 = static_cast<std::uint8_t>(rng.bounded(32));
            break;
        }
        trace.push_back(r);
    }

    compress::Encoder c;
    for (const auto& r : trace) c.append(r);
    c.finishStream();
    std::vector<std::uint8_t> bytes(c.pullableBytes());
    c.pull(bytes.data(), bytes.size());
    compress::Decoder d;
    d.push(bytes.data(), bytes.size());
    d.finishInput();
    log::EventRecord record;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(d.next(&record), compress::DecodeStatus::kOk)
            << "record " << i << ": " << d.error().toString();
        ASSERT_EQ(record, trace[i]) << "record " << i;
    }
    EXPECT_EQ(d.next(&record), compress::DecodeStatus::kEnd);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressorFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------- disasm/asm round-trip fuzzing --

class DisasmRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DisasmRoundTrip, RandomProgramSurvivesTextRoundTrip)
{
    Rng rng(GetParam() * 977 + 3);
    std::vector<isa::Instruction> program;
    for (int i = 0; i < 300; ++i) {
        isa::Instruction instr;
        instr.op = static_cast<isa::Opcode>(rng.bounded(
            static_cast<unsigned>(isa::Opcode::kNumOpcodes)));
        instr.rd = static_cast<RegIndex>(rng.bounded(isa::kNumRegs));
        instr.rs1 = static_cast<RegIndex>(rng.bounded(isa::kNumRegs));
        instr.rs2 = static_cast<RegIndex>(rng.bounded(isa::kNumRegs));
        instr.imm = static_cast<std::int32_t>(rng.next());
        // Canonicalize fields the text form does not carry (unused
        // operands are zero in assembled output).
        if (!isa::readsRs1(instr.op)) instr.rs1 = 0;
        if (!isa::readsRs2(instr.op)) instr.rs2 = 0;
        if (!isa::writesRd(instr.op)) instr.rd = 0;
        switch (isa::classOf(instr.op)) {
          case isa::InstrClass::kNop:
          case isa::InstrClass::kHalt:
          case isa::InstrClass::kReturn:
          case isa::InstrClass::kMove:
            instr.imm = 0;
            break;
          case isa::InstrClass::kIndirectJump:
          case isa::InstrClass::kIndirectCall:
            instr.imm = 0;
            break;
          case isa::InstrClass::kIntAlu:
            if (isa::readsRs2(instr.op)) instr.imm = 0;
            break;
          case isa::InstrClass::kSyscall:
            instr.imm = static_cast<std::int32_t>(rng.bounded(10));
            break;
          default:
            break;
        }
        program.push_back(instr);
    }

    std::string text;
    for (const auto& instr : program) {
        text += isa::disassemble(instr) + "\n";
    }
    auto result = assembler::assemble(text);
    ASSERT_TRUE(result.ok()) << result.error << "\n" << text;
    ASSERT_EQ(result.program.size(), program.size());
    for (std::size_t i = 0; i < program.size(); ++i) {
        EXPECT_EQ(result.program[i], program[i])
            << i << ": " << isa::disassemble(program[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisasmRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 6));

// --------------------------------------------- heap allocator fuzzing --

class HeapFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HeapFuzz, NoOverlapNoLossUnderRandomWorkload)
{
    Rng rng(GetParam() * 31 + 7);
    sim::Heap heap(0x10000, 1 << 20);
    std::map<Addr, std::uint64_t> live; // base -> size
    std::uint64_t expected_bytes = 0;

    for (int step = 0; step < 5000; ++step) {
        if (live.empty() || rng.bounded(100) < 60) {
            std::uint64_t size = rng.bounded(512) + 1;
            Addr a = heap.alloc(size);
            if (a == 0) continue; // exhausted: fine
            std::uint64_t rounded = (size + 15) & ~15ull;
            // In-range and aligned.
            ASSERT_GE(a, 0x10000u);
            ASSERT_LE(a + rounded, 0x10000u + (1 << 20));
            ASSERT_EQ(a % 16, 0u);
            // No overlap with any live block.
            auto next = live.lower_bound(a);
            if (next != live.end()) {
                ASSERT_LE(a + rounded, next->first);
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                ASSERT_LE(prev->first + prev->second, a);
            }
            live[a] = rounded;
            expected_bytes += rounded;
        } else {
            auto it = live.begin();
            std::advance(it, rng.bounded(live.size()));
            ASSERT_TRUE(heap.free(it->first));
            ASSERT_FALSE(heap.free(it->first)); // double free rejected
            expected_bytes -= it->second;
            live.erase(it);
        }
        ASSERT_EQ(heap.liveBytes(), expected_bytes);
        ASSERT_EQ(heap.liveBlocks(), live.size());
    }
    // Free everything; the arena must coalesce back to one max block.
    for (const auto& [base, size] : live) {
        ASSERT_TRUE(heap.free(base));
    }
    Addr whole = heap.alloc((1 << 20) - 16);
    EXPECT_NE(whole, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapFuzz,
                         ::testing::Values(11, 22, 33, 44));

// ------------------------------------------ bug-injection matrix -----

struct BugCase
{
    const char* benchmark;
    workload::BugInjection bugs;
    lifeguard::FindingKind expected;
};

class BugMatrix : public ::testing::TestWithParam<int>
{
  public:
    static std::vector<BugCase>
    cases()
    {
        workload::BugInjection uaf;
        uaf.use_after_free = true;
        workload::BugInjection dfree;
        dfree.double_free = true;
        workload::BugInjection leak;
        leak.leak = true;
        workload::BugInjection jump;
        jump.tainted_jump = true;
        workload::BugInjection race;
        race.race = true;
        return {
            {"bc", uaf, lifeguard::FindingKind::kUnallocatedAccess},
            {"gs", uaf, lifeguard::FindingKind::kUnallocatedAccess},
            {"tidy", dfree, lifeguard::FindingKind::kDoubleFree},
            {"w3m", dfree, lifeguard::FindingKind::kDoubleFree},
            {"gnuplot", leak, lifeguard::FindingKind::kMemoryLeak},
            {"mcf", leak, lifeguard::FindingKind::kMemoryLeak},
            {"gzip", jump, lifeguard::FindingKind::kTaintedJump},
            {"w3m", jump, lifeguard::FindingKind::kTaintedJump},
            {"water", race, lifeguard::FindingKind::kDataRace},
            {"zchaff", race, lifeguard::FindingKind::kDataRace},
        };
    }
};

TEST_P(BugMatrix, RightLifeguardCatchesRightBug)
{
    const BugCase bug_case = cases()[GetParam()];
    auto generated = workload::generate(
        *workload::findProfile(bug_case.benchmark), bug_case.bugs,
        60000);
    core::Experiment exp(generated.program);

    core::LifeguardFactory factory;
    switch (bug_case.expected) {
      case lifeguard::FindingKind::kTaintedJump:
        factory = [] {
            return std::make_unique<lifeguards::TaintCheck>();
        };
        break;
      case lifeguard::FindingKind::kDataRace:
        factory = [] {
            return std::make_unique<lifeguards::LockSet>();
        };
        break;
      default:
        factory = [] {
            return std::make_unique<lifeguards::AddrCheck>();
        };
        break;
    }
    auto result = exp.runLba(factory);
    std::size_t hits = 0;
    for (const auto& f : result.findings) {
        if (f.kind == bug_case.expected) ++hits;
    }
    EXPECT_GE(hits, 1u)
        << bug_case.benchmark << " expected "
        << lifeguard::findingKindName(bug_case.expected);
}

INSTANTIATE_TEST_SUITE_P(Cases, BugMatrix,
                         ::testing::Range(0, 10));

// ------------------------------------- process determinism property --

class ProcessDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ProcessDeterminism, IdenticalEventStreamsAcrossRuns)
{
    auto generated = workload::generate(
        *workload::findProfile(GetParam()), {}, 40000);

    auto digest = [&]() {
        std::uint64_t hash = 1469598103934665603ull;
        log::CaptureUnit capture([&](const log::EventRecord& r) {
            auto mix = [&](std::uint64_t v) {
                hash ^= v;
                hash *= 1099511628211ull;
            };
            mix(r.pc);
            mix(static_cast<std::uint64_t>(r.type));
            mix(r.addr);
            mix(r.aux);
            mix(r.tid);
        });
        sim::Process p;
        p.load(generated.program);
        p.run(&capture);
        return hash;
    };
    EXPECT_EQ(digest(), digest());
}

INSTANTIATE_TEST_SUITE_P(Suite, ProcessDeterminism,
                         ::testing::Values("bc", "mcf", "water",
                                           "zchaff"));

} // namespace
} // namespace lba
