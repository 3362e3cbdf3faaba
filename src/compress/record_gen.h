#pragma once
/**
 * @file
 * Shared record generation for codec tests, benches, and fuzz
 * harnesses: a deterministic PRNG record stream and the canonicalizer
 * that maps arbitrary records onto capture-shaped ones.
 *
 * "Canonical" means "could have come from the capture unit": the
 * codec does not transmit fields it can rederive (aux for memory/
 * control events, pc and operand ids for annotations), so it only
 * round-trips records where those fields already hold the derived
 * values. canonicalize() enforces exactly the shape the Decoder
 * reconstructs.
 */

#include <cstddef>
#include <cstdint>

#include "compress/codec.h"
#include "isa/isa.h"
#include "log/event.h"

namespace lba::compress {

/** Force @p record into capture shape (see file comment). */
inline log::EventRecord
canonicalize(log::EventRecord record)
{
    if (log::isAnnotation(record.type)) {
        // Annotation payload is (tid, type, addr, aux) only.
        record.pc = 0;
        record.opcode = 0;
        record.rd = 0;
        record.rs1 = 0;
        record.rs2 = 0;
        return record;
    }
    auto op = static_cast<isa::Opcode>(
        record.opcode %
        static_cast<std::uint8_t>(isa::Opcode::kNumOpcodes));
    record.opcode = static_cast<std::uint8_t>(op);
    record.rd &= isa::kNumRegs - 1;
    record.rs1 &= isa::kNumRegs - 1;
    record.rs2 &= isa::kNumRegs - 1;
    auto cls = isa::classOf(op);
    record.type = log::eventTypeOf(cls);
    if (cls == isa::InstrClass::kLoad ||
        cls == isa::InstrClass::kStore) {
        record.aux = isa::memAccessBytes(op);
    } else if (isa::isControl(op)) {
        if (record.aux != 0) {
            record.aux = 1; // taken; addr carries the target
        } else {
            record.addr = 0; // not taken: no payload transmitted
        }
    } else {
        record.addr = 0;
        record.aux = 0;
    }
    return record;
}

/**
 * Deterministic record-stream generator (splitmix64 core). Same seed,
 * same stream — everywhere, forever; test failures replay exactly.
 */
class RecordGen
{
  public:
    explicit RecordGen(std::uint64_t seed) : state_(seed) {}

    /** Next raw pseudo-random 64-bit value. */
    std::uint64_t
    nextU64()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /**
     * Next workload-shaped record: a small hot pc set and strided
     * addresses most of the time (so the predictors have something
     * to predict), wild values on a minority of records (so they also
     * see misses), occasional annotations.
     */
    log::EventRecord
    next()
    {
        log::EventRecord record;
        std::uint64_t r = nextU64();
        record.tid = static_cast<ThreadId>((r >> 8) % 3);
        if (r % 16 == 0) {
            // Annotation event.
            record.type = static_cast<log::EventType>(
                static_cast<unsigned>(log::EventType::kAlloc) +
                ((r >> 16) % 8));
            record.addr = 0x10000 + ((r >> 24) % 64) * 64;
            record.aux = (r >> 32) % 512;
            return canonicalize(record);
        }
        if (r % 16 < 12) {
            // Hot loop: sequential pcs, strided addresses.
            record.pc = 0x400000 + (pc_step_++ % 64) * 8;
            record.opcode = static_cast<std::uint8_t>(
                (r >> 16) %
                static_cast<std::uint8_t>(isa::Opcode::kNumOpcodes));
            record.addr = 0x800000 + (addr_step_++ % 1024) * 8;
        } else {
            // Cold record: everything pseudo-random.
            record.pc = nextU64();
            record.opcode = static_cast<std::uint8_t>(r >> 16);
            record.addr = nextU64();
        }
        record.rd = static_cast<std::uint8_t>(r >> 40);
        record.rs1 = static_cast<std::uint8_t>(r >> 48);
        record.rs2 = static_cast<std::uint8_t>(r >> 56);
        record.aux = (r >> 4) & 1;
        return canonicalize(record);
    }

    /**
     * Next fully arbitrary record (any field pattern, including shapes
     * the capture unit never emits). Canonicalized, it covers every
     * record shape the codec accepts; raw, it seeds the fuzz corpus.
     */
    log::EventRecord
    nextArbitrary()
    {
        log::EventRecord record;
        std::uint64_t a = nextU64(), b = nextU64();
        record.pc = a;
        record.tid = static_cast<ThreadId>(b);
        record.type = static_cast<log::EventType>(
            (b >> 16) % log::kNumEventTypes);
        record.opcode = static_cast<std::uint8_t>(b >> 24);
        record.rd = static_cast<std::uint8_t>(b >> 32);
        record.rs1 = static_cast<std::uint8_t>(b >> 40);
        record.rs2 = static_cast<std::uint8_t>(b >> 48);
        record.addr = nextU64();
        record.aux = nextU64();
        return record;
    }

  private:
    std::uint64_t state_;
    std::uint64_t pc_step_ = 0;
    std::uint64_t addr_step_ = 0;
};

/**
 * Bytes consumed per record by recordFromBytes(): pc(8) + tid(2) +
 * type/opcode/rd/rs1/rs2(5) + addr(8) + aux(8). Fuzz harnesses step
 * their input in this stride.
 */
inline constexpr std::size_t kRecordStrideBytes = 31;

/**
 * Build a record from raw bytes (fuzzer input -> encoder input).
 * Consumes up to kRecordStrideBytes; shorter input zero-fills. The
 * type field is reduced mod kNumEventTypes so the record is *valid*
 * (encoders may assert on impossible enum values — that is not a
 * finding), but no other field is constrained.
 */
inline log::EventRecord
recordFromBytes(const std::uint8_t* data, std::size_t n)
{
    auto u64 = [&](std::size_t at) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i) {
            if (at + i < n) {
                v |= static_cast<std::uint64_t>(data[at + i]) << (8 * i);
            }
        }
        return v;
    };
    auto u8 = [&](std::size_t at) -> std::uint8_t {
        return at < n ? data[at] : 0;
    };
    log::EventRecord record;
    record.pc = u64(0);
    record.tid = static_cast<ThreadId>(u8(8) |
                                       (static_cast<unsigned>(u8(9)) << 8));
    record.type =
        static_cast<log::EventType>(u8(10) % log::kNumEventTypes);
    record.opcode = u8(11);
    record.rd = u8(12);
    record.rs1 = u8(13);
    record.rs2 = u8(14);
    record.addr = u64(15);
    record.aux = u64(23);
    return record;
}

} // namespace lba::compress
