/**
 * @file
 * The log codec: predictor-driven encode and hardened two-phase decode.
 *
 * Invariant: every predictor update the encoder performs is mirrored
 * verbatim by the decoder, keeping the two predictor banks bit-for-bit
 * in sync.
 */

#include "compress/codec.h"

#include <cstring>

#include "common/assert.h"

namespace lba::compress {

using log::EventRecord;
using log::EventType;

namespace {

/** True when the class carries a load/store effective address. */
bool
hasMemPayload(isa::InstrClass cls)
{
    return cls == isa::InstrClass::kLoad || cls == isa::InstrClass::kStore;
}

/** True when the class carries a control-transfer payload. */
bool
hasCtrlPayload(isa::InstrClass cls)
{
    switch (cls) {
      case isa::InstrClass::kBranch:
      case isa::InstrClass::kJump:
      case isa::InstrClass::kIndirectJump:
      case isa::InstrClass::kCall:
      case isa::InstrClass::kIndirectCall:
      case isa::InstrClass::kReturn:
        return true;
      default:
        return false;
    }
}

} // namespace

void
Encoder::append(const EventRecord& record)
{
    ++records_;
    std::uint64_t mark = writer_.bitCount();
    auto take = [&](std::uint64_t& sink) {
        std::uint64_t now = writer_.bitCount();
        sink += now - mark;
        mark = now;
    };

    bool annotation = log::isAnnotation(record.type);
    writer_.writeBit(annotation);
    take(field_bits_.kind);

    // Thread id.
    if (bank_.tid_seen && record.tid == bank_.last_tid) {
        writer_.writeBit(true);
    } else {
        writer_.writeBit(false);
        writer_.writeBits(record.tid, 16);
    }
    bank_.last_tid = record.tid;
    bank_.tid_seen = true;
    take(field_bits_.tid);

    if (annotation) {
        unsigned type_index =
            static_cast<unsigned>(record.type) -
            static_cast<unsigned>(EventType::kAlloc);
        LBA_ASSERT(type_index < 8, "bad annotation type");
        writer_.writeBits(type_index, 3);
        auto& last = bank_.annotation[type_index];
        writer_.writeVarint(zigzagDelta(record.addr, last.addr));
        writer_.writeVarint(zigzagDelta(record.aux, last.aux));
        last.addr = record.addr;
        last.aux = record.aux;
        take(field_bits_.annotation);
        return;
    }

    // Program counter.
    PcPredictor::Source pc_src = bank_.pc.predict(record.tid, record.pc);
    switch (pc_src) {
      case PcPredictor::Source::kSequential:
        writer_.writeBit(false);
        break;
      case PcPredictor::Source::kContext:
        writer_.writeBit(true);
        writer_.writeBit(false);
        break;
      case PcPredictor::Source::kMiss:
        writer_.writeBit(true);
        writer_.writeBit(true);
        writer_.writeVarint(
            zigzagDelta(record.pc, bank_.pc.missBase(record.tid)));
        break;
    }
    bank_.pc.update(record.tid, record.pc);
    take(field_bits_.pc);

    // Static instruction fields.
    StaticInfo actual{record.opcode, record.rd, record.rs1, record.rs2};
    const StaticInfo* predicted = bank_.stat.predict(record.pc);
    if (predicted && *predicted == actual) {
        writer_.writeBit(true);
    } else {
        writer_.writeBit(false);
        writer_.writeBits(record.opcode, 6);
        writer_.writeBits(record.rd, 5);
        writer_.writeBits(record.rs1, 5);
        writer_.writeBits(record.rs2, 5);
        bank_.stat.update(record.pc, actual);
    }
    take(field_bits_.stat);

    auto cls = isa::classOf(static_cast<isa::Opcode>(record.opcode));
    if (hasMemPayload(cls)) {
        StridePredictor::Source src =
            bank_.mem_addr.predict(record.pc, record.addr);
        switch (src) {
          case StridePredictor::Source::kStride:
            writer_.writeBit(false);
            break;
          case StridePredictor::Source::kLast:
            writer_.writeBit(true);
            writer_.writeBit(false);
            break;
          case StridePredictor::Source::kMiss:
            writer_.writeBit(true);
            writer_.writeBit(true);
            writer_.writeVarint(zigzagDelta(
                record.addr, bank_.mem_addr.missBase(record.pc)));
            break;
        }
        bank_.mem_addr.update(record.pc, record.addr);
        take(field_bits_.addr);
    } else if (hasCtrlPayload(cls)) {
        bool taken = record.aux != 0;
        writer_.writeBit(taken);
        if (taken) {
            if (bank_.ctrl_target.predict(record.pc, record.addr)) {
                writer_.writeBit(true);
            } else {
                writer_.writeBit(false);
                writer_.writeVarint(
                    zigzagDelta(record.addr, record.pc));
            }
            bank_.ctrl_target.update(record.pc, record.addr);
        }
        take(field_bits_.ctrl);
    }
}

std::size_t
Encoder::pullableBytes() const
{
    // Bit-packed stream: the trailing partial byte can still change
    // until the stream is sealed, so only complete bytes are final.
    std::size_t final_bytes =
        finished_ ? writer_.bytes().size()
                  : static_cast<std::size_t>(bitsWritten() / 8);
    return final_bytes - pulled_;
}

std::size_t
Encoder::pull(std::uint8_t* out, std::size_t max)
{
    std::size_t n = pullableBytes();
    if (n > max) n = max;
    if (n == 0) return 0;
    std::memcpy(out, writer_.bytes().data() + pulled_, n);
    pulled_ += n;
    return n;
}

void
Decoder::push(const std::uint8_t* data, std::size_t n)
{
    LBA_ASSERT(!input_done_, "push after finishInput");
    buffer_.insert(buffer_.end(), data, data + n);
}

DecodeStatus
Decoder::next(EventRecord* out)
{
    if (!error_.ok()) return DecodeStatus::kError;
    DecodeStatus status = decodeRecord(out);
    if (status == DecodeStatus::kOk) {
        ++records_;
        return status;
    }
    if (status == DecodeStatus::kError) return status;
    // kNeedMore, rolled back to the record boundary.
    if (!input_done_) return DecodeStatus::kNeedMore;
    if (reader_.bitsAvailable() < 8) {
        // Only sub-byte padding remains: a clean end. (The bit-packed
        // grammar has no terminator, so up to 7 trailing bits are
        // indistinguishable from padding; callers that know the
        // record count stop before ever looking at them.)
        return DecodeStatus::kEnd;
    }
    error_ = DecodeError::make(DecodeErrorKind::kTruncated,
                               reader_.bitPos() / 8,
                               "input ends mid-record");
    return DecodeStatus::kError;
}

/**
 * Map one checked read's result onto the record decode: break on
 * success, roll back and ask for more input on underrun, fail typed
 * on a malformed encoding. Local to decodeRecord (undefined right after).
 */
#define LBA_TRY_READ(expr, what)                                            \
    switch (expr) {                                                         \
      case BitsResult::kOk:                                                 \
        break;                                                              \
      case BitsResult::kUnderrun:                                           \
        return needMore();                                                  \
      case BitsResult::kMalformed:                                          \
        return fail(what);                                                  \
    }

DecodeStatus
Decoder::decodeRecord(EventRecord* out)
{
    const std::uint64_t start = reader_.bitPos();
    auto needMore = [&] {
        reader_.seekBit(start);
        return DecodeStatus::kNeedMore;
    };
    auto fail = [&](const char* message) {
        error_ = DecodeError::make(DecodeErrorKind::kMalformed,
                                   reader_.bitPos() / 8, message);
        reader_.seekBit(start);
        return DecodeStatus::kError;
    };

    // Phase 1: read and validate every field against the *current*
    // predictor bank. No bank mutation happens here, so any exit —
    // kNeedMore or kError — leaves the decoder exactly as it was.
    EventRecord record;
    bool annotation = false;
    LBA_TRY_READ(reader_.tryReadBit(&annotation), "kind bit");

    bool tid_hit = false;
    LBA_TRY_READ(reader_.tryReadBit(&tid_hit), "tid flag");
    if (tid_hit) {
        if (!bank_.tid_seen) {
            return fail("tid hit before any tid literal");
        }
        record.tid = bank_.last_tid;
    } else {
        std::uint64_t tid = 0;
        LBA_TRY_READ(reader_.tryReadBits(16, &tid), "tid literal");
        record.tid = static_cast<ThreadId>(tid);
    }

    if (annotation) {
        std::uint64_t type_index = 0;
        LBA_TRY_READ(reader_.tryReadBits(3, &type_index),
                     "annotation type");
        record.type = static_cast<EventType>(
            static_cast<unsigned>(EventType::kAlloc) +
            static_cast<unsigned>(type_index));
        std::uint64_t addr_delta = 0;
        std::uint64_t aux_delta = 0;
        LBA_TRY_READ(reader_.tryReadVarint(&addr_delta),
                     "annotation addr varint");
        LBA_TRY_READ(reader_.tryReadVarint(&aux_delta),
                     "annotation aux varint");
        auto& last = bank_.annotation[type_index];
        record.addr = zigzagApply(last.addr, addr_delta);
        record.aux = zigzagApply(last.aux, aux_delta);

        // Phase 2 (annotation): commit.
        last.addr = record.addr;
        last.aux = record.aux;
        bank_.last_tid = record.tid;
        bank_.tid_seen = true;
        *out = record;
        return DecodeStatus::kOk;
    }

    // Program counter.
    bool pc_nonseq = false;
    LBA_TRY_READ(reader_.tryReadBit(&pc_nonseq), "pc flag");
    if (!pc_nonseq) {
        if (!bank_.pc.tryResolve(record.tid,
                                 PcPredictor::Source::kSequential,
                                 &record.pc)) {
            return fail("sequential pc hit without predictor state");
        }
    } else {
        bool pc_miss = false;
        LBA_TRY_READ(reader_.tryReadBit(&pc_miss), "pc flag");
        if (!pc_miss) {
            if (!bank_.pc.tryResolve(record.tid,
                                     PcPredictor::Source::kContext,
                                     &record.pc)) {
                return fail("context pc hit without predictor state");
            }
        } else {
            std::uint64_t delta = 0;
            LBA_TRY_READ(reader_.tryReadVarint(&delta),
                         "pc delta varint");
            record.pc =
                zigzagApply(bank_.pc.missBase(record.tid), delta);
        }
    }

    // Static instruction fields.
    bool stat_hit = false;
    LBA_TRY_READ(reader_.tryReadBit(&stat_hit), "static flag");
    bool stat_update = false;
    if (stat_hit) {
        const StaticInfo* info = bank_.stat.predict(record.pc);
        if (info == nullptr) return fail("static hit for unseen pc");
        record.opcode = info->opcode;
        record.rd = info->rd;
        record.rs1 = info->rs1;
        record.rs2 = info->rs2;
    } else {
        std::uint64_t opcode = 0, rd = 0, rs1 = 0, rs2 = 0;
        LBA_TRY_READ(reader_.tryReadBits(6, &opcode), "opcode literal");
        LBA_TRY_READ(reader_.tryReadBits(5, &rd), "rd literal");
        LBA_TRY_READ(reader_.tryReadBits(5, &rs1), "rs1 literal");
        LBA_TRY_READ(reader_.tryReadBits(5, &rs2), "rs2 literal");
        // The 6-bit field can carry values past the opcode table;
        // classOf() on one of those is library-abort territory, so an
        // untrusted stream must be stopped here.
        if (opcode >=
            static_cast<std::uint64_t>(isa::Opcode::kNumOpcodes)) {
            return fail("opcode literal out of range");
        }
        record.opcode = static_cast<std::uint8_t>(opcode);
        record.rd = static_cast<std::uint8_t>(rd);
        record.rs1 = static_cast<std::uint8_t>(rs1);
        record.rs2 = static_cast<std::uint8_t>(rs2);
        stat_update = true;
    }

    auto op = static_cast<isa::Opcode>(record.opcode);
    auto cls = isa::classOf(op);
    record.type = log::eventTypeOf(cls);

    bool mem_update = false;
    bool ctrl_update = false;
    if (hasMemPayload(cls)) {
        bool addr_nonstride = false;
        LBA_TRY_READ(reader_.tryReadBit(&addr_nonstride), "addr flag");
        if (!addr_nonstride) {
            if (!bank_.mem_addr.tryResolve(
                    record.pc, StridePredictor::Source::kStride,
                    &record.addr)) {
                return fail("stride hit without predictor state");
            }
        } else {
            bool addr_miss = false;
            LBA_TRY_READ(reader_.tryReadBit(&addr_miss), "addr flag");
            if (!addr_miss) {
                if (!bank_.mem_addr.tryResolve(
                        record.pc, StridePredictor::Source::kLast,
                        &record.addr)) {
                    return fail("last-addr hit without predictor state");
                }
            } else {
                std::uint64_t delta = 0;
                LBA_TRY_READ(reader_.tryReadVarint(&delta),
                             "addr delta varint");
                record.addr = zigzagApply(
                    bank_.mem_addr.missBase(record.pc), delta);
            }
        }
        mem_update = true;
        record.aux = isa::memAccessBytes(op);
    } else if (hasCtrlPayload(cls)) {
        bool taken = false;
        LBA_TRY_READ(reader_.tryReadBit(&taken), "taken flag");
        if (taken) {
            record.aux = 1;
            bool target_hit = false;
            LBA_TRY_READ(reader_.tryReadBit(&target_hit),
                         "target flag");
            if (target_hit) {
                // resolve() is total here (unseen pc yields 0), which
                // matches what a conforming encoder would have stored.
                record.addr = bank_.ctrl_target.resolve(record.pc);
            } else {
                std::uint64_t delta = 0;
                LBA_TRY_READ(reader_.tryReadVarint(&delta),
                             "target delta varint");
                record.addr = zigzagApply(record.pc, delta);
            }
            ctrl_update = true;
        }
    }

    // Phase 2: every read succeeded — commit the bank updates in one
    // block. Mirrors Encoder::append() verbatim (the predictor
    // sync invariant), just batched at the end.
    bank_.last_tid = record.tid;
    bank_.tid_seen = true;
    bank_.pc.update(record.tid, record.pc);
    if (stat_update) {
        bank_.stat.update(record.pc,
                          StaticInfo{record.opcode, record.rd,
                                     record.rs1, record.rs2});
    }
    if (mem_update) bank_.mem_addr.update(record.pc, record.addr);
    if (ctrl_update) bank_.ctrl_target.update(record.pc, record.addr);
    *out = record;
    return DecodeStatus::kOk;
}

#undef LBA_TRY_READ

const char*
decodeErrorKindName(DecodeErrorKind kind)
{
    switch (kind) {
      case DecodeErrorKind::kNone:
        return "ok";
      case DecodeErrorKind::kTruncated:
        return "truncated";
      case DecodeErrorKind::kMalformed:
        return "malformed";
      case DecodeErrorKind::kLimitExceeded:
        return "limit-exceeded";
      case DecodeErrorKind::kUnsupported:
        return "unsupported";
      case DecodeErrorKind::kIo:
        return "io";
    }
    return "unknown";
}

std::string
DecodeError::toString() const
{
    if (ok()) return "ok";
    return std::string(decodeErrorKindName(kind)) + " @" +
           std::to_string(offset) + ": " + message;
}

} // namespace lba::compress
