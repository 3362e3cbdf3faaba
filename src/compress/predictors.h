#pragma once
/**
 * @file
 * Value predictors shared by the log compressor and decompressor.
 *
 * Following Burtscher's VPC approach [1], each record field has its own
 * small predictor bank; a field that predicts correctly costs one or two
 * flag bits instead of a literal. Compressor and decompressor run
 * identical predictor state machines so no side information is needed.
 *
 * Predictor inventory:
 *  - PcPredictor:      per-thread sequential (pc+8) and finite-context
 *                      (last pc -> next pc) predictors.
 *  - StaticPredictor:  pc -> (opcode, rd, rs1, rs2); instruction words are
 *                      static, so this hits on every revisited pc.
 *  - StridePredictor:  pc-indexed last-address + stride for load/store
 *                      effective addresses.
 *  - TargetPredictor:  pc-indexed last taken-target for control transfers.
 *  - LastValue:        per-annotation-type last address/size values.
 *
 * Every bank is a FlatMap (common/flat_map.h): one inline probe per
 * lookup, and each method looks each table up at most once. The tables
 * are never iterated, so encoder and decoder stay in lockstep whatever
 * the slot order.
 */

#include <cstdint>

#include "common/assert.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "isa/isa.h"

namespace lba::compress {

/** Sequential + finite-context-method program-counter predictor. */
class PcPredictor
{
  public:
    /** Prediction sources, in the order they are tried. */
    enum class Source : std::uint8_t { kSequential, kContext, kMiss };

    /** Predict the pc of the next record for @p tid. */
    Source
    predict(ThreadId tid, Addr actual) const
    {
        const Last* last = last_pc_.find(tid);
        if (last == nullptr) {
            return Source::kMiss;
        }
        if (last->pc + isa::kInstrBytes == actual) {
            return Source::kSequential;
        }
        const Addr* next = context_.find(last->pc);
        if (next != nullptr && *next == actual) {
            return Source::kContext;
        }
        return Source::kMiss;
    }

    /** Resolve a prediction on the decompressor side. */
    Addr
    resolve(ThreadId tid, Source source) const
    {
        Addr out = 0;
        LBA_ASSERT(tryResolve(tid, source, &out),
                   "pc hit without predictor state");
        return out;
    }

    /**
     * Checked resolve for untrusted streams: false when the stream
     * claims a hit the predictor bank cannot back (no last pc for the
     * thread, or a context hit with no stored successor) — which a
     * well-formed stream never does, so false means malformed input.
     */
    bool
    tryResolve(ThreadId tid, Source source, Addr* out) const
    {
        const Last* last = last_pc_.find(tid);
        if (last == nullptr) return false;
        if (source == Source::kSequential) {
            *out = last->pc + isa::kInstrBytes;
            return true;
        }
        // kContext
        const Addr* next = context_.find(last->pc);
        if (next == nullptr) return false;
        *out = *next;
        return true;
    }

    /** Delta base for encoding a miss (0 when @p tid is unseen). */
    Addr
    missBase(ThreadId tid) const
    {
        const Last* last = last_pc_.find(tid);
        return last == nullptr ? 0 : last->pc + isa::kInstrBytes;
    }

    /** Record the actual pc (both sides call this after every record). */
    void
    update(ThreadId tid, Addr actual)
    {
        Last& last = last_pc_[tid];
        if (last.seen && last.pc + isa::kInstrBytes != actual) {
            context_[last.pc] = actual;
        }
        last.pc = actual;
        last.seen = true;
    }

  private:
    /** Only update() inserts, and it sets seen, so every entry find()
     *  returns is seen; the flag marks the entry update() just made. */
    struct Last
    {
        Addr pc = 0;
        bool seen = false;
    };

    FlatMap<ThreadId, Last> last_pc_;
    FlatMap<Addr, Addr> context_;
};

/** Static per-pc instruction fields. */
struct StaticInfo
{
    std::uint8_t opcode = 0;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;

    bool operator==(const StaticInfo&) const = default;
};

/** pc -> static instruction fields (hits after the first visit). */
class StaticPredictor
{
  public:
    /** @return Pointer to the prediction for @p pc, or nullptr. */
    const StaticInfo*
    predict(Addr pc) const
    {
        return table_.find(pc);
    }

    void update(Addr pc, const StaticInfo& info) { table_[pc] = info; }

  private:
    FlatMap<Addr, StaticInfo> table_;
};

/** pc-indexed last-address + stride predictor for effective addresses. */
class StridePredictor
{
  public:
    enum class Source : std::uint8_t { kStride, kLast, kMiss };

    Source
    predict(Addr pc, Addr actual) const
    {
        const Entry* e = table_.find(pc);
        if (e == nullptr) return Source::kMiss;
        if (static_cast<Addr>(e->last + e->stride) == actual) {
            return Source::kStride;
        }
        if (e->last == actual) return Source::kLast;
        return Source::kMiss;
    }

    /** Prediction value for hit kinds; also the delta base for misses. */
    Addr
    resolve(Addr pc, Source source) const
    {
        Addr out = 0;
        LBA_ASSERT(tryResolve(pc, source, &out),
                   "stride hit without predictor state");
        return out;
    }

    /** Checked resolve: false when @p pc has no entry (see
     *  PcPredictor::tryResolve — false means malformed input). */
    bool
    tryResolve(Addr pc, Source source, Addr* out) const
    {
        const Entry* e = table_.find(pc);
        if (e == nullptr) return false;
        *out = source == Source::kStride
                   ? static_cast<Addr>(e->last + e->stride)
                   : e->last;
        return true;
    }

    /** Base for delta-encoding a miss (0 when pc is unseen). */
    Addr
    missBase(Addr pc) const
    {
        const Entry* e = table_.find(pc);
        return e == nullptr ? 0 : e->last;
    }

    void
    update(Addr pc, Addr actual)
    {
        Entry& e = table_[pc];
        if (e.seen) {
            // Wrap-around subtraction: signed subtraction of arbitrary
            // 64-bit addresses overflows; the predictor only ever adds
            // the stride back mod 2^64, so wrapping is exact.
            e.stride = static_cast<std::int64_t>(actual - e.last);
        }
        e.last = actual;
        e.seen = true;
    }

  private:
    struct Entry
    {
        Addr last = 0;
        std::int64_t stride = 0;
        bool seen = false;
    };

    FlatMap<Addr, Entry> table_;
};

/** pc-indexed last taken-target predictor for control transfers. */
class TargetPredictor
{
  public:
    /** @return True when the stored target for @p pc equals @p actual. */
    bool
    predict(Addr pc, Addr actual) const
    {
        const Addr* target = table_.find(pc);
        return target != nullptr && *target == actual;
    }

    /** Stored target for @p pc (0 when unseen). */
    Addr
    resolve(Addr pc) const
    {
        const Addr* target = table_.find(pc);
        return target == nullptr ? 0 : *target;
    }

    void update(Addr pc, Addr actual) { table_[pc] = actual; }

  private:
    FlatMap<Addr, Addr> table_;
};

} // namespace lba::compress
