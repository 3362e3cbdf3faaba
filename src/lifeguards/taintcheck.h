#pragma once
/**
 * @file
 * TaintCheck lifeguard (paper Section 3, after Newsome & Song): tracks the
 * propagation of untrusted inputs through *all* instructions — the data
 * flow the paper says distinguishes LBA from address-triggered schemes
 * like iWatcher — and reports when tainted data reaches a jump target.
 *
 * Metadata: one taint bit per application byte (a byte-mask per 8-byte
 * granule) plus a per-thread register-taint bitmask. kInput annotations
 * (SYS_READ) are the taint source; ALU/move/load/store handlers propagate;
 * indirect jumps/calls and returns check.
 */

#include <unordered_set>

#include "common/flat_map.h"
#include "lifeguard/ir.h"
#include "lifeguard/lifeguard.h"
#include "lifeguard/shadow_memory.h"

namespace lba::lifeguards {

/** TaintCheck configuration. */
struct TaintCheckConfig
{
    /** Simulated base of the taint shadow table. */
    Addr shadow_base = lifeguard::kShadowBase + 0x800000000ull;
    /** Suppress duplicate tainted-jump reports per pc. */
    bool dedupe_reports = true;
};

/** See file comment. */
class TaintCheck : public lifeguard::Lifeguard
{
  public:
    explicit TaintCheck(const TaintCheckConfig& config = {});

    const char* name() const override { return "TaintCheck"; }

    /** Fused-tier opt-in: the IR mirror of the handler table. */
    const lifeguard::ir::LifeguardIR*
    handlerIR() const override
    {
        return &ir_;
    }

    /** True when register @p reg of thread @p tid is tainted (tests). */
    bool regTainted(ThreadId tid, RegIndex reg) const;

    /** True when any byte of [addr, addr+bytes) is tainted (tests). */
    bool memTainted(Addr addr, unsigned bytes) const;

  private:
    // Handler bodies, templated over the cost accumulator: every
    // TaintCheck handler touches register- or memory-taint state, so
    // the IR description is one kKernel per event type, sharing these
    // bodies with the table path (the constructor registers table
    // entry and IR kernel from the same lambda - the tiers cannot
    // diverge).
    template <typename Cost>
    void onLoadImm(const log::EventRecord& record, Cost& cost);
    template <typename Cost>
    void onMove(const log::EventRecord& record, Cost& cost);
    template <typename Cost>
    void onAlu(const log::EventRecord& record, Cost& cost);
    template <typename Cost>
    void onLoad(const log::EventRecord& record, Cost& cost);
    template <typename Cost>
    void onStore(const log::EventRecord& record, Cost& cost);
    template <typename Cost>
    void onIndirectTransfer(const log::EventRecord& record, Cost& cost);
    template <typename Cost>
    void onReturn(const log::EventRecord& record, Cost& cost);
    template <typename Cost>
    void onInput(const log::EventRecord& record, Cost& cost);
    template <typename Cost>
    void onAlloc(const log::EventRecord& record, Cost& cost);

    /** Tainted-jump check shared by the control-transfer handlers. */
    template <typename Cost>
    void checkJump(const log::EventRecord& record, RegIndex source_reg,
                   Cost& cost);

    /** Taint mask covering [addr, addr+bytes) (read path). */
    template <typename Cost>
    bool readMemTaint(Addr addr, unsigned bytes, Cost& cost);

    /** Set/clear taint over [addr, addr+bytes) (write path). */
    template <typename Cost>
    void writeMemTaint(Addr addr, unsigned bytes, bool tainted,
                       Cost& cost);

    /** Register-taint bit accessors (host-side state, no cost). */
    bool regBit(ThreadId tid, RegIndex reg) const;
    void setRegBit(ThreadId tid, RegIndex reg, bool tainted);

    TaintCheckConfig config_;
    /** Handler-IR description (built in the constructor). */
    lifeguard::ir::LifeguardIR ir_;
    /** Bit i of entry(g) set => byte g*8+i is tainted. */
    lifeguard::ShadowMemory<std::uint8_t, 8> taint_;
    /** Per-thread register taint bitmask (bit per register). A
     *  reference into it is invalidated by the next insertion. */
    FlatMap<ThreadId, std::uint32_t> reg_taint_;
    /** pcs already reported (dedupe). */
    std::unordered_set<Addr> reported_;
};

} // namespace lba::lifeguards
