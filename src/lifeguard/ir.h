#pragma once
/**
 * @file
 * The lifeguard handler IR (fused dispatch, tier three).
 *
 * The paper's `nlba` instruction makes dispatch effectively free in
 * hardware; the host simulation still paid an indirect call per record
 * even on the batched path. The fused tier closes that gap: each
 * lifeguard *describes* its registered handlers as a tiny per-event-type
 * program over this IR, and lifeguard::compileHandlers() lowers those
 * descriptions into specialized drain loops (see compiler.h). The
 * vocabulary is deliberately small — it matches what the three paper
 * lifeguards actually do per record:
 *
 *   kCharge     charge N handler instructions (pure cycle cost);
 *   kRangeExit  compare the record address against a fixed range and
 *               end the handler (charging an exit cost) when it falls
 *               outside — the "is this a heap/checked address?" guard
 *               that begins AddrCheck and LockSet;
 *   kKernel     run a fused kernel: a non-virtual, statically-typed
 *               function holding the handler's shadow loads/stores,
 *               propagation and compare/report logic, with the
 *               shadow-memory access inlined (ShadowMemory's last-page
 *               memo becomes an inline cache — no virtual CostSink call
 *               between the handler and the cost accumulator).
 *
 * A program that is pure kCharge compiles to a constant — whole
 * same-type runs of such records are drained with no per-record call at
 * all (the bulk fast path bench/micro_dispatch.cc gates at >= 2x over
 * batched dispatch).
 *
 * Cost identity is by construction: lifeguards write each handler body
 * ONCE as a template over the cost accumulator and instantiate it for
 * the virtual CostSink path (the batched tier), for
 * DirectCost (fused serial tier) and for DeferredCost (fused threaded
 * tier). DispatchEngine's own CostSinks are adapters over these same
 * two accumulators (CostSinkOf, dispatch.h), so every tier charges
 * identical simulated cycles for identical record streams — the
 * invariant tests/dispatch_fused_test.cpp proves differentially.
 *
 * docs/LIFEGUARD_GUIDE.md ("Describing handlers as IR") is the
 * authoring walkthrough; docs/ARCHITECTURE.md covers the three dispatch
 * tiers.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "log/event.h"
#include "mem/hierarchy.h"

namespace lba::lifeguard {

class Lifeguard;

namespace ir {

/** One lifeguard-metadata access (address + direction). */
struct MemOp
{
    Addr addr = 0;
    bool is_write = false;
};

/**
 * Fused cost accumulator, serial flavour: charges the shared cache
 * hierarchy directly — each metadata access costs its own cycle plus
 * the hierarchy penalty — with no virtual dispatch between the handler
 * body and the accumulator. DispatchEngine's serial CostSink wraps it.
 */
class DirectCost
{
  public:
    DirectCost(mem::CacheHierarchy& hierarchy, unsigned core)
        : hierarchy_(hierarchy), core_(core)
    {
    }

    void instrs(std::uint32_t count) { cycles_ += count; }

    void
    memAccess(Addr addr, bool is_write)
    {
        cycles_ += 1 + hierarchy_.dataAccess(core_, addr, is_write);
    }

    /** Cycles accumulated since the last take (handler cost). */
    Cycles
    take()
    {
        Cycles c = cycles_;
        cycles_ = 0;
        return c;
    }

  private:
    mem::CacheHierarchy& hierarchy_;
    unsigned core_;
    Cycles cycles_ = 0;
};

/**
 * Fused cost accumulator, deferred flavour (threaded execution):
 * captures instruction cycles and ordered metadata accesses for the
 * coordinator to replay through the shared hierarchy later. The
 * batched tier's deferred CostSink wraps it, so
 * DispatchEngine::replayDeferred charges identical cycles either way.
 */
class DeferredCost
{
  public:
    explicit DeferredCost(std::vector<MemOp>& ops) : ops_(ops) {}

    void instrs(std::uint32_t count) { instr_cycles_ += count; }

    void
    memAccess(Addr addr, bool is_write)
    {
        ops_.push_back({addr, is_write});
        ++num_ops_;
    }

    /** Instruction cycles since the last take. */
    std::uint32_t
    takeInstrs()
    {
        std::uint32_t c = instr_cycles_;
        instr_cycles_ = 0;
        return c;
    }

    /** Metadata accesses pushed since the last take. */
    std::uint32_t
    takeOps()
    {
        std::uint32_t n = num_ops_;
        num_ops_ = 0;
        return n;
    }

  private:
    std::vector<MemOp>& ops_;
    std::uint32_t instr_cycles_ = 0;
    std::uint32_t num_ops_ = 0;
};

/** Fused kernel entry points: one instantiation per cost flavour of a
 *  handler body written once as a template over the accumulator. */
using DirectKernel = void (*)(Lifeguard&, const log::EventRecord&,
                              DirectCost&);
using DeferredKernel = void (*)(Lifeguard&, const log::EventRecord&,
                                DeferredCost&);

/** IR opcodes (see the file comment). */
enum class IrOp : std::uint8_t
{
    kCharge = 0,
    kRangeExit = 1,
    kKernel = 2,
};

/** One IR instruction (a tagged union kept flat and trivially
 *  copyable; unused fields are zero). */
struct IrInst
{
    IrOp op = IrOp::kCharge;
    /** kCharge: cycles charged. kRangeExit: cycles charged on exit. */
    std::uint32_t cycles = 0;
    /** kRangeExit: checked range [base, base + bytes). */
    Addr base = 0;
    std::uint64_t bytes = 0;
    /** kKernel: the two instantiations of the handler body. */
    DirectKernel direct = nullptr;
    DeferredKernel deferred = nullptr;
};

/** The IR program for one event type: instructions run in order until
 *  the end or a kRangeExit takes its exit. */
struct IrProgram
{
    std::vector<IrInst> insts;
};

/** Select the kernel instantiation matching the cost accumulator. */
inline void
invokeKernel(const IrInst& inst, Lifeguard& lifeguard,
             const log::EventRecord& record, DirectCost& cost)
{
    inst.direct(lifeguard, record, cost);
}

inline void
invokeKernel(const IrInst& inst, Lifeguard& lifeguard,
             const log::EventRecord& record, DeferredCost& cost)
{
    inst.deferred(lifeguard, record, cost);
}

/**
 * Fluent builder for one event type's program (LifeguardIR::define):
 *
 * @code
 *   ir_.define(EventType::kLoad)
 *       .charge(2)
 *       .rangeExit(heap_base, heap_bytes, 1)
 *       .kernel([](Lifeguard& self, const log::EventRecord& r,
 *                  auto& cost) {
 *           static_cast<MyGuard&>(self).heapAccess(r, cost);
 *       });
 * @endcode
 */
class IrBuilder
{
  public:
    explicit IrBuilder(IrProgram& program) : program_(program) {}

    /** Append kCharge(@p cycles). */
    IrBuilder&
    charge(std::uint32_t cycles)
    {
        IrInst inst;
        inst.op = IrOp::kCharge;
        inst.cycles = cycles;
        program_.insts.push_back(inst);
        return *this;
    }

    /** Append kRangeExit: when record.addr falls outside
     *  [@p base, @p base + @p bytes), charge @p exit_cycles and end the
     *  handler. */
    IrBuilder&
    rangeExit(Addr base, std::uint64_t bytes, std::uint32_t exit_cycles)
    {
        IrInst inst;
        inst.op = IrOp::kRangeExit;
        inst.base = base;
        inst.bytes = bytes;
        inst.cycles = exit_cycles;
        program_.insts.push_back(inst);
        return *this;
    }

    /**
     * Append kKernel(@p fn). @p fn must be a captureless callable
     * (typically a generic lambda) invocable as
     * `fn(Lifeguard&, const log::EventRecord&, Cost&)` for both cost
     * flavours; it is lowered to its two function-pointer
     * instantiations here — which is what guarantees the serial and
     * deferred fused paths run the same body.
     */
    template <typename Fn>
    IrBuilder&
    kernel(Fn fn)
    {
        IrInst inst;
        inst.op = IrOp::kKernel;
        inst.direct = static_cast<DirectKernel>(fn);
        inst.deferred = static_cast<DeferredKernel>(fn);
        program_.insts.push_back(inst);
        return *this;
    }

  private:
    IrProgram& program_;
};

/**
 * A lifeguard's complete IR: one program per described event type.
 * Build in the constructor (alongside the handler registrations the
 * programs must mirror) and expose via Lifeguard::handlerIR();
 * compileHandlers() cross-checks the descriptions against the
 * registered table.
 */
class LifeguardIR
{
  public:
    /** Start (or extend) the program for @p type. */
    IrBuilder
    define(log::EventType type)
    {
        auto t = static_cast<std::size_t>(type);
        described_[t] = true;
        return IrBuilder(programs_[t]);
    }

    /** The program for @p type, or nullptr when not described. */
    const IrProgram*
    program(log::EventType type) const
    {
        auto t = static_cast<std::size_t>(type);
        return described_[t] ? &programs_[t] : nullptr;
    }

  private:
    std::array<IrProgram, log::kNumEventTypes> programs_;
    std::array<bool, log::kNumEventTypes> described_{};
};

} // namespace ir
} // namespace lba::lifeguard
