#pragma once
/**
 * @file
 * The lifeguard batch compiler (fused dispatch, tier three).
 *
 * compileHandlers() lowers a lifeguard's IR description (ir.h) into a
 * per-event-type CompiledDispatch table the fused drain loops execute
 * directly. Lowering classifies every program:
 *
 *   kSkip     no handler registered — dispatch cost only;
 *   kConst    pure-kCharge program — the handler cost is a compile-time
 *             constant and touches neither lifeguard state nor the
 *             cache hierarchy, so whole same-type runs (or, when every
 *             type is kSkip/kConst, whole batches) are drained with no
 *             per-record call at all;
 *   kProgram  anything else — run through runIrProgram(), the
 *             computed-goto interpreter below, still free of virtual
 *             calls and per-record table lookups.
 *
 * Compilation happens once, at dispatch-engine construction, on the
 * coordinating thread — the annotation makes that a compile-time rule
 * (tests/static_analysis/violation_worker_calls_compiler.cc proves the
 * gate rejects a worker calling it), and tools/lba_lint.py keeps the
 * annotation itself from being dropped. The drain loops that *execute*
 * compiled programs carry the same capability requirements as the
 * batched tier they replace (see DispatchEngine::consumeBatchFused and
 * consumeBatchFusedDeferred in dispatch.h).
 */

#include <array>
#include <cstdint>

#include "common/thread_annotations.h"
#include "lifeguard/ir.h"
#include "lifeguard/lifeguard.h"
#include "log/event.h"

namespace lba::lifeguard {

/** One event type's lowered handler (see file comment). */
struct CompiledHandler
{
    enum class Kind : std::uint8_t
    {
        kSkip = 0,
        kConst = 1,
        kProgram = 2,
    };

    Kind kind = Kind::kSkip;
    /** kConst: handler instruction cycles per record (0 for kSkip). */
    std::uint32_t const_cycles = 0;
    /** kProgram: the program to interpret (owned by the lifeguard's
     *  LifeguardIR, which outlives the engine). */
    const ir::IrProgram* program = nullptr;
};

/** A lifeguard's fully lowered handler set. */
struct CompiledDispatch
{
    std::array<CompiledHandler, log::kNumEventTypes> handlers{};
    /** No kProgram entry anywhere: every record's cost is a table
     *  lookup, enabling the whole-batch bulk drain. */
    bool all_const = true;
};

/**
 * Lower @p ir against @p lifeguard's sealed handler table. Asserts
 * that the description and the table cover exactly the same event
 * types — a described-but-unregistered (or registered-but-undescribed)
 * type would make the fused tier diverge from the handler table,
 * which is the one invariant this subsystem must never break.
 *
 * Coordinator-only: runs at engine construction, before any record
 * flows and before any worker thread exists.
 */
CompiledDispatch compileHandlers(const Lifeguard& lifeguard,
                                 const ir::LifeguardIR& ir)
    LBA_COORDINATOR_ONLY;

/**
 * Interpret @p program for one record. Specialized per cost flavour at
 * compile time (the kernel instantiation is selected statically by
 * ir::invokeKernel), with a computed-goto dispatch loop under GCC and
 * clang and a plain switch elsewhere. Charges identical cost to the
 * handler body the program was lowered from.
 */
template <typename Cost>
inline void
runIrProgram(const ir::IrProgram& program, Lifeguard& lifeguard,
             const log::EventRecord& record, Cost& cost)
{
    const ir::IrInst* inst = program.insts.data();
    const ir::IrInst* const end = inst + program.insts.size();
#if defined(__GNUC__) || defined(__clang__)
    // Threaded dispatch: one indirect goto per IR instruction, no
    // bounds re-check, no per-iteration switch.
    static const void* const kOps[] = {&&op_charge, &&op_range_exit,
                                       &&op_kernel};
#define LBA_IR_NEXT()                                                    \
    do {                                                                 \
        if (inst == end) return;                                         \
        goto* kOps[static_cast<std::size_t>(inst->op)];                  \
    } while (0)
    LBA_IR_NEXT();
op_charge:
    cost.instrs(inst->cycles);
    ++inst;
    LBA_IR_NEXT();
op_range_exit:
    if (record.addr < inst->base ||
        record.addr >= inst->base + inst->bytes) {
        cost.instrs(inst->cycles);
        return;
    }
    ++inst;
    LBA_IR_NEXT();
op_kernel:
    ir::invokeKernel(*inst, lifeguard, record, cost);
    ++inst;
    LBA_IR_NEXT();
#undef LBA_IR_NEXT
#else
    for (; inst != end; ++inst) {
        switch (inst->op) {
        case ir::IrOp::kCharge:
            cost.instrs(inst->cycles);
            break;
        case ir::IrOp::kRangeExit:
            if (record.addr < inst->base ||
                record.addr >= inst->base + inst->bytes) {
                cost.instrs(inst->cycles);
                return;
            }
            break;
        case ir::IrOp::kKernel:
            ir::invokeKernel(*inst, lifeguard, record, cost);
            break;
        }
    }
#endif
}

} // namespace lba::lifeguard
