/**
 * @file
 * Dispatch engine implementation.
 */

#include "lifeguard/dispatch.h"

namespace lba::lifeguard {

DispatchEngine::DispatchEngine(Lifeguard& lifeguard,
                               mem::CacheHierarchy& hierarchy,
                               const DispatchConfig& config)
    : lifeguard_(lifeguard), config_(config), sink_(hierarchy, config.core)
{
    // Engines are built on the thread that drives the run — the
    // coordinator by construction, before any worker exists (the same
    // claim PipelineTimer's constructor makes). Assuming the role here
    // lets construction-time work carry coordinator-only annotations.
    threading::assumeCoordinatorRole();
    // The compiled IR below mirrors the table as it is now; late
    // registration would make the fused tier diverge from the others.
    lifeguard.sealHandlerTable();
    // Fused tier: lower the lifeguard's IR description, when it has
    // one, into the specialized drain table (coordinator-only step).
    if (const ir::LifeguardIR* ir = lifeguard.handlerIR()) {
        compiled_ = compileHandlers(lifeguard, *ir);
        fused_ = true;
    }
}

Cycles
DispatchEngine::consume(const log::EventRecord& record)
{
    Lifeguard::Handler handler =
        lifeguard_.handlers()[static_cast<std::size_t>(record.type)];
    if (!handler) {
        // Unregistered type: dispatch cost only, no handler call,
        // nothing in the sink — the hardware's "handler is just nlba"
        // case.
        return account(record, config_.dispatch_cycles);
    }
    handler(lifeguard_, record, sink_);
    return account(record, config_.dispatch_cycles + sink_.take());
}

Cycles
DispatchEngine::consumeBatch(const log::EventRecord* records,
                             std::size_t count, Cycles* costs)
{
    ++functional_.batches;
    Cycles total = 0;
    for (std::size_t i = 0; i < count; ++i) {
        Cycles cycles = consume(records[i]);
        if (costs) costs[i] = cycles;
        total += cycles;
    }
    return total;
}

Cycles
DispatchEngine::fusedDrain(const log::EventRecord* records,
                           std::size_t count, Cycles* costs)
{
    Cycles total = 0;
    if (compiled_.all_const) {
        // Every type is kSkip/kConst: the whole batch drains through
        // one tight loop — per record, the cost is a table lookup and
        // the stat updates, with no call of any kind. This is the bulk
        // fast path the micro_dispatch >= 2x claim measures.
        for (std::size_t i = 0; i < count; ++i) {
            const auto t = static_cast<std::size_t>(records[i].type);
            const Cycles cycles = config_.dispatch_cycles +
                                  compiled_.handlers[t].const_cycles;
            if (costs) costs[i] = cycles;
            ++functional_.records_by_type[t];
            timing_.cycles_by_type[t] += cycles;
            total += cycles;
        }
        functional_.records += count;
        timing_.total_cycles += total;
        return total;
    }
    std::size_t i = 0;
    while (i < count) {
        // Maximal same-event-type run [i, j).
        const log::EventType type = records[i].type;
        std::size_t j = i + 1;
        while (j < count && records[j].type == type) ++j;
        const auto t = static_cast<std::size_t>(type);
        const CompiledHandler& handler = compiled_.handlers[t];
        if (handler.kind != CompiledHandler::Kind::kProgram) {
            // kSkip/kConst run: constant per-record cost, charged in
            // bulk — arithmetic identical to j-i account() calls.
            const std::size_t n = j - i;
            const Cycles per =
                config_.dispatch_cycles + handler.const_cycles;
            if (costs) {
                for (std::size_t k = i; k < j; ++k) costs[k] = per;
            }
            const Cycles run = per * static_cast<Cycles>(n);
            functional_.records += n;
            functional_.records_by_type[t] += n;
            timing_.total_cycles += run;
            timing_.cycles_by_type[t] += run;
            total += run;
        } else {
            ir::DirectCost& cost = sink_;
            for (std::size_t k = i; k < j; ++k) {
                const log::EventRecord& record = records[k];
                runIrProgram(*handler.program, lifeguard_, record, cost);
                const Cycles cycles =
                    config_.dispatch_cycles + cost.take();
                if (costs) costs[k] = cycles;
                account(record, cycles);
                total += cycles;
            }
        }
        i = j;
    }
    return total;
}

Cycles
DispatchEngine::consumeBatchFused(const log::EventRecord* records,
                                  std::size_t count, Cycles* costs)
{
    // No IR description: the batched tier IS the fused tier's
    // behaviour (and its cost), so fall through to it.
    if (!fused_) return consumeBatch(records, count, costs);
    ++functional_.batches;
    return fusedDrain(records, count, costs);
}

void
DispatchEngine::consumeBatchDeferred(const log::EventRecord* records,
                                     std::size_t count,
                                     DeferredBatch& out)
{
    ++functional_.batches;
    out.clear();
    out.records.reserve(count);
    CostSinkOf<ir::DeferredCost> sink(out.ops);
    const auto& table = lifeguard_.handlers();
    for (std::size_t i = 0; i < count; ++i) {
        const log::EventRecord& record = records[i];
        DeferredBatch::PerRecord per;
        per.first_op = static_cast<std::uint32_t>(out.ops.size());
        if (Lifeguard::Handler handler =
                table[static_cast<std::size_t>(record.type)]) {
            handler(lifeguard_, record, sink);
            per.instr_cycles = sink.takeInstrs();
            per.num_ops = sink.takeOps();
        }
        out.records.push_back(per);
        // Functional half of account(): the record counters. The cycle
        // counters are folded in by replayDeferred() on the
        // coordinating thread, once the costs exist — splitting the
        // two halves across the flush barrier is what keeps the stats
        // struct race-free under threaded execution.
        ++functional_.records;
        ++functional_
              .records_by_type[static_cast<std::size_t>(record.type)];
    }
}

void
DispatchEngine::consumeBatchFusedDeferred(
    const log::EventRecord* records, std::size_t count,
    DeferredBatch& out)
{
    if (!fused_) {
        consumeBatchDeferred(records, count, out);
        return;
    }
    ++functional_.batches;
    out.clear();
    out.records.reserve(count);
    ir::DeferredCost cost(out.ops);
    std::size_t i = 0;
    while (i < count) {
        const log::EventType type = records[i].type;
        std::size_t j = i + 1;
        while (j < count && records[j].type == type) ++j;
        const auto t = static_cast<std::size_t>(type);
        const CompiledHandler& handler = compiled_.handlers[t];
        const std::size_t n = j - i;
        if (handler.kind != CompiledHandler::Kind::kProgram) {
            // kSkip/kConst run: no metadata accesses, constant
            // instruction cost (0 for kSkip) — replayDeferred() adds
            // the dispatch cycles, exactly as for the batched tier.
            DeferredBatch::PerRecord per;
            per.instr_cycles = handler.const_cycles;
            per.first_op = static_cast<std::uint32_t>(out.ops.size());
            for (std::size_t k = 0; k < n; ++k) {
                out.records.push_back(per);
            }
        } else {
            for (std::size_t k = i; k < j; ++k) {
                DeferredBatch::PerRecord per;
                per.first_op =
                    static_cast<std::uint32_t>(out.ops.size());
                runIrProgram(*handler.program, lifeguard_, records[k],
                             cost);
                per.instr_cycles = cost.takeInstrs();
                per.num_ops = cost.takeOps();
                out.records.push_back(per);
            }
        }
        // Functional half of account(), in bulk (see
        // consumeBatchDeferred for why only this half advances here).
        functional_.records += n;
        functional_.records_by_type[t] += n;
        i = j;
    }
}

Cycles
DispatchEngine::replayDeferred(const log::EventRecord& record,
                               const DeferredBatch& batch, std::size_t i)
{
    const DeferredBatch::PerRecord& per = batch.records[i];
    // Each captured metadata access is charged through the same cost
    // rule consume() uses, in execution order, so the shared-L2 state
    // evolves exactly as on the serial path.
    ir::DirectCost& cost = sink_;
    for (std::uint32_t op = 0; op < per.num_ops; ++op) {
        const DeferredBatch::MemOp& mem = batch.ops[per.first_op + op];
        cost.memAccess(mem.addr, mem.is_write);
    }
    Cycles cycles =
        config_.dispatch_cycles + per.instr_cycles + cost.take();
    timing_.total_cycles += cycles;
    timing_.cycles_by_type[static_cast<std::size_t>(record.type)] +=
        cycles;
    return cycles;
}

Cycles
DispatchEngine::finish()
{
    lifeguard_.finish(sink_);
    Cycles cycles = sink_.take();
    timing_.total_cycles += cycles;
    return cycles;
}

} // namespace lba::lifeguard
