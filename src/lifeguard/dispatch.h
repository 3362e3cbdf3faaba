#pragma once
/**
 * @file
 * The lifeguard-core dispatch engine (paper Section 2).
 *
 * Models the `nlba` (next LBA record) instruction: each handler ends by
 * issuing nlba, which pops the next record from the decompression engine,
 * places key event values (memory address etc.) directly into the register
 * file, and jumps through a per-event-type handler table. Because the jump
 * table index is known as soon as the record is visible, the lookup
 * pipelines with the previous handler; we charge a small fixed dispatch
 * cost per record (default 1 cycle).
 *
 * Host-side dispatch mirrors that table, in two tiers, both reading
 * the lifeguard's one handler table (Lifeguard::handlers()): a
 * registered handler is entered directly, an unregistered event type
 * costs dispatch cycles only. consume() dispatches one record (the
 * batched tier, serial: each record as it is logged); consumeBatch
 * drains whole record spans through it; the fused tier
 * (consumeBatchFused) goes further — when the lifeguard describes its
 * handlers as IR (ir.h), the engine lowers the description once at
 * construction (compiler.h) and drains each same-event-type run
 * through a specialized loop with no per-record indirect call at all
 * (lifeguards without an IR description transparently fall back to
 * consumeBatch). Both tiers charge
 * identical simulated cycles for the same record stream; only host
 * speed differs (bench/micro_dispatch.cc,
 * tests/dispatch_fused_test.cpp).
 *
 * Handler work is charged through a CostSink that routes metadata accesses
 * through the lifeguard core's caches.
 *
 */

#include <array>

#include "common/thread_annotations.h"
#include "lifeguard/compiler.h"
#include "lifeguard/lifeguard.h"
#include "log/event.h"
#include "mem/hierarchy.h"
#include "stats/histogram.h"

namespace lba::lifeguard {

/** Dispatch engine tunables. */
struct DispatchConfig
{
    /** Fixed cycles per nlba dispatch (jump-table lookup, pipelined). */
    Cycles dispatch_cycles = 1;
    /** Which core of the hierarchy consumes the log. */
    unsigned core = 1;
};

/**
 * Aggregate dispatch statistics, merged across the engine's two
 * ownership domains: the record counters (records, records_by_type,
 * batches) belong to whichever thread runs the handlers — the
 * coordinator in serial mode, this engine's worker lane in threaded
 * mode — while the cycle counters (total_cycles, cycles_by_type) are
 * always charged on the coordinating thread, because they come from
 * the shared, order-sensitive cache hierarchy. stats() assembles this
 * snapshot; read it only while the engine is quiescent (after a run,
 * or between flush barriers).
 */
struct DispatchStats
{
    std::uint64_t records = 0;
    Cycles total_cycles = 0;
    std::array<std::uint64_t, log::kNumEventTypes> records_by_type{};
    std::array<Cycles, log::kNumEventTypes> cycles_by_type{};
    /** Batch drains (consumeBatch*() calls); records consumed one at
     *  a time through consume() count none. */
    std::uint64_t batches = 0;
};

/**
 * The virtual CostSink the table handlers charge, as an adapter over
 * one of the fused tier's cost flavours (ir::DirectCost charges the
 * shared hierarchy, ir::DeferredCost captures costs for a later
 * replay). The cost rule lives in the flavour, so the handler table
 * and the compiled IR charge through the same arithmetic.
 */
template <typename Cost>
class CostSinkOf final : public CostSink, public Cost
{
  public:
    using Cost::Cost;

    void instrs(std::uint32_t count) override { Cost::instrs(count); }

    void
    memAccess(Addr addr, bool is_write) override
    {
        Cost::memAccess(addr, is_write);
    }
};

/**
 * The functional side of one dispatched batch, with the timing side
 * deferred: per record, the handler-instruction cycles it charged and
 * the ordered list of metadata memory accesses it performed.
 *
 * This is what makes threaded execution cycle-identical to serial
 * (docs/ARCHITECTURE.md "Threaded execution"): handler *execution*
 * (shadow-memory updates, findings — all state private to one
 * lifeguard) runs on a worker thread and records its accesses here,
 * while the *cost* of those accesses — which routes through the
 * shared, order-sensitive L2 model — is computed later by
 * replayDeferred() on the coordinating thread, in the global arrival
 * order the serial path charged them in.
 */
struct DeferredBatch
{
    /** One captured metadata access (ir::DeferredCost pushes into
     *  `ops` directly, on the batched and fused tiers alike). */
    using MemOp = ir::MemOp;

    struct PerRecord
    {
        /** Cycles charged through CostSink::instrs(). */
        std::uint32_t instr_cycles = 0;
        /** This record's slice of `ops` ([first_op, first_op+num_ops)). */
        std::uint32_t first_op = 0;
        std::uint32_t num_ops = 0;
    };

    std::vector<PerRecord> records;
    /** Metadata accesses of the whole batch, in execution order. */
    std::vector<MemOp> ops;

    void
    clear()
    {
        records.clear();
        ops.clear();
    }
};

/**
 * Drives one lifeguard from a record stream, producing per-record cycle
 * costs for the coupled timing model.
 */
class DispatchEngine
{
  public:
    /**
     * @param lifeguard The lifeguard whose handlers consume records.
     *                  Its handler table must be fully registered (i.e.
     *                  its constructor has run) before the engine is
     *                  built; the engine compiles its IR against the
     *                  table here and seals it (late setHandler() calls
     *                  assert).
     * @param hierarchy Cache hierarchy shared with the application core.
     * @param config    Dispatch tunables.
     */
    DispatchEngine(Lifeguard& lifeguard, mem::CacheHierarchy& hierarchy,
                   const DispatchConfig& config = {});

    /**
     * Statically adopt this engine's *functional* side: the thread
     * that runs its handlers and owns its record counters. That is the
     * coordinator on the serial paths and the engine's worker lane
     * between publish/done barriers on the threaded path — which is
     * why it is a per-engine capability rather than a fixed global
     * role. Call from exactly the code that establishes the ownership:
     * the serial drain loops and ThreadedExecutor::workerLoop().
     */
    void assumeFunctionalOwner() const LBA_ASSERT_CAPABILITY(functional_side_)
    {
    }

    /**
     * Consume one record: dispatch + handler execution, through the
     * handler table. Serial path: charges the shared hierarchy
     * directly, so the caller must be the coordinator *and* own the
     * functional side.
     * @return Cycles the lifeguard core spent on this record.
     */
    Cycles consume(const log::EventRecord& record)
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_);

    /**
     * Drain a contiguous record batch through consume(), in order.
     * When @p costs is non-null, costs[i] receives record i's
     * cycles (the timing engine folds them into its recurrence).
     * @return Total cycles across the batch.
     */
    Cycles consumeBatch(const log::EventRecord* records,
                        std::size_t count, Cycles* costs = nullptr)
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_);

    /**
     * Drain a contiguous record batch through the fused tier: the
     * batch is scanned for maximal same-event-type runs and each run
     * is drained through the loop compiled from the lifeguard's IR
     * description — constant-cost runs in bulk with no per-record
     * call, the rest through the computed-goto interpreter
     * (compiler.h). Charges exactly the cycles consumeBatch() would;
     * a lifeguard without an IR description falls back to
     * consumeBatch() transparently. Same ownership contract as
     * consumeBatch(): serial path, coordinator + functional side.
     * @return Total cycles across the batch.
     */
    Cycles consumeBatchFused(const log::EventRecord* records,
                             std::size_t count, Cycles* costs = nullptr)
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_);

    /**
     * Functional half of consumeBatchFused() for threaded execution:
     * the fused twin of consumeBatchDeferred(), with the same
     * ownership contract — it runs on the worker that owns this
     * engine's functional side and captures costs into @p out for the
     * coordinator's replayDeferred() pass, which is unchanged (the
     * captured batches are indistinguishable from the batched tier's).
     * Falls back to consumeBatchDeferred() when the lifeguard has no
     * IR description.
     */
    void consumeBatchFusedDeferred(const log::EventRecord* records,
                                   std::size_t count, DeferredBatch& out)
        LBA_REQUIRES(functional_side_);

    /** True when the lifeguard opted into the fused tier (an IR
     *  description was present and compiled at construction). */
    bool fusedTierCompiled() const { return fused_; }

    /**
     * Functional half of consumeBatch() for threaded execution: run
     * every handler (in order) against the lifeguard's state, but
     * capture the costs into @p out instead of charging the shared
     * cache hierarchy. Safe to call from a worker thread that owns
     * this engine, concurrently with other engines' workers — it
     * touches only the lifeguard, the record counters of stats(), and
     * @p out; hence it requires only the functional side, not the
     * coordinator role. Pair every call with replayDeferred() over the
     * same batch on the coordinating thread.
     */
    void consumeBatchDeferred(const log::EventRecord* records,
                              std::size_t count, DeferredBatch& out)
        LBA_REQUIRES(functional_side_);

    /**
     * Timing half: charge record @p i of @p batch through this
     * engine's core against the shared hierarchy — exactly the cycles
     * consumeBatch() would have charged for it — and fold them into
     * the cycle counters of stats(). Coordinating thread only; calls
     * must follow global record arrival order across engines so the
     * shared-L2 interleaving matches the serial path.
     * @return Cycles the lifeguard core spends on this record.
     */
    Cycles replayDeferred(const log::EventRecord& record,
                          const DeferredBatch& batch, std::size_t i)
        LBA_COORDINATOR_ONLY;

    /**
     * Run the lifeguard's end-of-program hook. The hook both mutates
     * lifeguard state and charges the shared hierarchy, so it needs
     * the coordinator role and the functional side (at end of run the
     * coordinator holds both — the workers have joined).
     * @return Cycles spent in the final pass.
     */
    Cycles finish()
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_);

    /**
     * Merged snapshot of both ownership domains' counters (see
     * DispatchStats). Quiescent reads only — which is why this is the
     * one accessor the analysis deliberately waives: it reads fields
     * of both sides.
     */
    DispatchStats
    stats() const LBA_NO_THREAD_SAFETY_ANALYSIS
    {
        DispatchStats merged;
        merged.records = functional_.records;
        merged.records_by_type = functional_.records_by_type;
        merged.batches = functional_.batches;
        merged.total_cycles = timing_.total_cycles;
        merged.cycles_by_type = timing_.cycles_by_type;
        return merged;
    }

    Lifeguard& lifeguard() { return lifeguard_; }

  private:
    /** The fused serial drain loop (see consumeBatchFused). Carries
     *  the same capability requirements as the serial batched loops
     *  it replaces. */
    Cycles fusedDrain(const log::EventRecord* records, std::size_t count,
                      Cycles* costs)
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_);

    /** Fold one consumed record into the statistics (serial paths:
     *  both domains advance together). */
    Cycles
    account(const log::EventRecord& record, Cycles cycles)
        LBA_REQUIRES(::lba::threading::coordinator_role, functional_side_)
    {
        ++functional_.records;
        timing_.total_cycles += cycles;
        auto type = static_cast<std::size_t>(record.type);
        ++functional_.records_by_type[type];
        timing_.cycles_by_type[type] += cycles;
        return cycles;
    }

    /** Record counters, owned by whichever thread runs the handlers
     *  (see DispatchStats). */
    struct FunctionalCounts
    {
        std::uint64_t records = 0;
        std::array<std::uint64_t, log::kNumEventTypes> records_by_type{};
        std::uint64_t batches = 0;
    };

    /** Cycle counters, charged only on the coordinating thread. */
    struct TimingCounts
    {
        Cycles total_cycles = 0;
        std::array<Cycles, log::kNumEventTypes> cycles_by_type{};
    };

    /** The engine's functional side as a per-engine capability: held
     *  by the one thread currently running its handlers. */
    threading::ThreadRole functional_side_;

    Lifeguard& lifeguard_;
    DispatchConfig config_;
    /** Charges the lifeguard core against the shared, order-sensitive
     *  hierarchy — coordinator territory (workers capture costs into
     *  DeferredBatch instead). */
    CostSinkOf<ir::DirectCost> sink_
        LBA_GUARDED_BY(::lba::threading::coordinator_role);
    FunctionalCounts functional_ LBA_GUARDED_BY(functional_side_);
    TimingCounts timing_ LBA_GUARDED_BY(::lba::threading::coordinator_role);
    /** The lifeguard's lowered IR (valid when fused_; compiled once,
     *  at construction, on the coordinating thread). */
    CompiledDispatch compiled_;
    bool fused_ = false;
};

} // namespace lba::lifeguard
