#pragma once
/**
 * @file
 * The shared LBA timing engine: one implementation of the
 * produce/start/finish recurrence used by the serial (LbaSystem), the
 * parallel (ParallelLbaSystem) and the multi-tenant (sched::LifeguardPool)
 * platforms.
 *
 * A PipelineTimer owns one or more *lanes*. Each lane models one
 * lifeguard core with its own bounded log buffer and its own
 * bandwidth-limited transport link. For every record delivered to lane
 * L we compute
 *
 *   produce(i)   = app core time after the instruction retires, delayed
 *                  while any target lane's buffer is full (back-pressure);
 *   deliver(i,L) = first cycle at or after the record's last (compressed)
 *                  byte has crossed lane L's transport (ceiling — a record
 *                  is never consumed before its bytes have arrived);
 *   start(i,L)   = max(deliver(i,L), finish(i-1,L));
 *   finish(i,L)  = start(i,L) + dispatch + handler cycles.
 *
 * The lane-L buffer slot for record i frees when the lane's record
 * i-capacity finishes, so a lifeguard that cannot keep up eventually
 * stalls the application. That stall is the only way the buffer
 * affects timing, so a lane models its buffer as nothing more than a
 * fixed-capacity ring of the finish times of the records occupying
 * it (plus a count of records queued but not yet consumed). Syscall
 * containment stalls the application at the first retirement after a
 * syscall until every record the application logged so far has been
 * consumed — including the annotation records the syscall itself
 * emitted.
 *
 * With a single lane this is exactly the paper's dual-core recurrence
 * (core/lba_system.h); with N lanes it is the parallel-lifeguard
 * extension (core/parallel.h). The serial system is the lane-count-1
 * special case by construction, which the shards=1 differential tests
 * assert cycle-for-cycle.
 *
 * Dispatch tiers (LbaConfig::dispatch_tier). The recurrence above is
 * *what* is computed; the tier changes only *how* (and when) the host
 * computes it. Serial kBatched (the default) consumes each record at
 * log time, through the lifeguard's handler table
 * (DispatchEngine::consume), and folds its cost into the recurrence at
 * once — the reference every other path is tested against. Records
 * queue only where a flush has work to do: under threaded execution
 * (below) and on the fused tier. A queue drains at the next flush
 * boundary — the following retirement (before its drain check and
 * cache accesses), a containment drain, a slot-reservation squeeze
 * that the ring's known finish times cannot cover, or end of run —
 * first running every queued handler in arrival order, then folding
 * the per-record costs into the recurrence in the same order. Because
 * every flush boundary precedes the next application-core cache
 * access, the shared-L2 access interleaving is exactly the log-time
 * path's; only *when* records are consumed differs. kFused drains its
 * queue through each lifeguard's *compiled* handler IR
 * (lifeguard/compiler.h): same-event-type runs execute in specialized
 * loops with the shadow cost accounting inlined — no virtual call, no
 * per-record table lookup — and lifeguards without an IR description
 * fall back to the handler table per engine, transparently
 * (tests/dispatch_fused_test.cpp asserts the cycle identity).
 *
 * Threaded execution (LbaConfig::execution = kThreaded). Handlers run
 * on real host threads — one worker per lane (ThreadedExecutor) — and
 * every simulated cycle count stays bit-identical to serial execution.
 * Records queue on both tiers, and the flush splits in two: phase 1
 * fans the queued per-engine runs out to the workers, which execute
 * handlers against their lifeguards' private state while *recording*
 * costs (instruction counts and the ordered metadata accesses) into
 * DeferredBatch scratch instead of charging the shared cache
 * hierarchy; phase 2, back on the coordinating thread after the round
 * barrier, replays the recorded accesses through the hierarchy in
 * global arrival order — the exact interleaving serial execution
 * charges — and folds the costs into the recurrence. Flush boundaries
 * are therefore cross-thread barriers; between them, only workers touch
 * lifeguard state and only the coordinator touches the timer.
 * tests/threaded_test.cpp asserts the cycle identity across
 * serial/shards/pool/containment configurations; docs/ARCHITECTURE.md
 * "Threaded execution" gives the full argument.
 *
 * Cache model. Every retirement and every handler metadata access
 * crosses the shared mem::CacheHierarchy. Each mem::Cache remembers the
 * way its last access touched, and a repeat access to that line skips
 * the set scan. The memo is exact: only an access to the same cache can
 * evict a line, and every access moves the memo, so the line it names
 * is always resident (flush() clears it). It changes host time only.
 *
 * Delivery. Lanes own no lifeguard: every log() call names its
 * targets, each a (lane, dispatch engine) pair, and the caller owns the
 * engines. The serial system passes one fixed target, the parallel
 * system one per shard (or every shard, for a broadcast; the routing
 * is core::routeShard in core/parallel.h), and the multi-tenant pool
 * (src/sched/) maps each tenant's shard engines onto shared lanes.
 * Every run ends the same way: finishShard() per (engine, lane), then
 * seal().
 *
 * Multiple producers. The timer also supports several independent
 * monitored applications, each with its own application-core clock, log
 * stream (compressor), back-pressure and containment state. Lanes are
 * shared — records from different producers serialize on each lane's
 * clock, which is how lifeguard capacity becomes a scheduled resource.
 * A one-tenant pool (identity shard->lane map) makes exactly the
 * parallel system's log() calls, which the one-tenant differential
 * tests in tests/sched_test.cpp assert cycle for cycle.
 */

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "compress/codec.h"
#include "core/threaded_executor.h"
#include "lifeguard/dispatch.h"
#include "mem/hierarchy.h"
#include "sim/process.h"
#include "stats/counter.h"

namespace lba::core {

/**
 * How the host executes lifeguard handlers. Simulated timing is
 * identical either way (the mode changes host threads, not the model).
 * Serial execution consumes records at log time (the fused tier
 * excepted); threaded execution queues them on every tier, because its
 * flush boundaries are the cross-thread barriers.
 */
enum class ExecutionMode
{
    /** Everything on the calling thread (the reference). */
    kSerial,
    /** One host worker thread per lane (see the file comment). */
    kThreaded,
};

/**
 * How the host dispatches records to lifeguard handlers. Simulated
 * timing is identical across tiers (asserted by
 * tests/dispatch_fused_test.cpp); the tier trades host-side dispatch
 * overhead, not model fidelity.
 */
enum class DispatchTier
{
    /** Through the handler table. Serial execution consumes each
     *  record at log time (DispatchEngine::consume); threaded execution
     *  queues records and drains them at flush boundaries
     *  (DispatchEngine::consumeBatchDeferred). The default. */
    kBatched,
    /** Queue and drain through the compiled handler IR
     *  (DispatchEngine::consumeBatchFused): specialized loops over
     *  same-event-type runs, no virtual call or table lookup. Engines
     *  whose lifeguard has no IR description fall back to the handler
     *  table. */
    kFused,
};

/** LBA platform configuration (shared by the serial and parallel systems). */
struct LbaConfig
{
    /** Log buffer capacity, in records (per lane). */
    std::size_t buffer_capacity = 64 * 1024;
    /** Application core index. */
    unsigned app_core = 0;
    /**
     * Dispatch configuration. `dispatch.core` is the first lifeguard
     * core; lane L of a multi-lane timer consumes on core
     * `dispatch.core + L`.
     */
    lifeguard::DispatchConfig dispatch{1, 1};
    /** Stall syscalls until the log drains (error containment). */
    bool syscall_stall = true;
    /** Run the compressor for bandwidth accounting. */
    bool compress = true;
    /** Address-range record filter (paper Section 3 future work). */
    bool filter_enabled = false;
    Addr filter_base = 0;
    std::uint64_t filter_bytes = 0;
    /**
     * Log-transport bandwidth in bytes/cycle through the cache
     * hierarchy (0 = unlimited), per lane. With a finite bandwidth, a
     * record can only be consumed once its (compressed) bytes have
     * crossed the transport — this is where the < 1 byte/instruction
     * compression pays off (paper Section 2: compression "reduce[s] the
     * bandwidth pressure and buffer requirements on the log transport
     * medium").
     */
    double transport_bytes_per_cycle = 0.0;
    /** Record size on the transport when compression is disabled. */
    unsigned raw_record_bytes = 24;
    /**
     * Dispatch tier (see DispatchTier and the file comment). Serial
     * kBatched consumes each record at log time. kFused, and either
     * tier under threaded execution, queue records as they are logged
     * and drain them at the next flush boundary: the following
     * retirement, a containment drain, a slot-reservation squeeze the
     * ring's known finish times cannot cover, or end of run. Every
     * flush boundary precedes the next application-core cache access,
     * so the cache-access interleaving — and therefore every cycle
     * count — is identical to log-time consumption (asserted by
     * tests/dispatch_fused_test.cpp and tests/threaded_test.cpp).
     */
    DispatchTier dispatch_tier = DispatchTier::kBatched;
    /**
     * Host execution mode (kThreaded = one worker thread per lane,
     * cycle-identical to kSerial; see the file comment). Threaded
     * execution queues records on either dispatch tier.
     */
    ExecutionMode execution = ExecutionMode::kSerial;
};

/** Timing/traffic statistics of one LBA run (aggregated over lanes). */
struct LbaRunStats
{
    std::uint64_t app_instructions = 0;
    std::uint64_t records_logged = 0;
    std::uint64_t records_filtered = 0;
    Cycles total_cycles = 0;
    /** The application's own execution cycles (CPI + cache penalties). */
    Cycles app_cycles = 0;
    /** Cycles the application stalled on a full log buffer. */
    Cycles backpressure_stall_cycles = 0;
    /** Cycles the application stalled draining the log at syscalls. */
    Cycles syscall_stall_cycles = 0;
    /** Cycles lifeguard cores spent consuming records (summed). */
    Cycles lifeguard_busy_cycles = 0;
    /** Compressed log size, bytes per logged record. */
    double bytes_per_record = 0.0;
    /** Mean cycles between record production and consumption start. */
    double mean_consume_lag = 0.0;
    /** Number of syscalls that triggered a containment drain. */
    std::uint64_t syscall_drains = 0;
    /** Total bytes pushed onto the log transport (per-lane sum). */
    double transport_bytes = 0.0;
    /** Cycles consumption waited on transport bandwidth (per-lane sum). */
    Cycles transport_wait_cycles = 0;
    /**
     * Cycles the application spent on containment work: draining the
     * lanes for interval checkpoints and rewinds, and replaying undo
     * logs after a rewind (src/replay/containment.h). Zero when
     * containment is off or never triggered.
     */
    Cycles containment_cycles = 0;
};

/**
 * The shared timing engine. Owns the per-producer compressors, the
 * per-lane buffers and the application-core clocks; the systems on top
 * own the dispatch engines and decide routing (which targets a record
 * goes to).
 */
class PipelineTimer
{
  public:
    /** One delivery target of a record: the physical lane that
     *  serializes it and the dispatch engine (lifeguard shard context)
     *  that consumes it. */
    struct Target
    {
        unsigned lane = 0;
        lifeguard::DispatchEngine* engine = nullptr;
    };

    /** Observes every consumed record (multi-tenant stats hook). */
    using ConsumeObserver = std::function<void(
        unsigned producer, unsigned lane, const log::EventRecord& record,
        Cycles lag, Cycles cost, double bytes)>;

    /**
     * @param hierarchy Shared cache hierarchy; needs a core for the
     *                  application plus one per lane.
     * @param config    Platform configuration (see LbaConfig); every
     *                  lane has its buffer capacity and transport
     *                  bandwidth.
     * @param nlanes    Lifeguard lanes (>= 1); lane L consumes on core
     *                  config.dispatch.core + L.
     */
    PipelineTimer(mem::CacheHierarchy& hierarchy, const LbaConfig& config,
                  unsigned nlanes);

    /**
     * Register one more producer (monitored application) with its own
     * clock, compressor, back-pressure and containment state. Producer 0
     * always exists, on config.app_core.
     * @return The new producer's index.
     */
    unsigned addProducer(unsigned app_core) LBA_COORDINATOR_ONLY;

    /**
     * Account one retirement on @p producer's application core: apply
     * any pending syscall-containment drain, then charge fetch/memory
     * cost.
     */
    void retire(unsigned producer, const sim::Retired& retired)
        LBA_COORDINATOR_ONLY;
    void
    retire(const sim::Retired& retired) LBA_COORDINATOR_ONLY
    {
        retire(0, retired);
    }

    /**
     * Deliver one record of @p producer to each target in order:
     * filtering, compression accounting, back-pressure, transport and
     * dispatch timing. All target slots are reserved before any
     * consumption, so produce(i) reflects the slowest target lane; a
     * lane may appear more than once when several lifeguard shards fold
     * onto it.
     * @return False when the filter dropped the record.
     */
    bool log(unsigned producer, const log::EventRecord& record,
             const std::vector<Target>& targets) LBA_COORDINATOR_ONLY;

    /**
     * Arm the containment drain: @p producer stalls at its next
     * retirement until every record it has logged so far has been
     * consumed. No-op unless config.syscall_stall.
     */
    void noteSyscall(unsigned producer = 0) LBA_COORDINATOR_ONLY;

    /**
     * Immediately stall @p producer until every record it has logged so
     * far has been consumed on every lane it targeted — the multi-lane
     * coordination a consistent rewind point needs (all lanes drained
     * means the lifeguards have checked everything up to here). The
     * stall lands on the producer's clock as containment cycles.
     * @return The stall applied (0 when the lanes were already ahead).
     */
    Cycles drainProducer(unsigned producer) LBA_COORDINATOR_ONLY;

    /**
     * Charge @p cycles of containment work (undo-log replay, pipeline
     * flush on rewind) to @p producer's application clock.
     */
    void chargeContainment(unsigned producer, Cycles cycles)
        LBA_COORDINATOR_ONLY;

    /**
     * Drain the deferred dispatch queue now (no-op when records are
     * consumed at log time and at every natural flush boundary). External
     * drivers call this before inspecting mid-run lifeguard state —
     * e.g. the containment manager before checking findings, and the
     * pool at slice boundaries so scheduling sees up-to-date lag.
     */
    void
    sync() const LBA_COORDINATOR_ONLY
    {
        assertCoordinator();
        // Catching up lazily-deferred state does not change observable
        // results, so const accessors may sync too.
        const_cast<PipelineTimer*>(this)->flushPending();
    }

    /** The shared cache hierarchy (rewind cost modelling). */
    mem::CacheHierarchy& hierarchy() { return hierarchy_; }

    /** The application core @p producer retires on. */
    unsigned producerCore(unsigned producer) const;

    /**
     * End-of-program hook: run @p engine's finish pass once
     * @p producer's application has exited and @p lane has drained;
     * the cost lands on that lane's clock.
     * @return The lane's new last-finish time.
     */
    Cycles finishShard(unsigned producer, unsigned lane,
                       lifeguard::DispatchEngine& engine)
        LBA_COORDINATOR_ONLY;

    /**
     * Seal the aggregate and per-producer statistics after every
     * finishShard() call. Call exactly once.
     */
    void seal() LBA_COORDINATOR_ONLY;

    /** Aggregate statistics (totals valid after seal()).
     *  Flushes deferred dispatch first, hence coordinator-only (as is
     *  every accessor below that syncs). */
    const LbaRunStats&
    stats() const LBA_COORDINATOR_ONLY
    {
        sync();
        return stats_;
    }

    /**
     * One producer's slice of the run: its own app/stall cycles, its
     * records, its log stream's bytes-per-record, its consume lag, and
     * (after seal()) its completion time in total_cycles.
     */
    const LbaRunStats& producerStats(unsigned producer) const
        LBA_COORDINATOR_ONLY;

    /** Current app-core clock of @p producer. */
    Cycles producerTime(unsigned producer) const;

    unsigned producers() const
    {
        return static_cast<unsigned>(producers_.size());
    }

    unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }

    /** Install a per-consumed-record observer (nullptr to remove). */
    void setConsumeObserver(ConsumeObserver observer)
    {
        consume_observer_ = std::move(observer);
    }

    /** Lane clock: finish time of the lane's last consumed record. */
    Cycles laneLastFinish(unsigned lane) const LBA_COORDINATOR_ONLY;
    /** Cycles the lane's core spent consuming (and finishing). */
    Cycles laneBusyCycles(unsigned lane) const LBA_COORDINATOR_ONLY;
    /** Records this lane consumed (broadcasts count in every lane). */
    std::uint64_t laneRecords(unsigned lane) const LBA_COORDINATOR_ONLY;
    /** Peak buffer occupancy of this lane, in records (consumed
     *  records still holding a slot plus queued ones). */
    std::uint64_t laneMaxOccupancy(unsigned lane) const;
    /** Mean produce-to-consume lag of this lane's records. */
    double laneMeanConsumeLag(unsigned lane) const LBA_COORDINATOR_ONLY;
    /** Bytes that crossed this lane's transport link. */
    double laneTransportBytes(unsigned lane) const LBA_COORDINATOR_ONLY;
    /** Cycles this lane's consumption waited on its transport. */
    Cycles laneTransportWaitCycles(unsigned lane) const
        LBA_COORDINATOR_ONLY;

    /** Producer 0's log-stream encoder (single-app runs). */
    const compress::Encoder& encoder() const
    {
        return producers_.front().encoder;
    }

  private:
    /** Fixed-capacity FIFO of the finish times of consumed records
     *  still holding a lane's buffer slots, oldest first. */
    class FinishRing
    {
      public:
        explicit FinishRing(std::size_t capacity) : slots_(capacity)
        {
            LBA_ASSERT(capacity > 0, "lane buffer capacity must be "
                                     "positive");
        }

        std::size_t capacity() const { return slots_.size(); }
        std::size_t size() const { return size_; }

        void
        push(Cycles finish)
        {
            LBA_ASSERT(size_ < slots_.size(),
                       "lane buffer full after slot accounting");
            std::size_t tail = head_ + size_;
            if (tail >= slots_.size()) tail -= slots_.size();
            slots_[tail] = finish;
            ++size_;
        }

        /** Remove and return the oldest finish time (size() > 0). */
        Cycles
        pop()
        {
            Cycles finish = slots_[head_];
            if (++head_ == slots_.size()) head_ = 0;
            --size_;
            return finish;
        }

      private:
        std::vector<Cycles> slots_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    struct Lane
    {
        /** The lane's log buffer: occupancy is slots.size() +
         *  pending, never above slots.capacity(). */
        FinishRing slots;
        /** finish(i-1) of this lane's most recent record. */
        Cycles last_finish = 0;
        /** Cycle at which the lane transport delivers its last byte. */
        double transport_free = 0.0;
        /** Cycles this lane's core spent consuming and finishing. */
        Cycles busy_cycles = 0;
        stats::Summary consume_lag;
        double transport_bytes = 0.0;
        Cycles transport_wait_cycles = 0;
        std::uint64_t records = 0;
        /** Records queued for a flush but not yet consumed. */
        std::size_t pending = 0;
        /** Peak of slots.size() + pending. */
        std::uint64_t max_occupancy = 0;

        explicit Lane(std::size_t capacity) : slots(capacity) {}
    };

    /** One monitored application feeding the shared lanes. */
    struct Producer
    {
        unsigned app_core = 0;
        /** Application core clock. */
        Cycles app_time = 0;
        /** Containment drain is applied before the next retirement. */
        bool pending_drain = false;
        /** Latest finish time over this producer's consumed records. */
        Cycles drain_clock = 0;
        /** This producer's log stream (per-tenant codec state). */
        compress::Encoder encoder;
        stats::Summary consume_lag;
        LbaRunStats stats;
    };

    /** True when the filter drops this record. */
    bool filtered(const log::EventRecord& record) const;

    /** Bytes this record costs on a transport link. */
    double transportCost(Producer& producer,
                         const log::EventRecord& record);

    /** Free @p needed slots in @p lane, stalling @p producer if
     *  needed. The freed slots are the oldest, so the ring's known
     *  finish times are popped first; the pending queue is flushed
     *  only when it and the new slots overfill the buffer alone. */
    void reserveSlots(Producer& producer, Lane& lane,
                      std::size_t needed) LBA_COORDINATOR_ONLY;

    /**
     * Deliver one record to one lane (its slot is already reserved):
     * consume it now (serial execution, handler table) or queue it for
     * the next flush (threaded execution, or the fused tier).
     */
    void consumeOn(Producer& producer, Lane& lane,
                   lifeguard::DispatchEngine& engine,
                   const log::EventRecord& record, Cycles produced_at,
                   double record_bytes) LBA_COORDINATOR_ONLY;

    /**
     * Fold one consumed record's @p cost into the timing recurrence:
     * transport delivery, start/finish, lag and busy accounting, slot
     * bookkeeping, and the consume observer.
     */
    void applyRecordTiming(Producer& producer, Lane& lane,
                           const log::EventRecord& record,
                           Cycles produced_at, double record_bytes,
                           Cycles cost) LBA_COORDINATOR_ONLY;

    /**
     * Drain the deferred dispatch queue: run every queued handler in
     * arrival order (batched per engine run), then apply the timing
     * recurrence per record in the same order.
     */
    void flushPending() LBA_COORDINATOR_ONLY;

    /**
     * Threaded phase 1: fan the first @p n queued records out to the
     * worker threads as per-engine runs, barrier on the round, then
     * replay the recorded costs through the shared hierarchy in global
     * arrival order, filling pending_costs_[0, n).
     */
    void runPendingThreaded(std::size_t n) LBA_COORDINATOR_ONLY;

    /** Threaded mode confines the timer to the thread that built it:
     *  every mutating entry point asserts it (the mid-run-read guard
     *  the TSan CI job backs up). No-op in serial mode. The
     *  ASSERT_CAPABILITY is the static twin of the runtime trap: a
     *  passed check *proves* the coordinator role to the analysis —
     *  tools/lba_lint.py keeps the two in lockstep. */
    void
    assertCoordinator() const
        LBA_ASSERT_CAPABILITY(::lba::threading::coordinator_role)
    {
        LBA_ASSERT(!executor_ ||
                       std::this_thread::get_id() == coordinator_,
                   "PipelineTimer used off the coordinating thread");
    }

    mem::CacheHierarchy& hierarchy_;
    LbaConfig config_;
    std::vector<Lane> lanes_;
    std::vector<Producer> producers_;

    /** Deferred dispatch: records awaiting consumption, in
     *  arrival order (contiguous so engine runs batch directly). */
    std::vector<log::EventRecord> pending_records_
        LBA_GUARDED_BY(::lba::threading::coordinator_role);
    /** Per-record routing/timing inputs parallel to pending_records_. */
    struct PendingMeta
    {
        unsigned producer = 0;
        unsigned lane = 0;
        lifeguard::DispatchEngine* engine = nullptr;
        Cycles produced_at = 0;
        double bytes = 0.0;
    };
    std::vector<PendingMeta> pending_meta_
        LBA_GUARDED_BY(::lba::threading::coordinator_role);
    /** Scratch: per-record handler costs of one flush. */
    std::vector<Cycles> pending_costs_
        LBA_GUARDED_BY(::lba::threading::coordinator_role);
    /** Threaded mode only: the worker pool (null in serial mode).
     *  The pointer is read by assertCoordinator() from any thread (a
     *  stale read can only soften a trap into a pass for a timer
     *  mid-construction, which no correct program observes); the
     *  executor itself is driven by the coordinator alone. */
    std::unique_ptr<ThreadedExecutor> executor_
        LBA_PT_GUARDED_BY(::lba::threading::coordinator_role);
    /** Scratch: one deferred-cost batch per engine run of one flush
     *  (address-stable from enqueue to replay — resized up front). */
    std::vector<lifeguard::DeferredBatch> batch_scratch_
        LBA_GUARDED_BY(::lba::threading::coordinator_role);
    /** The thread the timer was built on (threaded-mode guard). */
    std::thread::id coordinator_;
    /** Re-entrancy guard: a flush is in progress (observer callbacks
     *  may reach a syncing accessor). */
    bool flushing_ LBA_GUARDED_BY(::lba::threading::coordinator_role) =
        false;

    ConsumeObserver consume_observer_;
    stats::Summary consume_lag_
        LBA_GUARDED_BY(::lba::threading::coordinator_role);
    LbaRunStats stats_
        LBA_GUARDED_BY(::lba::threading::coordinator_role);
    bool finished_ LBA_GUARDED_BY(::lba::threading::coordinator_role) =
        false;
};

} // namespace lba::core
