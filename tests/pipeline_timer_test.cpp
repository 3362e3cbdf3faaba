/**
 * @file
 * Direct tests of the shared timing engine (core::PipelineTimer): exact
 * transport-ceiling delivery, syscall-containment drain ordering,
 * per-lane finish cost, per-lane back-pressure, buffer occupancy and
 * the lane's finish-time ring wrapping.
 *
 * These tests drive the engine with hand-built records and a
 * fixed-cost lifeguard so every cycle count is computable by hand; the
 * serial/parallel differential tests in core_test.cpp cover the same
 * engine from the system level.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipeline_timer.h"
#include "lifeguard/lifeguard.h"

// Death tests fork, which ThreadSanitizer's runtime does not support
// in a multithreaded process (the threaded timer owns worker threads);
// the TSan CI job runs this suite, so compile them out under TSan.
#if defined(__SANITIZE_THREAD__)
#define LBA_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LBA_TSAN_BUILD 1
#endif
#endif

namespace lba::core {
namespace {

/** Charges a fixed instruction count per record (and at finish). */
class FixedCostLifeguard : public lifeguard::Lifeguard
{
  public:
    explicit FixedCostLifeguard(std::uint32_t handler_instrs,
                                std::uint32_t finish_instrs = 0)
        : handler_instrs_(handler_instrs), finish_instrs_(finish_instrs)
    {
        for (std::size_t t = 0; t < log::kNumEventTypes; ++t) {
            onEvent<&FixedCostLifeguard::onAny>(
                static_cast<log::EventType>(t));
        }
    }

    const char* name() const override { return "FixedCost"; }

    void
    onAny(const log::EventRecord&, lifeguard::CostSink& cost)
    {
        cost.instrs(handler_instrs_);
    }

    void
    finish(lifeguard::CostSink& cost) override
    {
        cost.instrs(finish_instrs_);
    }

  private:
    std::uint32_t handler_instrs_;
    std::uint32_t finish_instrs_;
};

/**
 * A timer plus one dispatch engine per lifeguard, engine L consuming on
 * lane L (core dispatch.core + L): the layout the serial and parallel
 * systems build, with their one-target and broadcast deliveries.
 */
struct Rig
{
    std::vector<std::unique_ptr<lifeguard::DispatchEngine>> engines;
    /** Declared after the engines, so its workers are joined first. */
    PipelineTimer timer;

    Rig(mem::CacheHierarchy& hierarchy, const LbaConfig& config,
        std::initializer_list<lifeguard::Lifeguard*> guards)
        : timer(hierarchy, config, static_cast<unsigned>(guards.size()))
    {
        for (lifeguard::Lifeguard* guard : guards) {
            lifeguard::DispatchConfig dc = config.dispatch;
            dc.core += static_cast<unsigned>(engines.size());
            engines.push_back(std::make_unique<lifeguard::DispatchEngine>(
                *guard, hierarchy, dc));
        }
    }

    /** Deliver @p record to @p lane's engine alone. */
    bool
    log(const log::EventRecord& record, unsigned lane)
    {
        return timer.log(0, record, {{lane, engines.at(lane).get()}});
    }

    /** Deliver @p record to every lane. */
    void
    broadcast(const log::EventRecord& record)
    {
        std::vector<PipelineTimer::Target> everyone;
        for (unsigned lane = 0; lane < engines.size(); ++lane) {
            everyone.push_back({lane, engines[lane].get()});
        }
        timer.log(0, record, everyone);
    }

    /** finishShard() on every lane, then seal(). */
    void
    finish()
    {
        for (unsigned lane = 0; lane < engines.size(); ++lane) {
            timer.finishShard(0, lane, *engines[lane]);
        }
        timer.seal();
    }

    lifeguard::DispatchStats
    dispatchStats(unsigned lane)
    {
        timer.sync();
        return engines.at(lane)->stats();
    }
};

mem::HierarchyConfig
cores(unsigned n)
{
    mem::HierarchyConfig hc;
    hc.num_cores = n;
    return hc;
}

log::EventRecord
aluRecord(Addr pc = 0x1000)
{
    log::EventRecord record;
    record.pc = pc;
    record.type = log::EventType::kIntAlu;
    return record;
}

log::EventRecord
allocRecord(Addr base, std::uint64_t size)
{
    log::EventRecord record;
    record.type = log::EventType::kAlloc;
    record.addr = base;
    record.aux = size;
    return record;
}

TEST(PipelineTimer, FractionalTransportDeliversOnCeiling)
{
    // 3-byte raw records over a 2 B/cycle transport need 1.5 cycles
    // each. Record 1 completes at t=1.5 -> consumable at cycle 2 (not
    // at 1, as truncation allowed); record 2 completes at t=3.0 ->
    // consumable exactly at 3 (ceiling must not round exact integers up).
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.compress = false;
    config.raw_record_bytes = 3;
    config.transport_bytes_per_cycle = 2.0;
    FixedCostLifeguard guard(0);
    Rig rig(hierarchy, config, {&guard});
    PipelineTimer& timer = rig.timer;

    rig.log(aluRecord(), 0);
    rig.log(aluRecord(), 0);

    // Waits: (2 - 0) + (3 - 0) = 5. Truncation would report 1 + 3 = 4.
    EXPECT_EQ(timer.stats().transport_wait_cycles, 5u);
    EXPECT_EQ(timer.stats().transport_bytes, 6.0);
    // start(1) = 2, start(2) = max(3, finish(1)=3) = 3.
    rig.finish();
    EXPECT_EQ(timer.stats().total_cycles, 4u);
    EXPECT_DOUBLE_EQ(timer.stats().mean_consume_lag, 2.5);
}

TEST(PipelineTimer, ContainmentDrainCoversSyscallAnnotations)
{
    // The drain armed by a syscall must also wait for the annotation
    // records the syscall's own OS handlers emitted after it.
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.syscall_stall = true;
    FixedCostLifeguard guard(4); // consume cost = 1 dispatch + 4
    Rig rig(hierarchy, config, {&guard});
    PipelineTimer& timer = rig.timer;

    sim::Retired retired;
    retired.pc = 0x1000;
    timer.retire(retired);
    Cycles app_before = timer.stats().app_cycles;

    // Syscall record, then its annotation, both produced at app_before.
    rig.log(aluRecord(), 0);
    timer.noteSyscall();
    rig.log(allocRecord(0x10000000, 64), 0);
    // finish(syscall) = app_before + 5; finish(alloc) = app_before + 10.

    retired.pc = 0x1008;
    timer.retire(retired);
    // The drain stalls the app from app_before to app_before + 10 —
    // covering the annotation, not just the syscall record.
    EXPECT_EQ(timer.stats().syscall_drains, 1u);
    EXPECT_EQ(timer.stats().syscall_stall_cycles, 10u);
    (void)app_before;
}

TEST(PipelineTimer, FinishCostLandsOnEachLane)
{
    // Lane 0: two records (last_finish = 2) and a cheap final pass (3).
    // Lane 1: idle but with an expensive final pass (10). Folding a
    // single max finish cost into the global clock would report
    // max(2,0) + 10 = 12; per-lane accounting gives
    // max(2+3, 0+10) = 10.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    FixedCostLifeguard cheap_finish(0, 3);
    FixedCostLifeguard dear_finish(0, 10);
    Rig rig(hierarchy, config, {&cheap_finish, &dear_finish});
    PipelineTimer& timer = rig.timer;

    rig.log(aluRecord(), 0);
    rig.log(aluRecord(), 0);
    rig.finish();

    EXPECT_EQ(timer.stats().total_cycles, 10u);
    EXPECT_EQ(timer.laneLastFinish(0), 5u);
    EXPECT_EQ(timer.laneLastFinish(1), 10u);
    // Busy cycles include the lane's own finish pass.
    EXPECT_EQ(timer.laneBusyCycles(0), 5u);
    EXPECT_EQ(timer.laneBusyCycles(1), 10u);
    EXPECT_EQ(timer.stats().lifeguard_busy_cycles, 15u);
}

TEST(PipelineTimer, PerLaneBackpressureAndBufferStats)
{
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.buffer_capacity = 2;
    FixedCostLifeguard guard(10); // consume cost = 11
    Rig rig(hierarchy, config, {&guard});
    PipelineTimer& timer = rig.timer;

    rig.log(aluRecord(), 0); // finish = 11
    rig.log(aluRecord(), 0); // finish = 22
    // Third record: both slots taken; the app stalls until the first
    // record finishes at 11.
    rig.log(aluRecord(), 0);
    EXPECT_EQ(timer.stats().backpressure_stall_cycles, 11u);

    EXPECT_EQ(timer.laneRecords(0), 3u);
    EXPECT_EQ(timer.laneMaxOccupancy(0), 2u);
}

/** What the wrap-around scenario below observes, per dispatch tier. */
struct WrapObservation
{
    /** The app clock right after each log() call. */
    std::vector<Cycles> app_after_log;
    Cycles stall = 0;
    std::uint64_t max_occupancy = 0;
    std::uint64_t records = 0;
    Cycles last_finish = 0;
    std::vector<Cycles> folded_app_after_log;
    Cycles folded_stall = 0;
    std::uint64_t folded_max_occupancy = 0;
    std::uint64_t folded_records = 0;
    Cycles folded_last_finish = 0;
};

WrapObservation
runWrapAround(DispatchTier tier)
{
    WrapObservation seen;
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.dispatch_tier = tier;
    config.buffer_capacity = 3;
    FixedCostLifeguard guard(10); // consume cost = 11
    {
        // Twelve records through three slots: the ring wraps four
        // times. Every fourth record the app clock first advances by
        // 20 cycles (charged as containment work), so some records
        // find their slot already free and others stall.
        Rig rig(hierarchy, config, {&guard});
        PipelineTimer& timer = rig.timer;
        for (int i = 0; i < 12; ++i) {
            if (i > 0 && i % 4 == 0) timer.chargeContainment(0, 20);
            rig.log(aluRecord(), 0);
            seen.app_after_log.push_back(timer.producerTime(0));
        }
        seen.stall = timer.stats().backpressure_stall_cycles;
        seen.max_occupancy = timer.laneMaxOccupancy(0);
        seen.records = timer.laneRecords(0);
        seen.last_finish = timer.laneLastFinish(0);
    }
    {
        // External dispatch: one shard engine folded twice onto a
        // capacity-2 lane, so each record needs both slots at once.
        config.buffer_capacity = 2;
        PipelineTimer timer(hierarchy, config, 1u);
        lifeguard::DispatchEngine engine(guard, hierarchy, {1, 1});
        timer.log(0, aluRecord(), {{0, &engine}, {0, &engine}});
        seen.folded_app_after_log.push_back(timer.producerTime(0));
        timer.log(0, aluRecord(), {{0, &engine}, {0, &engine}});
        seen.folded_app_after_log.push_back(timer.producerTime(0));
        timer.log(0, aluRecord(), {{0, &engine}});
        seen.folded_app_after_log.push_back(timer.producerTime(0));
        seen.folded_stall = timer.stats().backpressure_stall_cycles;
        seen.folded_max_occupancy = timer.laneMaxOccupancy(0);
        seen.folded_records = timer.laneRecords(0);
        seen.folded_last_finish = timer.laneLastFinish(0);
    }
    return seen;
}

TEST(PipelineTimer, FinishRingWrapsWithExactStalls)
{
    // Log-time consumption (batched) and queued consumption (fused:
    // this lifeguard has no IR, so the queue drains through its handler
    // table) must wrap identically.
    for (DispatchTier tier : {DispatchTier::kBatched, DispatchTier::kFused}) {
        SCOPED_TRACE(tier == DispatchTier::kBatched ? "batched" : "fused");
        WrapObservation seen = runWrapAround(tier);
        // Records finish every 11 cycles (11, 22, ..., 132). Record i
        // waits for the slot record i-3 held to free: records 3, 6, 7,
        // 10 and 11 stall 11 cycles each, records 5 and 9 only 2 (the
        // 20-cycle advance covered the rest), records 4 and 8 not at
        // all.
        const std::vector<Cycles> app_after_log = {
            0, 0, 0, 11, 31, 33, 44, 55, 75, 77, 88, 99};
        EXPECT_EQ(seen.app_after_log, app_after_log);
        EXPECT_EQ(seen.stall, 59u); // 99 = 40 advanced + 59 stalled
        EXPECT_EQ(seen.max_occupancy, 3u);
        EXPECT_EQ(seen.records, 12u);
        EXPECT_EQ(seen.last_finish, 132u);
        // Folded lane: the first record's two consumptions finish at
        // 11 and 22; the second waits for both slots (stall 22) and
        // finishes at 33 and 44; the third needs one slot, freed at
        // 33 (stall 11), and finishes at 55.
        const std::vector<Cycles> folded_app_after_log = {0, 22, 33};
        EXPECT_EQ(seen.folded_app_after_log, folded_app_after_log);
        EXPECT_EQ(seen.folded_stall, 33u);
        EXPECT_EQ(seen.folded_max_occupancy, 2u);
        EXPECT_EQ(seen.folded_records, 5u);
        EXPECT_EQ(seen.folded_last_finish, 55u);
    }
}

/** What the multi-record-retirement scenario below observes. */
struct SqueezeObservation
{
    Cycles stall = 0;
    std::uint64_t max_occupancy = 0;
    Cycles last_finish = 0;
    std::uint64_t records = 0;
    std::uint64_t batches = 0;
};

SqueezeObservation
runSyscallSqueeze(DispatchTier tier)
{
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.dispatch_tier = tier;
    config.buffer_capacity = 4;
    FixedCostLifeguard guard(10); // consume cost = 11
    Rig rig(hierarchy, config, {&guard});
    PipelineTimer& timer = rig.timer;
    // Six retirements, each a syscall that logs its own record plus
    // three annotations: after the first, every record of a retirement
    // finds the four-slot ring full of consumed records.
    sim::Retired retired;
    for (int i = 0; i < 6; ++i) {
        retired.pc = 0x1000 + 8 * static_cast<Addr>(i);
        timer.retire(retired);
        log::EventRecord syscall = aluRecord(retired.pc);
        syscall.type = log::EventType::kSyscall;
        rig.log(syscall, 0);
        for (int a = 0; a < 3; ++a) {
            rig.log(allocRecord(0x10000000 + 64 * static_cast<Addr>(a), 64),
                    0);
        }
    }
    rig.finish();
    SqueezeObservation seen;
    seen.stall = timer.stats().backpressure_stall_cycles;
    seen.max_occupancy = timer.laneMaxOccupancy(0);
    seen.last_finish = timer.laneLastFinish(0);
    lifeguard::DispatchStats dispatch = rig.dispatchStats(0);
    seen.records = dispatch.records;
    seen.batches = dispatch.batches;
    return seen;
}

TEST(PipelineTimer, SqueezePopsKnownFinishTimesWithoutFlushing)
{
    // A squeeze frees the lane's oldest slots, whose finish times the
    // ring already holds, so it needs no flush: the retirement's four
    // records queue as one batch on the fused tier, while the stalls
    // stay exactly those of serial batched dispatch, which consumes
    // each record as it is logged.
    SqueezeObservation immediate = runSyscallSqueeze(DispatchTier::kBatched);
    EXPECT_EQ(immediate.records, 24u);
    EXPECT_EQ(immediate.batches, 0u);
    EXPECT_GT(immediate.stall, 0u);
    EXPECT_EQ(immediate.max_occupancy, 4u);
    SqueezeObservation fused = runSyscallSqueeze(DispatchTier::kFused);
    EXPECT_EQ(fused.stall, immediate.stall);
    EXPECT_EQ(fused.max_occupancy, immediate.max_occupancy);
    EXPECT_EQ(fused.last_finish, immediate.last_finish);
    EXPECT_EQ(fused.records, 24u);
    // One batch per retirement: 4 records per batch. A flush at every
    // squeeze would split each full-ring retirement into 4 batches of
    // 1 (21 batches, 1.14 records per batch).
    EXPECT_EQ(fused.batches, 6u);
}

TEST(PipelineTimer, BroadcastReservesASlotInEveryLane)
{
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    FixedCostLifeguard a(2), b(7);
    Rig rig(hierarchy, config, {&a, &b});
    PipelineTimer& timer = rig.timer;

    rig.broadcast(allocRecord(0x10000000, 64));
    // One logical record, one slot (and one consumption) per lane.
    EXPECT_EQ(timer.stats().records_logged, 1u);
    EXPECT_EQ(timer.laneRecords(0), 1u);
    EXPECT_EQ(timer.laneRecords(1), 1u);
    // Each lane's clock advances by its own consume cost.
    EXPECT_EQ(timer.laneLastFinish(0), 3u);
    EXPECT_EQ(timer.laneLastFinish(1), 8u);
}

TEST(PipelineTimer, FilterDropsBeforeAnyAccounting)
{
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.filter_enabled = true;
    config.filter_base = 0x10000000;
    config.filter_bytes = 4096;
    config.compress = false;
    config.raw_record_bytes = 8;
    config.transport_bytes_per_cycle = 1.0;
    FixedCostLifeguard guard(0);
    Rig rig(hierarchy, config, {&guard});
    PipelineTimer& timer = rig.timer;

    log::EventRecord out_of_range;
    out_of_range.type = log::EventType::kLoad;
    out_of_range.addr = 0x2000; // below the filter window
    EXPECT_FALSE(rig.log(out_of_range, 0));
    EXPECT_EQ(timer.stats().records_filtered, 1u);
    EXPECT_EQ(timer.stats().records_logged, 0u);
    EXPECT_EQ(timer.stats().transport_bytes, 0.0);
    EXPECT_EQ(timer.laneRecords(0), 0u);

    log::EventRecord in_range;
    in_range.type = log::EventType::kLoad;
    in_range.addr = 0x10000010;
    EXPECT_TRUE(rig.log(in_range, 0));
    EXPECT_EQ(timer.stats().records_logged, 1u);
    EXPECT_EQ(timer.stats().transport_bytes, 8.0);
}

TEST(PipelineTimer, MultiProducerSharedLaneSerializes)
{
    // Two producers (apps on cores 0 and 2) share one lane (core 1)
    // through log()'s explicit targets: the lane serializes their
    // records, each producer keeps its own clock, lag and busy slice.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    config.compress = false;
    PipelineTimer timer(hierarchy, config, 1u);
    unsigned p1 = timer.addProducer(2);
    EXPECT_EQ(p1, 1u);
    EXPECT_EQ(timer.producers(), 2u);

    // Consume costs 3 and 6; finish passes cost 1 and 2.
    FixedCostLifeguard cheap(2, 1), dear(5, 2);
    lifeguard::DispatchConfig dc{1, 1};
    lifeguard::DispatchEngine engine_a(cheap, hierarchy, dc);
    lifeguard::DispatchEngine engine_b(dear, hierarchy, dc);

    // P0 consumes [0,3); P1's record, produced at 0, queues behind it:
    // start 3, finish 9.
    timer.log(0, aluRecord(), {{0, &engine_a}});
    timer.log(1, aluRecord(), {{0, &engine_b}});
    EXPECT_EQ(timer.laneLastFinish(0), 9u);
    EXPECT_EQ(timer.laneRecords(0), 2u);

    // The final passes serialize on the shared lane too: P0's ends at
    // 9 + 1, P1's at 10 + 2.
    timer.finishShard(0, 0, engine_a);
    timer.finishShard(1, 0, engine_b);
    timer.seal();

    EXPECT_EQ(timer.producerStats(0).total_cycles, 10u);
    EXPECT_EQ(timer.producerStats(1).total_cycles, 12u);
    // P0's record never waited; P1's waited 3 cycles behind P0's.
    EXPECT_DOUBLE_EQ(timer.producerStats(0).mean_consume_lag, 0.0);
    EXPECT_DOUBLE_EQ(timer.producerStats(1).mean_consume_lag, 3.0);
    EXPECT_EQ(timer.producerStats(0).lifeguard_busy_cycles, 4u);
    EXPECT_EQ(timer.producerStats(1).lifeguard_busy_cycles, 8u);
    EXPECT_EQ(timer.producerStats(0).records_logged, 1u);
    EXPECT_EQ(timer.producerStats(1).records_logged, 1u);
    // Aggregates sum both producers; the lane's busy time is the sum
    // of both engines' work.
    EXPECT_EQ(timer.stats().records_logged, 2u);
    EXPECT_EQ(timer.stats().lifeguard_busy_cycles, 12u);
    EXPECT_EQ(timer.stats().total_cycles, 12u);
    EXPECT_DOUBLE_EQ(timer.stats().mean_consume_lag, 1.5);
}

TEST(PipelineTimer, MultiProducerIndependentDrains)
{
    // A containment drain stalls only the producer whose records are
    // outstanding: P0's syscall waits for P0's record, not P1's
    // backlog.
    mem::CacheHierarchy hierarchy(cores(3));
    LbaConfig config;
    PipelineTimer timer(hierarchy, config, 1u);
    timer.addProducer(2);

    FixedCostLifeguard cheap(2), dear(40); // costs 3 and 41
    lifeguard::DispatchConfig dc{1, 1};
    lifeguard::DispatchEngine engine_a(cheap, hierarchy, dc);
    lifeguard::DispatchEngine engine_b(dear, hierarchy, dc);

    // P0's record finishes at 3; P1's queues behind it until 44.
    timer.log(0, aluRecord(), {{0, &engine_a}});
    timer.log(1, aluRecord(), {{0, &engine_b}});

    timer.noteSyscall(0);
    sim::Retired retired;
    retired.pc = 0x1000;
    timer.retire(0, retired);
    // P0 drains to its own record's finish (3), not to P1's 44.
    EXPECT_EQ(timer.producerStats(0).syscall_stall_cycles, 3u);
    EXPECT_EQ(timer.producerStats(0).syscall_drains, 1u);
    EXPECT_EQ(timer.producerStats(1).syscall_drains, 0u);
}

#ifndef LBA_TSAN_BUILD

/**
 * Threaded-mode coordinator confinement: the runtime twin of the
 * LBA_COORDINATOR_ONLY annotations (docs/STATIC_ANALYSIS.md). A
 * foreign thread touching a mutating entry point must trap in
 * assertCoordinator() — these tests pin the trap's existence and its
 * message, which tools/lba_lint.py keeps paired with the annotations.
 */
class PipelineTimerDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The threaded timer is multithreaded before the death
        // statement runs; fork-after-spawn needs the threadsafe style
        // (re-exec) to be reliable.
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

TEST_F(PipelineTimerDeathTest, OffCoordinatorRetireTraps)
{
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.execution = ExecutionMode::kThreaded;
    FixedCostLifeguard guard(0);
    Rig rig(hierarchy, config, {&guard});
    sim::Retired retired;
    retired.pc = 0x1000;
    EXPECT_DEATH(std::thread([&] { rig.timer.retire(0, retired); }).join(),
                 "off the coordinating thread");
}

TEST_F(PipelineTimerDeathTest, OffCoordinatorLogTraps)
{
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.execution = ExecutionMode::kThreaded;
    FixedCostLifeguard guard(0);
    Rig rig(hierarchy, config, {&guard});
    EXPECT_DEATH(std::thread([&] { rig.log(aluRecord(), 0); }).join(),
                 "off the coordinating thread");
}

TEST_F(PipelineTimerDeathTest, OffCoordinatorSyncTraps)
{
    mem::CacheHierarchy hierarchy(cores(2));
    LbaConfig config;
    config.execution = ExecutionMode::kThreaded;
    FixedCostLifeguard guard(0);
    Rig rig(hierarchy, config, {&guard});
    EXPECT_DEATH(std::thread([&] { rig.timer.sync(); }).join(),
                 "off the coordinating thread");
}

#endif // LBA_TSAN_BUILD

} // namespace
} // namespace lba::core
