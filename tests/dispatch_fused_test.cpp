/**
 * @file
 * Differential proof of the fused dispatch tier: for the same program
 * and configuration, `dispatch_tier = kFused` (records queued and
 * drained at flush boundaries through compiled handler IR —
 * lifeguard/compiler.h) must be cycle-identical — every stat, every
 * finding — to `kBatched` (serial: each record consumed through the
 * handler table as it is logged), across the serial system, the
 * parallel system with shards in {1, 2, 4}, a one-tenant pool, a
 * containment run that actually rewinds, and threaded host execution.
 * This is the invariant that makes the fastest tier safe, and moving
 * flush boundaries with it: any model drift between the compiled loops
 * and the handler bodies, or between queued and immediate consumption,
 * is a test failure here, not a silent fork.
 */

#include <gtest/gtest.h>

#include "core/runner.h"
#include "lifeguard/dispatch.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/lockset.h"
#include "lifeguards/taintcheck.h"
#include "sched/pool.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::core {
namespace {

LifeguardFactory
addrcheck()
{
    return [] { return std::make_unique<lifeguards::AddrCheck>(); };
}

workload::GeneratedProgram
makeProgram(const char* profile, std::uint64_t instrs,
            bool with_bugs = false)
{
    workload::BugInjection bugs;
    if (with_bugs) {
        bugs.use_after_free = true;
        bugs.leak = true;
    }
    return workload::generate(*workload::findProfile(profile), bugs,
                              instrs);
}

void
expectStatsEqual(const LbaRunStats& fused, const LbaRunStats& other)
{
    EXPECT_EQ(fused.app_instructions, other.app_instructions);
    EXPECT_EQ(fused.records_logged, other.records_logged);
    EXPECT_EQ(fused.records_filtered, other.records_filtered);
    EXPECT_EQ(fused.total_cycles, other.total_cycles);
    EXPECT_EQ(fused.app_cycles, other.app_cycles);
    EXPECT_EQ(fused.backpressure_stall_cycles,
              other.backpressure_stall_cycles);
    EXPECT_EQ(fused.syscall_stall_cycles, other.syscall_stall_cycles);
    EXPECT_EQ(fused.lifeguard_busy_cycles, other.lifeguard_busy_cycles);
    EXPECT_EQ(fused.bytes_per_record, other.bytes_per_record);
    EXPECT_EQ(fused.mean_consume_lag, other.mean_consume_lag);
    EXPECT_EQ(fused.syscall_drains, other.syscall_drains);
    EXPECT_EQ(fused.transport_bytes, other.transport_bytes);
    EXPECT_EQ(fused.transport_wait_cycles, other.transport_wait_cycles);
    EXPECT_EQ(fused.containment_cycles, other.containment_cycles);
}

void
expectFindingsEqual(const std::vector<lifeguard::Finding>& fused,
                    const std::vector<lifeguard::Finding>& other)
{
    ASSERT_EQ(fused.size(), other.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
        EXPECT_EQ(fused[i].kind, other[i].kind);
        EXPECT_EQ(fused[i].pc, other[i].pc);
        EXPECT_EQ(fused[i].addr, other[i].addr);
        EXPECT_EQ(fused[i].tid, other[i].tid);
        EXPECT_EQ(fused[i].message, other[i].message);
    }
}

/** Serial LBA: fused (queued) vs batched (log-time) on one config. */
void
expectSerialIdentical(const workload::GeneratedProgram& gen,
                      const LifeguardFactory& factory, LbaConfig lba)
{
    Experiment exp(gen.program);
    lba.dispatch_tier = DispatchTier::kFused;
    PlatformResult fused = exp.runLba(factory, lba);
    lba.dispatch_tier = DispatchTier::kBatched;
    PlatformResult batched = exp.runLba(factory, lba);

    EXPECT_EQ(fused.cycles, batched.cycles);
    expectStatsEqual(fused.lba, batched.lba);
    expectFindingsEqual(fused.findings, batched.findings);
}

TEST(DispatchFused, SerialAddrCheckDefaultConfig)
{
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    expectSerialIdentical(gen, addrcheck(), LbaConfig{});
}

TEST(DispatchFused, SerialAddrCheckConstrainedConfig)
{
    // Tiny buffer + fractional transport + filtering: back-pressure
    // flushes, transport ceilings and the filter all active, so the
    // fused drain sees every flush boundary — including mid-batch run
    // breaks where the rangeExit op and the heap kernel alternate.
    auto gen = makeProgram("mcf", 40000);
    LbaConfig lba;
    lba.buffer_capacity = 64;
    lba.filter_enabled = true;
    lba.filter_base = 0x10000000;
    lba.filter_bytes = 64ull << 20;
    lba.transport_bytes_per_cycle = 0.75;
    expectSerialIdentical(gen, addrcheck(), lba);
}

TEST(DispatchFused, SerialTaintCheck)
{
    workload::BugInjection bugs;
    bugs.tainted_jump = true;
    auto gen = workload::generate(*workload::findProfile("gzip"), bugs,
                                  40000);
    expectSerialIdentical(
        gen, [] { return std::make_unique<lifeguards::TaintCheck>(); },
        LbaConfig{});
}

TEST(DispatchFused, SerialLockSetUncompressed)
{
    auto gen = makeProgram("water", 40000);
    LbaConfig lba;
    lba.compress = false;
    lba.transport_bytes_per_cycle = 6.0;
    expectSerialIdentical(
        gen, [] { return std::make_unique<lifeguards::LockSet>(); },
        lba);
}

TEST(DispatchFused, ParallelShards124)
{
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    for (unsigned shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(shards);
        ParallelLbaConfig config(LbaConfig{}, shards);
        config.dispatch_tier = DispatchTier::kFused;
        PlatformResult fused = exp.runParallelLba(addrcheck(), config);
        config.dispatch_tier = DispatchTier::kBatched;
        PlatformResult batched = exp.runParallelLba(addrcheck(), config);

        EXPECT_EQ(fused.cycles, batched.cycles);
        expectStatsEqual(fused.parallel, batched.parallel);
        expectFindingsEqual(fused.findings, batched.findings);
        for (unsigned s = 0; s < shards; ++s) {
            SCOPED_TRACE(s);
            EXPECT_EQ(fused.parallel.shard_busy_cycles[s],
                      batched.parallel.shard_busy_cycles[s]);
            EXPECT_EQ(fused.parallel.shard_records[s],
                      batched.parallel.shard_records[s]);
            EXPECT_EQ(fused.parallel.shard_consume_lag[s],
                      batched.parallel.shard_consume_lag[s]);
            EXPECT_EQ(fused.parallel.shard_transport_bytes[s],
                      batched.parallel.shard_transport_bytes[s]);
            EXPECT_EQ(fused.parallel.shard_transport_wait_cycles[s],
                      batched.parallel.shard_transport_wait_cycles[s]);
            EXPECT_EQ(fused.parallel.shard_max_occupancy[s],
                      batched.parallel.shard_max_occupancy[s]);
        }
    }
}

TEST(DispatchFused, OneTenantPool)
{
    auto gen = makeProgram("gzip", 40000);
    sched::PoolConfig config;
    config.lanes = 2;
    config.lba.buffer_capacity = 256;
    config.lba.transport_bytes_per_cycle = 1.5;

    config.lba.dispatch_tier = DispatchTier::kFused;
    sched::LifeguardPool fused_pool(config, addrcheck());
    fused_pool.addTenant({"solo", gen.program, {}, 0.0});
    sched::PoolResult fused = fused_pool.run();

    config.lba.dispatch_tier = DispatchTier::kBatched;
    sched::LifeguardPool batched_pool(config, addrcheck());
    batched_pool.addTenant({"solo", gen.program, {}, 0.0});
    sched::PoolResult batched = batched_pool.run();

    EXPECT_EQ(fused.total_cycles, batched.total_cycles);
    expectStatsEqual(fused.aggregate, batched.aggregate);
    ASSERT_EQ(fused.tenants.size(), 1u);
    ASSERT_EQ(batched.tenants.size(), 1u);
    EXPECT_EQ(fused.tenants[0].total_cycles,
              batched.tenants[0].total_cycles);
    EXPECT_EQ(fused.tenants[0].lag_p95, batched.tenants[0].lag_p95);
    expectStatsEqual(fused.tenants[0].lba, batched.tenants[0].lba);
    expectFindingsEqual(fused.tenants[0].findings,
                        batched.tenants[0].findings);
}

TEST(DispatchFused, ContainmentRewindsIdentically)
{
    // Detection latency must not depend on the dispatch tier: a
    // use-after-free caught under containment rewinds at the same
    // retirement, the same distance, for the same total cost.
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    replay::ContainmentConfig containment;
    containment.enabled = true;
    containment.policy = replay::RepairPolicy::kQuarantine;

    LbaConfig lba;
    lba.dispatch_tier = DispatchTier::kFused;
    PlatformResult fused = exp.runLba(addrcheck(), lba, containment);
    lba.dispatch_tier = DispatchTier::kBatched;
    PlatformResult batched = exp.runLba(addrcheck(), lba, containment);

    ASSERT_TRUE(fused.containment_enabled);
    EXPECT_GE(fused.containment.rewinds, 1u);
    EXPECT_EQ(fused.cycles, batched.cycles);
    EXPECT_EQ(fused.containment.rewinds, batched.containment.rewinds);
    EXPECT_EQ(fused.containment.rewound_instructions,
              batched.containment.rewound_instructions);
    EXPECT_EQ(fused.containment.max_rewind_distance,
              batched.containment.max_rewind_distance);
    EXPECT_EQ(fused.containment.rewind_cycles,
              batched.containment.rewind_cycles);
    expectStatsEqual(fused.lba, batched.lba);
    expectFindingsEqual(fused.findings, batched.findings);
}

TEST(DispatchFused, ThreadedExecutionIdentical)
{
    // The deferred-execute variant: fused drains on worker threads
    // (consumeBatchFusedDeferred) must replay to the same cycles as
    // serial fused — and as serial batched, which consumes at log time.
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    LbaConfig lba;
    lba.dispatch_tier = DispatchTier::kFused;
    lba.execution = ExecutionMode::kThreaded;
    PlatformResult threaded = exp.runLba(addrcheck(), lba);
    lba.execution = ExecutionMode::kSerial;
    PlatformResult serial = exp.runLba(addrcheck(), lba);
    lba.dispatch_tier = DispatchTier::kBatched;
    PlatformResult batched = exp.runLba(addrcheck(), lba);

    EXPECT_EQ(threaded.cycles, serial.cycles);
    EXPECT_EQ(threaded.cycles, batched.cycles);
    expectStatsEqual(threaded.lba, serial.lba);
    expectStatsEqual(threaded.lba, batched.lba);
    expectFindingsEqual(threaded.findings, serial.findings);
    expectFindingsEqual(threaded.findings, batched.findings);
}

/** Table-style lifeguard without an IR description (fallback check). */
class TableOnlyCounter : public lifeguard::Lifeguard
{
  public:
    TableOnlyCounter()
    {
        onEvent<&TableOnlyCounter::onLoad>(log::EventType::kLoad);
    }

    const char* name() const override { return "TableOnlyCounter"; }

    void
    onLoad(const log::EventRecord&, lifeguard::CostSink& cost)
    {
        cost.instrs(3);
        ++loads_;
    }

    std::uint64_t loads() const { return loads_; }

  private:
    std::uint64_t loads_ = 0;
};

TEST(DispatchFused, FusedPathActuallyFuses)
{
    // Sanity for the differentials above: the IR-described lifeguards
    // really compile (fused runs exercise the compiled loops, not the
    // table fallback), and the fused tier counts its batches.
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    lifeguards::AddrCheck guard;
    lifeguard::DispatchEngine engine(guard, hierarchy);
    EXPECT_TRUE(engine.fusedTierCompiled());

    std::vector<log::EventRecord> records(64);
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i].type = log::EventType::kLoad;
        records[i].addr = 0x10000000 + i * 8;
    }
    engine.assumeFunctionalOwner();
    Cycles total =
        engine.consumeBatchFused(records.data(), records.size());
    EXPECT_GT(total, 0u);
    EXPECT_EQ(engine.stats().records, records.size());
    EXPECT_EQ(engine.stats().batches, 1u);
}

TEST(DispatchFused, LegacyLifeguardFallsBackToBatched)
{
    // A lifeguard without an IR description stays on the batched tier
    // transparently: consumeBatchFused == consumeBatch, byte for byte.
    std::vector<log::EventRecord> records(32);
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i].type = (i % 2 == 0) ? log::EventType::kLoad
                                       : log::EventType::kStore;
        records[i].addr = 0x1000 + i * 8;
    }

    // Separate hierarchies: each drain starts from cold caches.
    mem::CacheHierarchy fused_hierarchy(mem::HierarchyConfig{});
    TableOnlyCounter fused_guard;
    lifeguard::DispatchEngine fused(fused_guard, fused_hierarchy);
    EXPECT_FALSE(fused.fusedTierCompiled());
    std::vector<Cycles> fused_costs(records.size());
    fused.assumeFunctionalOwner();
    Cycles fused_total = fused.consumeBatchFused(
        records.data(), records.size(), fused_costs.data());

    mem::CacheHierarchy batched_hierarchy(mem::HierarchyConfig{});
    TableOnlyCounter batched_guard;
    lifeguard::DispatchEngine batched(batched_guard, batched_hierarchy);
    std::vector<Cycles> batched_costs(records.size());
    batched.assumeFunctionalOwner();
    Cycles batched_total = batched.consumeBatch(
        records.data(), records.size(), batched_costs.data());

    EXPECT_EQ(fused_total, batched_total);
    EXPECT_EQ(fused_costs, batched_costs);
    EXPECT_EQ(fused_guard.loads(), batched_guard.loads());
    EXPECT_EQ(fused.stats().batches, batched.stats().batches);
}

} // namespace
} // namespace lba::core
