/**
 * @file
 * Differential proof of the batched handler-table dispatch path: for
 * the same program and configuration, `dispatch_tier = kBatched` (the
 * default: records drained in batches through the per-event-type
 * handler tables) must be cycle-identical — every stat, every finding
 * — to `dispatch_tier = kPerRecord` (each record consumed through the
 * same tables the moment it is logged), across the serial system, the
 * parallel system with shards in {1, 2, 4}, a one-tenant pool, and a
 * containment run that actually rewinds. This is the invariant that
 * makes moving flush boundaries safe: any model drift between
 * immediate and deferred consumption is a test failure here, not a
 * silent fork.
 */

#include <gtest/gtest.h>

#include "core/runner.h"
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
expectStatsEqual(const LbaRunStats& batched, const LbaRunStats& record)
{
    EXPECT_EQ(batched.app_instructions, record.app_instructions);
    EXPECT_EQ(batched.records_logged, record.records_logged);
    EXPECT_EQ(batched.records_filtered, record.records_filtered);
    EXPECT_EQ(batched.total_cycles, record.total_cycles);
    EXPECT_EQ(batched.app_cycles, record.app_cycles);
    EXPECT_EQ(batched.backpressure_stall_cycles,
              record.backpressure_stall_cycles);
    EXPECT_EQ(batched.syscall_stall_cycles, record.syscall_stall_cycles);
    EXPECT_EQ(batched.lifeguard_busy_cycles,
              record.lifeguard_busy_cycles);
    EXPECT_EQ(batched.bytes_per_record, record.bytes_per_record);
    EXPECT_EQ(batched.mean_consume_lag, record.mean_consume_lag);
    EXPECT_EQ(batched.syscall_drains, record.syscall_drains);
    EXPECT_EQ(batched.transport_bytes, record.transport_bytes);
    EXPECT_EQ(batched.transport_wait_cycles,
              record.transport_wait_cycles);
    EXPECT_EQ(batched.containment_cycles, record.containment_cycles);
}

void
expectFindingsEqual(const std::vector<lifeguard::Finding>& batched,
                    const std::vector<lifeguard::Finding>& record)
{
    ASSERT_EQ(batched.size(), record.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
        EXPECT_EQ(batched[i].kind, record[i].kind);
        EXPECT_EQ(batched[i].pc, record[i].pc);
        EXPECT_EQ(batched[i].addr, record[i].addr);
        EXPECT_EQ(batched[i].tid, record[i].tid);
        EXPECT_EQ(batched[i].message, record[i].message);
    }
}

/** Serial LBA: batched vs per-record on the same configuration. */
void
expectSerialIdentical(const workload::GeneratedProgram& gen,
                      const LifeguardFactory& factory, LbaConfig lba)
{
    Experiment exp(gen.program);
    lba.dispatch_tier = DispatchTier::kBatched;
    PlatformResult batched = exp.runLba(factory, lba);
    lba.dispatch_tier = DispatchTier::kPerRecord;
    PlatformResult record = exp.runLba(factory, lba);

    EXPECT_EQ(batched.cycles, record.cycles);
    expectStatsEqual(batched.lba, record.lba);
    expectFindingsEqual(batched.findings, record.findings);
}

TEST(DispatchBatch, SerialAddrCheckDefaultConfig)
{
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    expectSerialIdentical(gen, addrcheck(), LbaConfig{});
}

TEST(DispatchBatch, SerialAddrCheckConstrainedConfig)
{
    // Tiny buffer + fractional transport + filtering: back-pressure
    // flushes, transport ceilings and the filter all active, so the
    // deferred queue hits every flush boundary.
    auto gen = makeProgram("mcf", 40000);
    LbaConfig lba;
    lba.buffer_capacity = 64;
    lba.filter_enabled = true;
    lba.filter_base = 0x10000000;
    lba.filter_bytes = 64ull << 20;
    lba.transport_bytes_per_cycle = 0.75;
    expectSerialIdentical(gen, addrcheck(), lba);
}

TEST(DispatchBatch, SerialTaintCheck)
{
    workload::BugInjection bugs;
    bugs.tainted_jump = true;
    auto gen = workload::generate(*workload::findProfile("gzip"), bugs,
                                  40000);
    expectSerialIdentical(
        gen, [] { return std::make_unique<lifeguards::TaintCheck>(); },
        LbaConfig{});
}

TEST(DispatchBatch, SerialLockSetUncompressed)
{
    auto gen = makeProgram("water", 40000);
    LbaConfig lba;
    lba.compress = false;
    lba.transport_bytes_per_cycle = 6.0;
    expectSerialIdentical(
        gen, [] { return std::make_unique<lifeguards::LockSet>(); },
        lba);
}

TEST(DispatchBatch, ParallelShards124)
{
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    for (unsigned shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(shards);
        ParallelLbaConfig config(LbaConfig{}, shards);
        config.dispatch_tier = DispatchTier::kBatched;
        PlatformResult batched = exp.runParallelLba(addrcheck(), config);
        config.dispatch_tier = DispatchTier::kPerRecord;
        PlatformResult record = exp.runParallelLba(addrcheck(), config);

        EXPECT_EQ(batched.cycles, record.cycles);
        expectStatsEqual(batched.parallel, record.parallel);
        expectFindingsEqual(batched.findings, record.findings);
        for (unsigned s = 0; s < shards; ++s) {
            SCOPED_TRACE(s);
            EXPECT_EQ(batched.parallel.shard_busy_cycles[s],
                      record.parallel.shard_busy_cycles[s]);
            EXPECT_EQ(batched.parallel.shard_records[s],
                      record.parallel.shard_records[s]);
            EXPECT_EQ(batched.parallel.shard_consume_lag[s],
                      record.parallel.shard_consume_lag[s]);
            EXPECT_EQ(batched.parallel.shard_transport_bytes[s],
                      record.parallel.shard_transport_bytes[s]);
            EXPECT_EQ(batched.parallel.shard_transport_wait_cycles[s],
                      record.parallel.shard_transport_wait_cycles[s]);
            EXPECT_EQ(batched.parallel.shard_max_occupancy[s],
                      record.parallel.shard_max_occupancy[s]);
        }
    }
}

TEST(DispatchBatch, OneTenantPool)
{
    auto gen = makeProgram("gzip", 40000);
    sched::PoolConfig config;
    config.lanes = 2;
    config.lba.buffer_capacity = 256;
    config.lba.transport_bytes_per_cycle = 1.5;

    config.lba.dispatch_tier = DispatchTier::kBatched;
    sched::LifeguardPool batched_pool(config, addrcheck());
    batched_pool.addTenant({"solo", gen.program, {}, 0.0});
    sched::PoolResult batched = batched_pool.run();

    config.lba.dispatch_tier = DispatchTier::kPerRecord;
    sched::LifeguardPool record_pool(config, addrcheck());
    record_pool.addTenant({"solo", gen.program, {}, 0.0});
    sched::PoolResult record = record_pool.run();

    EXPECT_EQ(batched.total_cycles, record.total_cycles);
    expectStatsEqual(batched.aggregate, record.aggregate);
    ASSERT_EQ(batched.tenants.size(), 1u);
    ASSERT_EQ(record.tenants.size(), 1u);
    EXPECT_EQ(batched.tenants[0].total_cycles,
              record.tenants[0].total_cycles);
    EXPECT_EQ(batched.tenants[0].lag_p95, record.tenants[0].lag_p95);
    expectStatsEqual(batched.tenants[0].lba, record.tenants[0].lba);
    expectFindingsEqual(batched.tenants[0].findings,
                        record.tenants[0].findings);
}

TEST(DispatchBatch, ContainmentRewindsIdentically)
{
    // Detection latency must not depend on the dispatch mode: a
    // use-after-free caught under containment rewinds at the same
    // retirement, the same distance, for the same total cost.
    auto gen = makeProgram("bc", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    replay::ContainmentConfig containment;
    containment.enabled = true;
    containment.policy = replay::RepairPolicy::kQuarantine;

    LbaConfig lba;
    lba.dispatch_tier = DispatchTier::kBatched;
    PlatformResult batched = exp.runLba(addrcheck(), lba, containment);
    lba.dispatch_tier = DispatchTier::kPerRecord;
    PlatformResult record = exp.runLba(addrcheck(), lba, containment);

    ASSERT_TRUE(batched.containment_enabled);
    EXPECT_GE(batched.containment.rewinds, 1u);
    EXPECT_EQ(batched.cycles, record.cycles);
    EXPECT_EQ(batched.containment.rewinds, record.containment.rewinds);
    EXPECT_EQ(batched.containment.rewound_instructions,
              record.containment.rewound_instructions);
    EXPECT_EQ(batched.containment.max_rewind_distance,
              record.containment.max_rewind_distance);
    EXPECT_EQ(batched.containment.rewind_cycles,
              record.containment.rewind_cycles);
    expectStatsEqual(batched.lba, record.lba);
    expectFindingsEqual(batched.findings, record.findings);
}

TEST(DispatchBatch, BatchedPathActuallyBatches)
{
    // Sanity: the default path goes through consumeBatch (batches > 0)
    // and the per-record path never does — so the differentials above
    // really compare the two implementations.
    auto gen = makeProgram("gzip", 20000);

    auto run = [&](DispatchTier tier) {
        LbaConfig lba;
        lba.dispatch_tier = tier;
        mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
        lifeguards::AddrCheck guard;
        LbaSystem system(guard, hierarchy, lba);
        sim::Process process{sim::ProcessConfig{}};
        process.load(gen.program);
        process.run(&system);
        system.finish();
        return system.dispatchStats().batches;
    };

    EXPECT_GT(run(DispatchTier::kBatched), 0u);
    EXPECT_EQ(run(DispatchTier::kPerRecord), 0u);
}

} // namespace
} // namespace lba::core
