/**
 * @file
 * Differential proof for the two MTE-cost-profile lifeguards:
 * BoundsCheck (constant-cost tag probes) and MemLeak (long-lived
 * shadow state plus decay sweeps) must be cycle-identical — every
 * stat, every finding — across the two dispatch tiers (batched, which
 * consumes each record as it is logged when serial, and fused, which
 * queues records for flush boundaries), across serial vs threaded host
 * execution, across
 * the parallel system with shards in {1, 2, 4}, on a one-tenant pool,
 * and under a containment run that actually rewinds. Mirrors
 * tests/dispatch_fused_test.cpp for the new guards, on the
 * server-shaped workloads they were built for (workload::serverSuite)
 * as well as the classic suite.
 *
 * Functional coverage rides along: BoundsCheck flags use-after-free
 * reads as tag mismatches, MemLeak flags untouched blocks as leak
 * suspects during sweeps and unfreed blocks as definite leaks at
 * finish, and containment routes leak-kind findings to quarantine
 * instead of patching the allocation site.
 */

#include <gtest/gtest.h>

#include "core/runner.h"
#include "lifeguard/dispatch.h"
#include "lifeguards/boundscheck.h"
#include "lifeguards/memleak.h"
#include "sched/pool.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace lba::core {
namespace {

LifeguardFactory
boundscheck()
{
    return [] { return std::make_unique<lifeguards::BoundsCheck>(); };
}

/** MemLeak tightened so suspects fire within a small test budget. */
LifeguardFactory
memleak()
{
    return [] {
        lifeguards::MemLeakConfig config;
        config.sweep_period = 16;
        config.stale_epochs = 32;
        return std::make_unique<lifeguards::MemLeak>(config);
    };
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

TEST(BoundsMemLeak, SerialBoundsOnRequestServing)
{
    auto gen = makeProgram("req_serve", 40000, /*with_bugs=*/true);
    expectSerialIdentical(gen, boundscheck(), LbaConfig{});
}

TEST(BoundsMemLeak, SerialBoundsConstrainedConfig)
{
    // Tiny buffer + fractional transport + filtering: every flush
    // boundary active, so the fused drain alternates the rangeExit op
    // and the tag-probe kernel across run breaks.
    auto gen = makeProgram("tidy", 40000);
    LbaConfig lba;
    lba.buffer_capacity = 64;
    lba.filter_enabled = true;
    lba.filter_base = 0x10000000;
    lba.filter_bytes = 64ull << 20;
    lba.transport_bytes_per_cycle = 0.75;
    expectSerialIdentical(gen, boundscheck(), lba);
}

TEST(BoundsMemLeak, SerialMemLeakOnRequestServing)
{
    auto gen = makeProgram("req_serve", 40000, /*with_bugs=*/true);
    expectSerialIdentical(gen, memleak(), LbaConfig{});
}

TEST(BoundsMemLeak, SerialMemLeakUncompressed)
{
    auto gen = makeProgram("req_churn", 40000, /*with_bugs=*/true);
    LbaConfig lba;
    lba.compress = false;
    lba.transport_bytes_per_cycle = 6.0;
    expectSerialIdentical(gen, memleak(), lba);
}

class BoundsMemLeakParallel
    : public ::testing::TestWithParam<const char*>
{
  protected:
    LifeguardFactory
    factory() const
    {
        return std::string(GetParam()) == "bounds" ? boundscheck()
                                                   : memleak();
    }
};

TEST_P(BoundsMemLeakParallel, Shards124FusedMatchesBatched)
{
    auto gen = makeProgram("req_serve", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    for (unsigned shards : {1u, 2u, 4u}) {
        SCOPED_TRACE(shards);
        ParallelLbaConfig config(LbaConfig{}, shards);
        config.dispatch_tier = DispatchTier::kFused;
        PlatformResult fused = exp.runParallelLba(factory(), config);
        config.dispatch_tier = DispatchTier::kBatched;
        PlatformResult batched = exp.runParallelLba(factory(), config);

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

TEST_P(BoundsMemLeakParallel, OneTenantPoolFusedMatchesBatched)
{
    auto gen = makeProgram("req_serve", 40000);
    sched::PoolConfig config;
    config.lanes = 2;
    config.lba.buffer_capacity = 256;
    config.lba.transport_bytes_per_cycle = 1.5;

    config.lba.dispatch_tier = DispatchTier::kFused;
    sched::LifeguardPool fused_pool(config, factory());
    fused_pool.addTenant({"solo", gen.program, {}, 0.0});
    sched::PoolResult fused = fused_pool.run();

    config.lba.dispatch_tier = DispatchTier::kBatched;
    sched::LifeguardPool batched_pool(config, factory());
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

TEST_P(BoundsMemLeakParallel, ThreadedExecutionIdentical)
{
    auto gen = makeProgram("req_serve", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    LbaConfig lba;
    lba.dispatch_tier = DispatchTier::kFused;
    lba.execution = ExecutionMode::kThreaded;
    PlatformResult threaded = exp.runLba(factory(), lba);
    lba.execution = ExecutionMode::kSerial;
    PlatformResult serial = exp.runLba(factory(), lba);
    lba.dispatch_tier = DispatchTier::kBatched;
    PlatformResult batched = exp.runLba(factory(), lba);

    EXPECT_EQ(threaded.cycles, serial.cycles);
    EXPECT_EQ(threaded.cycles, batched.cycles);
    expectStatsEqual(threaded.lba, serial.lba);
    expectStatsEqual(threaded.lba, batched.lba);
    expectFindingsEqual(threaded.findings, serial.findings);
    expectFindingsEqual(threaded.findings, batched.findings);
}

INSTANTIATE_TEST_SUITE_P(BothGuards, BoundsMemLeakParallel,
                         ::testing::Values("bounds", "memleak"));

TEST(BoundsMemLeak, BoundsContainmentRewindsIdentically)
{
    // A use-after-free read probes a retagged (tag 0) granule: the
    // mistag rewinds at the same retirement, the same distance, for
    // the same total cost on both batching tiers. (Only the UAF bug:
    // the leak injection skips every 64th free, which would leave the
    // 128th request's "freed" block live and mask the mistag.)
    workload::BugInjection uaf;
    uaf.use_after_free = true;
    auto gen = workload::generate(*workload::findProfile("req_serve"),
                                  uaf, 40000);
    Experiment exp(gen.program);
    replay::ContainmentConfig containment;
    containment.enabled = true;
    containment.policy = replay::RepairPolicy::kQuarantine;

    LbaConfig lba;
    lba.dispatch_tier = DispatchTier::kFused;
    PlatformResult fused = exp.runLba(boundscheck(), lba, containment);
    lba.dispatch_tier = DispatchTier::kBatched;
    PlatformResult batched =
        exp.runLba(boundscheck(), lba, containment);

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

TEST(BoundsMemLeak, ContainmentRoutesLeakFindingsToQuarantine)
{
    // A leak suspect's pc is the allocation site: patching (or
    // nopping) it would disable the allocator, so the kPatch policy
    // must fall through to quarantine for leak-kind findings — and
    // identically on both tiers.
    auto gen = makeProgram("req_serve", 40000, /*with_bugs=*/true);
    Experiment exp(gen.program);
    replay::ContainmentConfig containment;
    containment.enabled = true;
    containment.policy = replay::RepairPolicy::kPatch;

    LbaConfig lba;
    lba.dispatch_tier = DispatchTier::kFused;
    PlatformResult fused = exp.runLba(memleak(), lba, containment);
    lba.dispatch_tier = DispatchTier::kBatched;
    PlatformResult batched = exp.runLba(memleak(), lba, containment);

    ASSERT_TRUE(fused.containment_enabled);
    EXPECT_GE(fused.containment.rewinds, 1u);
    EXPECT_EQ(fused.containment.repairs.patched, 0u);
    EXPECT_GE(fused.containment.repairs.quarantined, 1u);
    EXPECT_EQ(fused.cycles, batched.cycles);
    EXPECT_EQ(fused.containment.rewinds, batched.containment.rewinds);
    EXPECT_EQ(fused.containment.repairs.quarantined,
              batched.containment.repairs.quarantined);
    expectStatsEqual(fused.lba, batched.lba);
    expectFindingsEqual(fused.findings, batched.findings);
}

TEST(BoundsMemLeak, BoundsDetectsUseAfterFreeCleanRunSilent)
{
    workload::BugInjection bugs;
    bugs.use_after_free = true;
    auto buggy = workload::generate(*workload::findProfile("req_serve"),
                                    bugs, 40000);
    Experiment buggy_exp(buggy.program);
    PlatformResult found = buggy_exp.runLba(boundscheck());
    std::size_t mistags = 0;
    for (const lifeguard::Finding& f : found.findings) {
        if (f.kind == lifeguard::FindingKind::kTagMismatch) ++mistags;
    }
    EXPECT_GE(mistags, 1u);

    auto clean = makeProgram("req_serve", 40000);
    Experiment clean_exp(clean.program);
    PlatformResult silent = clean_exp.runLba(boundscheck());
    EXPECT_TRUE(silent.findings.empty());
}

TEST(BoundsMemLeak, MemLeakFlagsStaleAndUnfreedBlocks)
{
    // The leak injection skips frees: those blocks go cold, so the
    // decay sweep flags them as suspects mid-run and finish() reports
    // them as definite leaks.
    workload::BugInjection bugs;
    bugs.leak = true;
    auto gen = workload::generate(*workload::findProfile("req_serve"),
                                  bugs, 60000);
    Experiment exp(gen.program);
    PlatformResult result = exp.runLba(memleak());
    std::size_t suspects = 0;
    std::size_t leaks = 0;
    for (const lifeguard::Finding& f : result.findings) {
        if (f.kind == lifeguard::FindingKind::kLeakSuspect) ++suspects;
        if (f.kind == lifeguard::FindingKind::kMemoryLeak) ++leaks;
    }
    EXPECT_GE(suspects, 1u);
    EXPECT_GE(leaks, 1u);
}

TEST(BoundsMemLeak, BothGuardsCompileForTheFusedTier)
{
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    lifeguards::BoundsCheck bounds;
    lifeguard::DispatchEngine bounds_engine(bounds, hierarchy);
    EXPECT_TRUE(bounds_engine.fusedTierCompiled());

    lifeguards::MemLeak leak;
    lifeguard::DispatchEngine leak_engine(leak, hierarchy);
    EXPECT_TRUE(leak_engine.fusedTierCompiled());
}

} // namespace
} // namespace lba::core
