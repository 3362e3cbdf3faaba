/**
 * @file
 * Tests for the lifeguard framework: findings, shadow memory, and the
 * dispatch engine's cost accounting.
 */

#include <gtest/gtest.h>

#include "lifeguard/compiler.h"
#include "lifeguard/dispatch.h"
#include "lifeguard/finding.h"
#include "lifeguard/ir.h"
#include "lifeguard/lifeguard.h"
#include "lifeguard/shadow_memory.h"

namespace lba::lifeguard {
namespace {

TEST(Finding, NamesAndFormatting)
{
    Finding f{FindingKind::kDoubleFree, 0x1000, 0x2000, 1, "oops"};
    std::string s = toString(f);
    EXPECT_NE(s.find("DoubleFree"), std::string::npos);
    EXPECT_NE(s.find("oops"), std::string::npos);
    EXPECT_NE(s.find("0x1000"), std::string::npos);
}

TEST(ShadowMemory, EntriesStartZero)
{
    ShadowMemory<std::uint8_t, 8> shadow;
    EXPECT_EQ(shadow.find(0x1234), nullptr);
    EXPECT_EQ(shadow.entry(0x1234), 0u);
    EXPECT_NE(shadow.find(0x1234), nullptr);
}

TEST(ShadowMemory, GranuleSharing)
{
    ShadowMemory<std::uint8_t, 8> shadow;
    shadow.entry(0x1000) = 0xff;
    // Same 8-byte granule.
    EXPECT_EQ(shadow.entry(0x1007), 0xff);
    // Next granule is fresh.
    EXPECT_EQ(shadow.entry(0x1008), 0u);
}

TEST(ShadowMemory, ShadowAddressesAreDenseAndDisjoint)
{
    ShadowMemory<std::uint8_t, 8> a(kShadowBase);
    ShadowMemory<std::uint32_t, 8> b(kShadowBase + 0x100000000ull);
    EXPECT_EQ(a.shadowAddr(0x1008) - a.shadowAddr(0x1000), 1u);
    EXPECT_EQ(b.shadowAddr(0x1008) - b.shadowAddr(0x1000), 4u);
    EXPECT_NE(a.shadowAddr(0), b.shadowAddr(0));
}

TEST(ShadowMemory, LargeStructEntries)
{
    struct Granule
    {
        std::uint8_t state;
        std::uint16_t owner;
        std::uint32_t lockset;
    };
    ShadowMemory<Granule, 8> shadow;
    shadow.entry(0x2000).state = 3;
    shadow.entry(0x2000).lockset = 99;
    EXPECT_EQ(shadow.find(0x2004)->state, 3u);
    EXPECT_EQ(shadow.find(0x2004)->lockset, 99u);
}

/** A lifeguard with a deterministic per-event cost, for dispatch tests
 *  (one handler registered for every event type). */
class FixedCostLifeguard : public Lifeguard
{
  public:
    FixedCostLifeguard()
    {
        for (std::size_t t = 0; t < log::kNumEventTypes; ++t) {
            onEvent<&FixedCostLifeguard::onAny>(
                static_cast<log::EventType>(t));
        }
    }

    const char* name() const override { return "FixedCost"; }

    void
    onAny(const log::EventRecord& record, CostSink& cost)
    {
        ++events;
        cost.instrs(5);
        if (record.type == log::EventType::kLoad) {
            cost.memAccess(0x4000000000ull + record.addr / 8, false);
        }
    }

    void finish(CostSink& cost) override { cost.instrs(100); }

    int events = 0;
};

TEST(Dispatch, ChargesDispatchPlusHandler)
{
    FixedCostLifeguard guard;
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    DispatchEngine engine(guard, hierarchy, {1, 1});

    log::EventRecord alu;
    alu.type = log::EventType::kIntAlu;
    // dispatch(1) + instrs(5) = 6.
    EXPECT_EQ(engine.consume(alu), 6u);
    EXPECT_EQ(guard.events, 1);
}

TEST(Dispatch, MetadataAccessGoesThroughCaches)
{
    FixedCostLifeguard guard;
    mem::HierarchyConfig hc;
    mem::CacheHierarchy hierarchy(hc);
    DispatchEngine engine(guard, hierarchy, {1, 1});

    log::EventRecord load;
    load.type = log::EventType::kLoad;
    load.addr = 0x20000;
    // First touch: dispatch(1) + instrs(5) + mem(1 + L2miss 106) = 113.
    Cycles cold = engine.consume(load);
    EXPECT_EQ(cold, 1 + 5 + 1 + hc.l2_hit_cycles + hc.mem_cycles);
    // Second touch: shadow line now in the lifeguard core's L1.
    Cycles warm = engine.consume(load);
    EXPECT_EQ(warm, 1 + 5 + 1);
}

TEST(Dispatch, StatsBrokenDownByType)
{
    FixedCostLifeguard guard;
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    DispatchEngine engine(guard, hierarchy, {1, 1});

    log::EventRecord alu;
    alu.type = log::EventType::kIntAlu;
    log::EventRecord store;
    store.type = log::EventType::kStore;
    engine.consume(alu);
    engine.consume(alu);
    engine.consume(store);
    const DispatchStats& s = engine.stats();
    EXPECT_EQ(s.records, 3u);
    EXPECT_EQ(
        s.records_by_type[static_cast<int>(log::EventType::kIntAlu)],
        2u);
    EXPECT_EQ(
        s.records_by_type[static_cast<int>(log::EventType::kStore)], 1u);
    EXPECT_GT(s.total_cycles, 0u);
}

TEST(Dispatch, FinishRunsLifeguardHook)
{
    FixedCostLifeguard guard;
    mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
    DispatchEngine engine(guard, hierarchy, {1, 1});
    EXPECT_EQ(engine.finish(), 100u);
}

TEST(Dispatch, LifeguardCoreIsConfigurable)
{
    FixedCostLifeguard guard;
    mem::HierarchyConfig hc;
    hc.num_cores = 4;
    mem::CacheHierarchy hierarchy(hc);
    DispatchEngine engine(guard, hierarchy, {1, 3});

    log::EventRecord load;
    load.type = log::EventType::kLoad;
    load.addr = 0x20000;
    engine.consume(load);
    // The metadata access must have hit core 3's L1D, not core 1's.
    EXPECT_EQ(hierarchy.l1d(3).stats().accesses(), 1u);
    EXPECT_EQ(hierarchy.l1d(1).stats().accesses(), 0u);
}

/** A table-style lifeguard: handlers registered, no override. */
class TableLifeguard : public Lifeguard
{
  public:
    TableLifeguard()
    {
        onEvent<&TableLifeguard::onAlu>(log::EventType::kIntAlu);
        onEvent<&TableLifeguard::onLoad>(log::EventType::kLoad);
    }

    const char* name() const override { return "Table"; }

    void
    onAlu(const log::EventRecord&, CostSink& cost)
    {
        ++alu_events;
        cost.instrs(3);
    }

    void
    onLoad(const log::EventRecord& record, CostSink& cost)
    {
        ++load_events;
        cost.instrs(7);
        cost.memAccess(0x4000000000ull + record.addr / 8, false);
    }

    int alu_events = 0;
    int load_events = 0;
};

TEST(HandlerTable, RegistrationPopulatesTable)
{
    TableLifeguard guard;
    const auto& table = guard.handlers();
    EXPECT_NE(table[static_cast<std::size_t>(log::EventType::kIntAlu)],
              nullptr);
    EXPECT_NE(table[static_cast<std::size_t>(log::EventType::kLoad)],
              nullptr);
    EXPECT_EQ(table[static_cast<std::size_t>(log::EventType::kStore)],
              nullptr);
}

TEST(HandlerTable, HandleEventDispatchesThroughTable)
{
    // handleEvent() reaches the registered handler — so direct callers
    // (tests, the DBI platform) and the dispatch engine see the same
    // behaviour.
    TableLifeguard guard;
    NullCostSink sink;
    log::EventRecord alu;
    alu.type = log::EventType::kIntAlu;
    guard.handleEvent(alu, sink);
    EXPECT_EQ(guard.alu_events, 1);

    // Unregistered type: no-op, no crash.
    log::EventRecord store;
    store.type = log::EventType::kStore;
    guard.handleEvent(store, sink);
    EXPECT_EQ(guard.alu_events, 1);
    EXPECT_EQ(guard.load_events, 0);
}

TEST(HandlerTable, ConsumeBatchMatchesPerRecordConsume)
{
    std::vector<log::EventRecord> records;
    for (int i = 0; i < 64; ++i) {
        log::EventRecord rec;
        rec.type = (i % 3 == 0) ? log::EventType::kLoad
                                : log::EventType::kIntAlu;
        rec.addr = 0x20000 + static_cast<Addr>(i) * 64;
        records.push_back(rec);
    }
    // An unregistered type costs dispatch cycles only, on both paths.
    log::EventRecord store;
    store.type = log::EventType::kStore;
    records.insert(records.begin() + 10, store);

    TableLifeguard batched_guard;
    mem::CacheHierarchy batched_hierarchy(mem::HierarchyConfig{});
    DispatchEngine batched(batched_guard, batched_hierarchy, {1, 1});
    std::vector<Cycles> costs(records.size());
    Cycles total = batched.consumeBatch(records.data(), records.size(),
                                        costs.data());

    TableLifeguard record_guard;
    mem::CacheHierarchy record_hierarchy(mem::HierarchyConfig{});
    DispatchEngine per_record(record_guard, record_hierarchy, {1, 1});
    Cycles expected = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        Cycles c = per_record.consume(records[i]);
        EXPECT_EQ(costs[i], c) << i;
        expected += c;
    }
    EXPECT_EQ(total, expected);
    EXPECT_EQ(costs[10], 1u); // the kStore record: dispatch(1) only
    EXPECT_EQ(batched.stats().records, per_record.stats().records);
    EXPECT_EQ(batched.stats().total_cycles,
              per_record.stats().total_cycles);
    EXPECT_EQ(batched.stats().batches, 1u);
    EXPECT_EQ(per_record.stats().batches, 0u);
    EXPECT_EQ(batched_guard.load_events, record_guard.load_events);
    EXPECT_EQ(batched_guard.alu_events, record_guard.alu_events);
}

TEST(Lifeguard, FindingAccumulation)
{
    class Reporter : public Lifeguard
    {
      public:
        Reporter()
        {
            for (std::size_t t = 0; t < log::kNumEventTypes; ++t) {
                onEvent<&Reporter::onAny>(static_cast<log::EventType>(t));
            }
        }
        const char* name() const override { return "R"; }
        void
        onAny(const log::EventRecord&, CostSink&)
        {
            report({FindingKind::kOther, 0, 0, 0, "x"});
        }
    };
    Reporter r;
    NullCostSink sink;
    log::EventRecord rec;
    r.handleEvent(rec, sink);
    r.handleEvent(rec, sink);
    EXPECT_EQ(r.findings().size(), 2u);
    EXPECT_EQ(r.countFindings(FindingKind::kOther), 2u);
    EXPECT_EQ(r.countFindings(FindingKind::kDataRace), 0u);
}

/**
 * Mixed-coverage IR lifeguard: a pure-charge handler (lowers to
 * kConst), a kernel handler (lowers to kProgram) and everything else
 * unregistered (kSkip) — one guard exercising all three compiler
 * classifications at once, the shape BoundsCheck and MemLeak have.
 */
class MixedIrLifeguard : public Lifeguard
{
  public:
    MixedIrLifeguard()
    {
        onEvent<&MixedIrLifeguard::onAlu>(log::EventType::kIntAlu);
        onEvent<&MixedIrLifeguard::onLoad>(log::EventType::kLoad);
        ir_.define(log::EventType::kIntAlu).charge(3);
        ir_.define(log::EventType::kLoad)
            .charge(1)
            .kernel([](Lifeguard& self, const log::EventRecord& r,
                       auto& cost) {
                static_cast<MixedIrLifeguard&>(self).loadBody(r, cost);
            });
    }

    const char* name() const override { return "MixedIr"; }

    const ir::LifeguardIR*
    handlerIR() const override
    {
        return &ir_;
    }

    void
    onAlu(const log::EventRecord&, CostSink& cost)
    {
        cost.instrs(3);
    }

    void
    onLoad(const log::EventRecord& record, CostSink& cost)
    {
        cost.instrs(1);
        loadBody(record, cost);
    }

    template <typename Cost>
    void
    loadBody(const log::EventRecord& record, Cost& cost)
    {
        cost.instrs(2);
        cost.memAccess(kShadowBase + record.addr / 8, false);
        ++loads;
    }

    int loads = 0;

  private:
    ir::LifeguardIR ir_;
};

TEST(Compiler, MixedCoverageClassification)
{
    MixedIrLifeguard guard;
    CompiledDispatch compiled =
        compileHandlers(guard, *guard.handlerIR());

    auto handler = [&](log::EventType type) -> const CompiledHandler& {
        return compiled.handlers[static_cast<std::size_t>(type)];
    };
    EXPECT_EQ(handler(log::EventType::kIntAlu).kind,
              CompiledHandler::Kind::kConst);
    EXPECT_EQ(handler(log::EventType::kIntAlu).const_cycles, 3u);
    EXPECT_EQ(handler(log::EventType::kLoad).kind,
              CompiledHandler::Kind::kProgram);
    ASSERT_NE(handler(log::EventType::kLoad).program, nullptr);
    EXPECT_EQ(handler(log::EventType::kStore).kind,
              CompiledHandler::Kind::kSkip);
    EXPECT_EQ(handler(log::EventType::kSyscall).kind,
              CompiledHandler::Kind::kSkip);
    // One kProgram entry is enough to forfeit the bulk fast path.
    EXPECT_FALSE(compiled.all_const);
}

TEST(Compiler, MixedCoverageFusedMatchesBatched)
{
    // The mixed guard compiles — and drains cycle-identically through
    // the fused tier (kConst run + kProgram run + kSkip run in one
    // batch).
    std::vector<log::EventRecord> records(48);
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i].type = (i % 3 == 0) ? log::EventType::kIntAlu
                          : (i % 3 == 1)
                              ? log::EventType::kLoad
                              : log::EventType::kStore;
        records[i].addr = 0x10000000 + i * 8;
    }

    mem::CacheHierarchy fused_hierarchy(mem::HierarchyConfig{});
    MixedIrLifeguard fused_guard;
    DispatchEngine fused(fused_guard, fused_hierarchy);
    EXPECT_TRUE(fused.fusedTierCompiled());
    std::vector<Cycles> fused_costs(records.size());
    fused.assumeFunctionalOwner();
    Cycles fused_total = fused.consumeBatchFused(
        records.data(), records.size(), fused_costs.data());

    mem::CacheHierarchy batched_hierarchy(mem::HierarchyConfig{});
    MixedIrLifeguard batched_guard;
    DispatchEngine batched(batched_guard, batched_hierarchy);
    std::vector<Cycles> batched_costs(records.size());
    batched.assumeFunctionalOwner();
    Cycles batched_total = batched.consumeBatch(
        records.data(), records.size(), batched_costs.data());

    EXPECT_EQ(fused_total, batched_total);
    EXPECT_EQ(fused_costs, batched_costs);
    EXPECT_EQ(fused_guard.loads, batched_guard.loads);
}

/** Table registrations and IR descriptions must cover the same types:
 *  either direction of drift is a construction-time panic, not a
 *  silently diverging fused tier. */
class RegisteredWithoutIr : public Lifeguard
{
  public:
    RegisteredWithoutIr()
    {
        onEvent<&RegisteredWithoutIr::onAny>(log::EventType::kIntAlu);
        onEvent<&RegisteredWithoutIr::onAny>(log::EventType::kLoad);
        ir_.define(log::EventType::kIntAlu).charge(1);
        // kLoad registered above but deliberately not described.
    }
    const char* name() const override { return "NoIr"; }
    const ir::LifeguardIR*
    handlerIR() const override
    {
        return &ir_;
    }
    void onAny(const log::EventRecord&, CostSink& cost)
    {
        cost.instrs(1);
    }

  private:
    ir::LifeguardIR ir_;
};

class IrWithoutRegistration : public Lifeguard
{
  public:
    IrWithoutRegistration()
    {
        onEvent<&IrWithoutRegistration::onAny>(log::EventType::kIntAlu);
        ir_.define(log::EventType::kIntAlu).charge(1);
        // Described below, never registered above.
        ir_.define(log::EventType::kStore).charge(2);
    }
    const char* name() const override { return "NoReg"; }
    const ir::LifeguardIR*
    handlerIR() const override
    {
        return &ir_;
    }
    void onAny(const log::EventRecord&, CostSink& cost)
    {
        cost.instrs(1);
    }

  private:
    ir::LifeguardIR ir_;
};

TEST(CompilerDeathTest, RegisteredHandlerWithoutIrDescriptionPanics)
{
    RegisteredWithoutIr guard;
    EXPECT_DEATH(compileHandlers(guard, *guard.handlerIR()),
                 "registered handler without an IR description");
}

TEST(CompilerDeathTest, IrDescriptionForUnregisteredTypePanics)
{
    IrWithoutRegistration guard;
    EXPECT_DEATH(compileHandlers(guard, *guard.handlerIR()),
                 "IR description for an unregistered event type");
}

} // namespace
} // namespace lba::lifeguard
