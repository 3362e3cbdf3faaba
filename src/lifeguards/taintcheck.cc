/**
 * @file
 * TaintCheck implementation.
 *
 * Handler cost model (charged via CostSink, per event):
 *   li (constant)        : 1 instr   (clear destination bit)
 *   move                 : 2 instrs  (copy bit)
 *   ALU                  : 4 instrs  (or source bits into destination)
 *   load                 : 6 instrs + 1 shadow read
 *   store                : 6 instrs + 1 shadow write
 *   indirect jump/call,
 *   return               : 2 instrs  (test + conditional report)
 *   input annotation     : 6 instrs + 2 instrs and 1 shadow write/granule
 *   alloc annotation     : 4 instrs + 2 instrs and 1 shadow write/granule
 *                          (fresh memory is untainted)
 */

#include "lifeguards/taintcheck.h"

#include <cstdio>

namespace lba::lifeguards {

using lifeguard::FindingKind;
using log::EventRecord;
using log::EventType;

namespace {

/** Lower a templated TaintCheck handler into one captureless generic
 *  lambda, registered BOTH as the table entry (CostSink instantiation)
 *  and as the IR kernel (DirectCost/DeferredCost instantiations) — one
 *  body, three cost flavours, no way for the tiers to diverge. */
#define TAINT_HANDLER(method)                                            \
    [](lifeguard::Lifeguard& self, const EventRecord& record,            \
       auto& cost) { static_cast<TaintCheck&>(self).method(record,       \
                                                          cost); }

} // namespace

TaintCheck::TaintCheck(const TaintCheckConfig& config)
    : config_(config), taint_(config.shadow_base)
{
    // The handler table: TaintCheck watches *all* dataflow-relevant
    // instruction classes (the paper's distinction from
    // address-triggered schemes) plus the input/alloc annotations.
    // Every handler mutates taint state, so the IR description is one
    // kKernel per event type.
    auto describe = [this](EventType type, auto handler) {
        setHandler(type, handler);
        ir_.define(type).kernel(handler);
    };
    describe(EventType::kLoadImm, TAINT_HANDLER(onLoadImm));
    describe(EventType::kMove, TAINT_HANDLER(onMove));
    describe(EventType::kIntAlu, TAINT_HANDLER(onAlu));
    describe(EventType::kLoad, TAINT_HANDLER(onLoad));
    describe(EventType::kStore, TAINT_HANDLER(onStore));
    describe(EventType::kIndirectJump, TAINT_HANDLER(onIndirectTransfer));
    describe(EventType::kIndirectCall, TAINT_HANDLER(onIndirectTransfer));
    describe(EventType::kReturn, TAINT_HANDLER(onReturn));
    describe(EventType::kInput, TAINT_HANDLER(onInput));
    describe(EventType::kAlloc, TAINT_HANDLER(onAlloc));
}

#undef TAINT_HANDLER

bool
TaintCheck::regBit(ThreadId tid, RegIndex reg) const
{
    const std::uint32_t* mask = reg_taint_.find(tid);
    return mask && ((*mask >> reg) & 1u);
}

void
TaintCheck::setRegBit(ThreadId tid, RegIndex reg, bool tainted)
{
    if (reg == isa::kRegZero) return; // r0 is never tainted
    std::uint32_t& mask = reg_taint_[tid];
    if (tainted) {
        mask |= 1u << reg;
    } else {
        mask &= ~(1u << reg);
    }
}

bool
TaintCheck::regTainted(ThreadId tid, RegIndex reg) const
{
    return regBit(tid, reg);
}

bool
TaintCheck::memTainted(Addr addr, unsigned bytes) const
{
    for (unsigned b = 0; b < bytes; ++b) {
        const std::uint8_t* entry = taint_.find(addr + b);
        if (entry && (*entry >> ((addr + b) & 7)) & 1u) return true;
    }
    return false;
}

template <typename Cost>
bool
TaintCheck::readMemTaint(Addr addr, unsigned bytes, Cost& cost)
{
    cost.memAccess(taint_.shadowAddr(addr), false);
    bool tainted = false;
    for (unsigned b = 0; b < bytes; ++b) {
        Addr byte = addr + b;
        if (b > 0 && (byte & 7) == 0) {
            cost.instrs(1);
            cost.memAccess(taint_.shadowAddr(byte), false);
        }
        const std::uint8_t* entry = taint_.find(byte);
        if (entry && (*entry >> (byte & 7)) & 1u) tainted = true;
    }
    return tainted;
}

template <typename Cost>
void
TaintCheck::writeMemTaint(Addr addr, unsigned bytes, bool tainted,
                          Cost& cost)
{
    // Functional update: per-granule taint masks.
    Addr end = addr + bytes;
    for (Addr g = addr & ~7ull; g < end; g += 8) {
        std::uint8_t mask = 0;
        for (unsigned b = 0; b < 8; ++b) {
            Addr byte = g + b;
            if (byte >= addr && byte < end) {
                mask |= static_cast<std::uint8_t>(1u << b);
            }
        }
        std::uint8_t& entry = taint_.entry(g);
        entry = tainted ? (entry | mask)
                        : static_cast<std::uint8_t>(entry & ~mask);
    }
    // Cost: bulk marking (input buffers, fresh allocations) uses 8-byte
    // shadow stores covering 64 application bytes each; a store-sized
    // update is a single read-modify-write of one shadow byte.
    for (Addr g = addr & ~7ull; g < end; g += 64) {
        cost.instrs(1);
        cost.memAccess(taint_.shadowAddr(g), true);
    }
}

template <typename Cost>
void
TaintCheck::checkJump(const EventRecord& record, RegIndex source_reg,
                      Cost& cost)
{
    cost.instrs(2);
    if (!regBit(record.tid, source_reg)) return;
    if (config_.dedupe_reports && !reported_.insert(record.pc).second) {
        return;
    }
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "control transfer through tainted register r%u",
                  static_cast<unsigned>(source_reg));
    report({FindingKind::kTaintedJump, record.pc, record.addr,
            record.tid, msg});
}

template <typename Cost>
void
TaintCheck::onLoadImm(const EventRecord& record, Cost& cost)
{
    cost.instrs(1);
    if (static_cast<isa::Opcode>(record.opcode) == isa::Opcode::kLi) {
        setRegBit(record.tid, record.rd, false);
    }
    // lih mixes an immediate into rd: taint of rd is unchanged.
}

template <typename Cost>
void
TaintCheck::onMove(const EventRecord& record, Cost& cost)
{
    cost.instrs(2);
    setRegBit(record.tid, record.rd, regBit(record.tid, record.rs1));
}

template <typename Cost>
void
TaintCheck::onAlu(const EventRecord& record, Cost& cost)
{
    cost.instrs(4);
    auto op = static_cast<isa::Opcode>(record.opcode);
    bool tainted = regBit(record.tid, record.rs1);
    if (isa::readsRs2(op)) {
        tainted = tainted || regBit(record.tid, record.rs2);
    }
    setRegBit(record.tid, record.rd, tainted);
}

template <typename Cost>
void
TaintCheck::onLoad(const EventRecord& record, Cost& cost)
{
    cost.instrs(6);
    unsigned bytes = static_cast<unsigned>(record.aux ? record.aux : 1);
    bool tainted = readMemTaint(record.addr, bytes, cost);
    setRegBit(record.tid, record.rd, tainted);
}

template <typename Cost>
void
TaintCheck::onStore(const EventRecord& record, Cost& cost)
{
    cost.instrs(6);
    unsigned bytes = static_cast<unsigned>(record.aux ? record.aux : 1);
    writeMemTaint(record.addr, bytes, regBit(record.tid, record.rs2),
                  cost);
}

template <typename Cost>
void
TaintCheck::onIndirectTransfer(const EventRecord& record, Cost& cost)
{
    checkJump(record, record.rs1, cost);
}

template <typename Cost>
void
TaintCheck::onReturn(const EventRecord& record, Cost& cost)
{
    checkJump(record, isa::kRegLr, cost);
}

template <typename Cost>
void
TaintCheck::onInput(const EventRecord& record, Cost& cost)
{
    cost.instrs(6);
    writeMemTaint(record.addr, static_cast<unsigned>(record.aux), true,
                  cost);
}

template <typename Cost>
void
TaintCheck::onAlloc(const EventRecord& record, Cost& cost)
{
    cost.instrs(4);
    if (record.addr != 0 && record.aux != 0) {
        writeMemTaint(record.addr, static_cast<unsigned>(record.aux),
                      false, cost);
    }
}

} // namespace lba::lifeguards
