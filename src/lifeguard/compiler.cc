/**
 * @file
 * Lifeguard batch-compiler implementation (lowering only; the
 * interpreter is the header template so it specializes per cost
 * flavour).
 */

#include "lifeguard/compiler.h"

#include "common/assert.h"

namespace lba::lifeguard {

CompiledDispatch
compileHandlers(const Lifeguard& lifeguard, const ir::LifeguardIR& ir)
{
    CompiledDispatch compiled;
    const auto& table = lifeguard.handlers();
    for (std::size_t t = 0; t < table.size(); ++t) {
        const ir::IrProgram* program =
            ir.program(static_cast<log::EventType>(t));
        CompiledHandler& handler = compiled.handlers[t];
        if (!program) {
            // The description must cover exactly the registered table:
            // a registered handler the IR is silent about would make
            // the fused tier skip work the other tiers perform.
            LBA_ASSERT(table[t] == nullptr,
                       "registered handler without an IR description");
            handler.kind = CompiledHandler::Kind::kSkip;
            continue;
        }
        LBA_ASSERT(table[t] != nullptr,
                   "IR description for an unregistered event type");
        // Classify: a pure-kCharge program is a constant cost.
        bool pure_charge = true;
        std::uint32_t cycles = 0;
        for (const ir::IrInst& inst : program->insts) {
            if (inst.op != ir::IrOp::kCharge) {
                pure_charge = false;
                break;
            }
            cycles += inst.cycles;
        }
        if (pure_charge) {
            handler.kind = CompiledHandler::Kind::kConst;
            handler.const_cycles = cycles;
        } else {
            handler.kind = CompiledHandler::Kind::kProgram;
            handler.program = program;
            compiled.all_const = false;
        }
    }
    return compiled;
}

} // namespace lba::lifeguard
