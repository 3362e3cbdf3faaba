/**
 * @file
 * LBA system implementation: the single-lane PipelineTimer instantiation.
 */

#include "core/lba_system.h"

namespace lba::core {

LbaSystem::LbaSystem(lifeguard::Lifeguard& lifeguard,
                     mem::CacheHierarchy& hierarchy,
                     const LbaConfig& config)
    : engine_(lifeguard, hierarchy, config.dispatch),
      targets_{{0, &engine_}},
      timer_(hierarchy, config, 1)
{
}

void
LbaSystem::onRetire(const sim::Retired& retired)
{
    timer_.retire(retired);
    timer_.log(0, log::CaptureUnit::makeRecord(retired), targets_);
    if (retired.is_syscall) {
        // The OS stalls the syscall until the lifeguard has checked all
        // prior log entries; applied before the next retirement so the
        // annotation records emitted by this syscall are drained too.
        timer_.noteSyscall();
    }
}

void
LbaSystem::onOsEvent(const sim::OsEvent& event)
{
    timer_.log(0, log::CaptureUnit::makeRecord(event), targets_);
}

void
LbaSystem::finish()
{
    timer_.finishShard(0, 0, engine_);
    timer_.seal();
}

} // namespace lba::core
