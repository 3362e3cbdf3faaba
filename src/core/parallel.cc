/**
 * @file
 * Parallel LBA implementation: routing on top of the shared timing
 * engine (core::PipelineTimer); one engine lane per shard.
 */

#include "core/parallel.h"

#include <algorithm>

#include "common/assert.h"

namespace lba::core {

using log::EventRecord;
using log::EventType;

ParallelLbaSystem::ParallelLbaSystem(const Factory& factory,
                                     mem::CacheHierarchy& hierarchy,
                                     const ParallelLbaConfig& config)
    : timer_(hierarchy, config, config.shards)
{
    for (unsigned s = 0; s < config.shards; ++s) {
        lifeguards_.push_back(factory());
        LBA_ASSERT(lifeguards_.back() != nullptr,
                   "lifeguard factory returned null");
        lifeguard::DispatchConfig dc = config.dispatch;
        dc.core = config.dispatch.core + s;
        engines_.push_back(std::make_unique<lifeguard::DispatchEngine>(
            *lifeguards_.back(), hierarchy, dc));
        shard_targets_.push_back({{s, engines_.back().get()}});
        broadcast_targets_.push_back({s, engines_.back().get()});
    }
}

unsigned
routeShard(const EventRecord& record, unsigned shards,
           std::uint64_t* round_robin)
{
    switch (record.type) {
      case EventType::kLoad:
      case EventType::kStore:
        // Address partition: 64-byte regions interleaved across shards.
        return static_cast<unsigned>((record.addr >> 6) % shards);
      case EventType::kAlloc:
      case EventType::kFree:
      case EventType::kInput:
      case EventType::kOutput:
      case EventType::kLock:
      case EventType::kUnlock:
      case EventType::kThreadSpawn:
      case EventType::kThreadExit:
        return kBroadcast;
      default:
        return static_cast<unsigned>((*round_robin)++ % shards);
    }
}

void
ParallelLbaSystem::deliver(const EventRecord& record)
{
    unsigned shard = routeShard(record, shards(), &round_robin_);
    timer_.log(0, record,
               shard == kBroadcast ? broadcast_targets_
                                   : shard_targets_[shard]);
}

void
ParallelLbaSystem::onRetire(const sim::Retired& retired)
{
    timer_.retire(retired);
    deliver(log::CaptureUnit::makeRecord(retired));
    if (retired.is_syscall) {
        // Same containment ordering as the serial system: the drain is
        // armed after the syscall record itself is logged and applied
        // before the next retirement, so the annotation records emitted
        // by this syscall's onOsEvent are drained too.
        timer_.noteSyscall();
    }
}

void
ParallelLbaSystem::onOsEvent(const sim::OsEvent& event)
{
    deliver(log::CaptureUnit::makeRecord(event));
}

void
ParallelLbaSystem::finish()
{
    for (unsigned s = 0; s < shards(); ++s) {
        timer_.finishShard(0, s, *engines_[s]);
    }
    timer_.seal();
    static_cast<LbaRunStats&>(stats_) = timer_.stats();
    unsigned n = shards();
    stats_.shard_busy_cycles.resize(n);
    stats_.shard_records.resize(n);
    stats_.shard_consume_lag.resize(n);
    stats_.shard_transport_bytes.resize(n);
    stats_.shard_transport_wait_cycles.resize(n);
    stats_.shard_max_occupancy.resize(n);
    for (unsigned s = 0; s < n; ++s) {
        stats_.shard_busy_cycles[s] = timer_.laneBusyCycles(s);
        stats_.shard_records[s] = timer_.laneRecords(s);
        stats_.shard_consume_lag[s] = timer_.laneMeanConsumeLag(s);
        stats_.shard_transport_bytes[s] = timer_.laneTransportBytes(s);
        stats_.shard_transport_wait_cycles[s] =
            timer_.laneTransportWaitCycles(s);
        stats_.shard_max_occupancy[s] = timer_.laneMaxOccupancy(s);
    }
}

std::vector<lifeguard::Finding>
mergeShardFindings(
    const std::vector<std::unique_ptr<lifeguard::Lifeguard>>& shards)
{
    std::vector<lifeguard::Finding> all;
    auto seen = [&](const lifeguard::Finding& f) {
        for (const auto& g : all) {
            if (g.kind == f.kind && g.pc == f.pc && g.addr == f.addr &&
                g.tid == f.tid && g.message == f.message) {
                return true;
            }
        }
        return false;
    };
    for (const auto& guard : shards) {
        for (const auto& f : guard->findings()) {
            if (!seen(f)) all.push_back(f);
        }
    }
    return all;
}

std::vector<lifeguard::Finding>
ParallelLbaSystem::allFindings() const
{
    return mergeShardFindings(lifeguards_);
}

std::vector<const lifeguard::Lifeguard*>
ParallelLbaSystem::shardLifeguards() const
{
    std::vector<const lifeguard::Lifeguard*> out;
    out.reserve(lifeguards_.size());
    for (const auto& guard : lifeguards_) out.push_back(guard.get());
    return out;
}

} // namespace lba::core
