/**
 * @file
 * Shared LBA timing engine implementation.
 */

#include "core/pipeline_timer.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace lba::core {

using log::EventRecord;
using log::EventType;

PipelineTimer::PipelineTimer(
    mem::CacheHierarchy& hierarchy, const LbaConfig& config,
    const std::vector<lifeguard::Lifeguard*>& lifeguards,
    const std::vector<LaneLimits>& lane_limits)
    : hierarchy_(hierarchy), config_(config)
{
    // The constructing thread is the coordinator by definition (the
    // runtime twin is coordinator_, recorded in buildLanes).
    threading::assumeCoordinatorRole();
    LBA_ASSERT(!lifeguards.empty(), "timer needs at least one lane");
    buildLanes(static_cast<unsigned>(lifeguards.size()), lifeguards,
               lane_limits);
}

PipelineTimer::PipelineTimer(mem::CacheHierarchy& hierarchy,
                             const LbaConfig& config, unsigned nlanes,
                             const std::vector<LaneLimits>& lane_limits)
    : hierarchy_(hierarchy), config_(config)
{
    threading::assumeCoordinatorRole();
    LBA_ASSERT(nlanes >= 1, "timer needs at least one lane");
    buildLanes(nlanes, {}, lane_limits);
}

void
PipelineTimer::buildLanes(
    unsigned nlanes, const std::vector<lifeguard::Lifeguard*>& lifeguards,
    const std::vector<LaneLimits>& lane_limits)
{
    LBA_ASSERT(hierarchy_.config().num_cores >=
                   config_.dispatch.core + nlanes,
               "hierarchy must provide one core per lane plus the app");
    LBA_ASSERT(config_.app_core < config_.dispatch.core ||
                   config_.app_core >= config_.dispatch.core + nlanes,
               "application and lifeguard must use different cores");
    LBA_ASSERT(lane_limits.empty() || lane_limits.size() == nlanes,
               "lane limits must cover every lane or none");

    lanes_.reserve(nlanes);
    for (unsigned i = 0; i < nlanes; ++i) {
        std::size_t capacity = config_.buffer_capacity;
        double bandwidth = config_.transport_bytes_per_cycle;
        if (!lane_limits.empty()) {
            const LaneLimits& limits = lane_limits[i];
            if (limits.buffer_capacity > 0) {
                capacity = limits.buffer_capacity;
            }
            if (limits.transport_bytes_per_cycle >= 0.0) {
                bandwidth = limits.transport_bytes_per_cycle;
            }
        }
        Lane lane(capacity);
        lane.bytes_per_cycle = bandwidth;
        if (!lifeguards.empty()) {
            LBA_ASSERT(lifeguards[i] != nullptr, "lane lifeguard is null");
            lane.lifeguard = lifeguards[i];
            lifeguard::DispatchConfig dc = config_.dispatch;
            dc.core = config_.dispatch.core + i;
            lane.dispatch = std::make_unique<lifeguard::DispatchEngine>(
                *lane.lifeguard, hierarchy_, dc);
        }
        lanes_.push_back(std::move(lane));
    }

    Producer primary;
    primary.app_core = config_.app_core;
    producers_.push_back(std::move(primary));

    if (config_.execution == ExecutionMode::kThreaded) {
        LBA_ASSERT(config_.dispatch_tier != DispatchTier::kPerRecord,
                   "threaded execution requires a batching dispatch "
                   "tier (its flush boundaries are the cross-thread "
                   "barriers)");
        coordinator_ = std::this_thread::get_id();
        executor_ = std::make_unique<ThreadedExecutor>(nlanes);
        // Pin each intrinsic engine to its lane's worker up front.
        // External-dispatch engines (pool tenants) pin lazily, at the
        // first flush that carries them.
        for (unsigned i = 0; i < nlanes; ++i) {
            if (lanes_[i].dispatch) {
                executor_->bind(lanes_[i].dispatch.get(), i);
            }
        }
    }
}

unsigned
PipelineTimer::addProducer(unsigned app_core)
{
    assertCoordinator();
    LBA_ASSERT(!finished_, "cannot add a producer after seal()");
    LBA_ASSERT(app_core < hierarchy_.config().num_cores,
               "producer core outside the hierarchy");
    LBA_ASSERT(app_core < config_.dispatch.core ||
                   app_core >= config_.dispatch.core + lanes(),
               "producer and lifeguard must use different cores");
    Producer producer;
    producer.app_core = app_core;
    producers_.push_back(std::move(producer));
    return static_cast<unsigned>(producers_.size() - 1);
}

bool
PipelineTimer::filtered(const EventRecord& record) const
{
    if (!config_.filter_enabled) return false;
    if (record.type != EventType::kLoad &&
        record.type != EventType::kStore) {
        return false;
    }
    return record.addr < config_.filter_base ||
           record.addr >= config_.filter_base + config_.filter_bytes;
}

double
PipelineTimer::transportCost(Producer& producer, const EventRecord& record)
{
    // Bandwidth accounting: compressed records cost their true encoded
    // size; uncompressed transport pays the full record width. Each
    // producer is its own log stream, so its encoder sees only its
    // own record sequence.
    if (!config_.compress) return config_.raw_record_bytes;
    std::uint64_t before = producer.encoder.bitsWritten();
    producer.encoder.append(record);
    return static_cast<double>(producer.encoder.bitsWritten() - before) /
           8.0;
}

void
PipelineTimer::reserveSlots(Producer& producer, Lane& lane,
                            std::size_t needed)
{
    // Back-pressure: the lane slot for this record frees when the lane's
    // record capacity-entries ago has been consumed. The stall is paid
    // by the producing application, even when the occupying record
    // belongs to another tenant. A lane hosting several folded shard
    // contexts may need multiple slots for one logical record.
    LBA_ASSERT(needed <= lane.slots.capacity(),
               "lane buffer smaller than one record's consumptions");
    // The slots to free are the lane's oldest. While the queued records
    // and the new ones fit in the buffer by themselves, those are
    // consumed records whose finish times the ring already holds, so no
    // flush is needed. Otherwise a queued-but-unconsumed record's
    // finish time matters: catch the whole queue up first (in arrival
    // order, so the interleaving stays identical to the per-record
    // path — these records were consumed before this point on that
    // path too).
    if (lane.pending + needed > lane.slots.capacity()) flushPending();
    while (lane.slots.size() + lane.pending + needed >
           lane.slots.capacity()) {
        Cycles freed_at = lane.slots.pop();
        if (producer.app_time < freed_at) {
            Cycles stall = freed_at - producer.app_time;
            stats_.backpressure_stall_cycles += stall;
            producer.stats.backpressure_stall_cycles += stall;
            producer.app_time = freed_at;
        }
    }
}

void
PipelineTimer::consumeOn(Producer& producer, Lane& lane,
                         lifeguard::DispatchEngine& engine,
                         const EventRecord& record, Cycles produced_at,
                         double record_bytes)
{
    lane.max_occupancy = std::max<std::uint64_t>(
        lane.max_occupancy, lane.slots.size() + lane.pending + 1);

    if (config_.dispatch_tier != DispatchTier::kPerRecord) {
        PendingMeta meta;
        meta.producer =
            static_cast<unsigned>(&producer - producers_.data());
        meta.lane = static_cast<unsigned>(&lane - lanes_.data());
        meta.engine = &engine;
        meta.produced_at = produced_at;
        meta.bytes = record_bytes;
        pending_records_.push_back(record);
        pending_meta_.push_back(meta);
        ++lane.pending;
        return;
    }

    // Per-record path: serial by construction (threaded execution
    // requires batched dispatch), so the calling thread owns the
    // engine's functional side as well as the coordinator role.
    engine.assumeFunctionalOwner();
    Cycles cost = engine.consume(record);
    applyRecordTiming(producer, lane, record, produced_at, record_bytes,
                      cost);
}

void
PipelineTimer::applyRecordTiming(Producer& producer, Lane& lane,
                                 const EventRecord& record,
                                 Cycles produced_at, double record_bytes,
                                 Cycles cost)
{
    lane.transport_bytes += record_bytes;
    stats_.transport_bytes += record_bytes;
    producer.stats.transport_bytes += record_bytes;

    // The record is visible to the dispatch engine only after its bytes
    // have crossed the (possibly bandwidth-limited) transport. Ceiling:
    // the last byte must have fully arrived, so delivery lands on the
    // first cycle boundary at or after the transport completes.
    Cycles delivered_at = produced_at;
    if (lane.bytes_per_cycle > 0.0) {
        lane.transport_free =
            std::max(lane.transport_free,
                     static_cast<double>(produced_at)) +
            record_bytes / lane.bytes_per_cycle;
        delivered_at = static_cast<Cycles>(std::ceil(lane.transport_free));
        if (delivered_at > produced_at) {
            Cycles wait = delivered_at - produced_at;
            lane.transport_wait_cycles += wait;
            stats_.transport_wait_cycles += wait;
            producer.stats.transport_wait_cycles += wait;
        }
    }

    Cycles start = std::max(delivered_at, lane.last_finish);
    double lag = static_cast<double>(start - produced_at);
    lane.consume_lag.record(lag);
    producer.consume_lag.record(lag);
    consume_lag_.record(lag);
    lane.last_finish = start + cost;
    lane.busy_cycles += cost;
    producer.stats.lifeguard_busy_cycles += cost;
    producer.drain_clock = std::max(producer.drain_clock, lane.last_finish);
    lane.slots.push(lane.last_finish);
    ++lane.records;

    if (consume_observer_) {
        unsigned producer_idx = static_cast<unsigned>(
            &producer - producers_.data());
        unsigned lane_idx = static_cast<unsigned>(&lane - lanes_.data());
        consume_observer_(producer_idx, lane_idx, record,
                          static_cast<Cycles>(lag), cost, record_bytes);
    }
}

void
PipelineTimer::flushPending()
{
    // The consume observer runs inside phase 2 and may call back into
    // a syncing accessor (stats(), sync(), ...); re-entering the flush
    // would re-run every queued handler. The guard makes re-entry a
    // no-op, like a stats read mid-consume on the per-record path.
    assertCoordinator();
    if (pending_meta_.empty() || flushing_) return;
    flushing_ = true;
    std::size_t n = pending_meta_.size();
    pending_costs_.resize(n);

    if (executor_) {
        // Threaded phase 1: same runs, fanned out to the worker
        // threads, costs recorded and replayed instead of charged
        // in-line — cycle-identical by construction (see the header).
        runPendingThreaded(n);
    } else {
        // Phase 1: handler execution, in arrival order — the same cache
        // interleaving as per-record consumption — with maximal runs
        // that share an engine drained through one consumeBatch (or
        // consumeBatchFused, on the fused tier) call each (the whole
        // queue, for single-lane systems).
        const bool fused = config_.dispatch_tier == DispatchTier::kFused;
        std::size_t i = 0;
        while (i < n) {
            std::size_t j = i + 1;
            while (j < n &&
                   pending_meta_[j].engine == pending_meta_[i].engine) {
                ++j;
            }
            // Serial flush: the coordinator runs the handlers itself,
            // so it owns each engine's functional side for the drain.
            lifeguard::DispatchEngine* engine = pending_meta_[i].engine;
            engine->assumeFunctionalOwner();
            if (fused) {
                engine->consumeBatchFused(pending_records_.data() + i,
                                          j - i, pending_costs_.data() + i);
            } else {
                engine->consumeBatch(pending_records_.data() + i, j - i,
                                     pending_costs_.data() + i);
            }
            i = j;
        }
    }

    // Phase 2: the timing recurrence, same order. Handler costs never
    // depend on the recurrence, so the split is exact.
    for (std::size_t k = 0; k < n; ++k) {
        const PendingMeta& meta = pending_meta_[k];
        Lane& lane = lanes_[meta.lane];
        applyRecordTiming(producers_[meta.producer], lane,
                          pending_records_[k], meta.produced_at,
                          meta.bytes, pending_costs_[k]);
        --lane.pending;
    }
    // Erase only what this flush consumed: an observer that logged
    // records mid-flush (none in-tree do) must not lose them.
    pending_records_.erase(pending_records_.begin(),
                           pending_records_.begin() +
                               static_cast<std::ptrdiff_t>(n));
    pending_meta_.erase(pending_meta_.begin(),
                        pending_meta_.begin() +
                            static_cast<std::ptrdiff_t>(n));
    flushing_ = false;
}

void
PipelineTimer::runPendingThreaded(std::size_t n)
{
    // Partition into the same maximal same-engine runs as the serial
    // flush (so even the `batches` stat matches), count them, and give
    // each run its own DeferredBatch scratch slot — resized before any
    // pointer is taken, because workers write through those pointers.
    std::size_t nruns = 0;
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n &&
               pending_meta_[j].engine == pending_meta_[i].engine) {
            ++j;
        }
        ++nruns;
        i = j;
    }
    if (batch_scratch_.size() < nruns) batch_scratch_.resize(nruns);

    // Fan out. Staging in global arrival order keeps each worker's
    // batch list — and therefore each engine's record stream — in
    // arrival order; runs on different workers race, which is safe
    // because phase 1 touches only per-lifeguard state.
    std::size_t run = 0;
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n &&
               pending_meta_[j].engine == pending_meta_[i].engine) {
            ++j;
        }
        executor_->enqueue(pending_meta_[i].engine,
                           pending_meta_[i].lane,
                           pending_records_.data() + i, j - i,
                           &batch_scratch_[run],
                           config_.dispatch_tier == DispatchTier::kFused);
        ++run;
        i = j;
    }
    executor_->dispatchRound();

    // Replay: charge the recorded accesses through the shared
    // hierarchy in global arrival order — run by run, record by
    // record, exactly the serial interleaving — producing the same
    // per-record costs consumeBatch() would have.
    run = 0;
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i + 1;
        while (j < n &&
               pending_meta_[j].engine == pending_meta_[i].engine) {
            ++j;
        }
        lifeguard::DispatchEngine* engine = pending_meta_[i].engine;
        for (std::size_t k = i; k < j; ++k) {
            pending_costs_[k] = engine->replayDeferred(
                pending_records_[k], batch_scratch_[run], k - i);
        }
        ++run;
        i = j;
    }
}

bool
PipelineTimer::admitRecord(Producer& producer, const EventRecord& record,
                           double* record_bytes)
{
    if (filtered(record)) {
        ++stats_.records_filtered;
        ++producer.stats.records_filtered;
        return false;
    }
    *record_bytes = transportCost(producer, record);
    return true;
}

bool
PipelineTimer::log(const EventRecord& record, unsigned lane)
{
    assertCoordinator();
    Producer& producer = producers_.front();
    double record_bytes = 0.0;
    if (!admitRecord(producer, record, &record_bytes)) return false;

    // Reserve a slot in every target lane first: the application can
    // only append the record once all of its consumers have room, so
    // produce(i) reflects the back-pressure of the slowest target lane.
    if (lane == kBroadcast) {
        for (Lane& l : lanes_) reserveSlots(producer, l, 1);
        Cycles produced_at = producer.app_time;
        for (Lane& l : lanes_) {
            LBA_ASSERT(l.dispatch, "broadcast lane has no dispatch engine");
            consumeOn(producer, l, *l.dispatch, record, produced_at,
                      record_bytes);
        }
    } else {
        LBA_ASSERT(lane < lanes_.size(), "record routed to bad lane");
        Lane& l = lanes_[lane];
        LBA_ASSERT(l.dispatch, "lane has no dispatch engine; use the "
                               "external-dispatch log() overload");
        reserveSlots(producer, l, 1);
        consumeOn(producer, l, *l.dispatch, record, producer.app_time,
                  record_bytes);
    }
    ++stats_.records_logged;
    ++producer.stats.records_logged;
    return true;
}

bool
PipelineTimer::log(unsigned producer_idx, const EventRecord& record,
                   const std::vector<Target>& targets)
{
    assertCoordinator();
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    LBA_ASSERT(!targets.empty(), "record needs at least one target");
    Producer& producer = producers_[producer_idx];
    double record_bytes = 0.0;
    if (!admitRecord(producer, record, &record_bytes)) return false;

    // Same ordering as the broadcast path: all slots first, so
    // produce(i) reflects the slowest target lane, then consume in
    // target order. A lane takes one slot per target folded onto it,
    // so count per-lane demand first (first-seen lane order).
    lane_demand_.clear();
    for (const Target& target : targets) {
        LBA_ASSERT(target.lane < lanes_.size(),
                   "record routed to bad lane");
        bool found = false;
        for (auto& [lane, count] : lane_demand_) {
            if (lane == target.lane) {
                ++count;
                found = true;
                break;
            }
        }
        if (!found) lane_demand_.emplace_back(target.lane, 1);
    }
    for (const auto& [lane, count] : lane_demand_) {
        reserveSlots(producer, lanes_[lane], count);
    }
    Cycles produced_at = producer.app_time;
    for (const Target& target : targets) {
        LBA_ASSERT(target.engine != nullptr, "target has no engine");
        consumeOn(producer, lanes_[target.lane], *target.engine, record,
                  produced_at, record_bytes);
    }
    ++stats_.records_logged;
    ++producer.stats.records_logged;
    return true;
}

void
PipelineTimer::retire(unsigned producer_idx, const sim::Retired& retired)
{
    assertCoordinator();
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    // Flush boundary: consume everything the previous interval logged
    // before this retirement's drain check and cache accesses — the
    // point the per-record path had consumed them by.
    flushPending();
    Producer& producer = producers_[producer_idx];
    if (producer.pending_drain) {
        // Applied before this retirement's own cost, so the drain covers
        // every record this producer logged so far — including the
        // annotation records the syscall's own onOsEvent handlers
        // emitted. The producer's drain clock tracks the latest finish
        // over its own records, so one tenant's drain does not wait on
        // another tenant's backlog.
        producer.pending_drain = false;
        ++stats_.syscall_drains;
        ++producer.stats.syscall_drains;
        if (producer.app_time < producer.drain_clock) {
            Cycles stall = producer.drain_clock - producer.app_time;
            stats_.syscall_stall_cycles += stall;
            producer.stats.syscall_stall_cycles += stall;
            producer.app_time = producer.drain_clock;
        }
    }

    ++stats_.app_instructions;
    ++producer.stats.app_instructions;
    Cycles cost =
        1 + hierarchy_.instrFetch(producer.app_core, retired.pc);
    if (retired.mem_bytes > 0) {
        cost += hierarchy_.dataAccess(producer.app_core, retired.mem_addr,
                                      retired.mem_is_write);
    }
    producer.app_time += cost;
    stats_.app_cycles += cost;
    producer.stats.app_cycles += cost;
}

void
PipelineTimer::noteSyscall(unsigned producer)
{
    assertCoordinator();
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    if (config_.syscall_stall) producers_[producer].pending_drain = true;
}

Cycles
PipelineTimer::drainProducer(unsigned producer_idx)
{
    assertCoordinator();
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    flushPending();
    Producer& producer = producers_[producer_idx];
    if (producer.app_time >= producer.drain_clock) return 0;
    Cycles stall = producer.drain_clock - producer.app_time;
    producer.app_time = producer.drain_clock;
    stats_.containment_cycles += stall;
    producer.stats.containment_cycles += stall;
    return stall;
}

void
PipelineTimer::chargeContainment(unsigned producer_idx, Cycles cycles)
{
    assertCoordinator();
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    Producer& producer = producers_[producer_idx];
    producer.app_time += cycles;
    stats_.containment_cycles += cycles;
    producer.stats.containment_cycles += cycles;
}

unsigned
PipelineTimer::producerCore(unsigned producer_idx) const
{
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    return producers_[producer_idx].app_core;
}

Cycles
PipelineTimer::finishShard(unsigned producer_idx, unsigned lane_idx,
                           lifeguard::DispatchEngine& engine)
{
    assertCoordinator();
    LBA_ASSERT(!finished_, "finishShard() after seal()");
    LBA_ASSERT(producer_idx < producers_.size(), "bad producer index");
    LBA_ASSERT(lane_idx < lanes_.size(), "bad lane index");
    flushPending();
    Producer& producer = producers_[producer_idx];
    Lane& lane = lanes_[lane_idx];
    // The final pass runs once the producer's application has exited and
    // the lane has consumed its last record; the cost lands on that
    // lane's own clock, so an expensive final pass on one shard does not
    // charge the rest.
    Cycles fc = engine.finish();
    lane.last_finish = std::max(producer.app_time, lane.last_finish) + fc;
    lane.busy_cycles += fc;
    producer.stats.lifeguard_busy_cycles += fc;
    producer.drain_clock = std::max(producer.drain_clock, lane.last_finish);
    return lane.last_finish;
}

void
PipelineTimer::seal()
{
    assertCoordinator();
    LBA_ASSERT(!finished_, "seal() called twice");
    flushPending();
    finished_ = true;
    // No further flushes can carry work: park the worker threads. The
    // join also closes the happens-before chain, so the end-of-run
    // stats and findings reads below and after are race-free.
    if (executor_) executor_->stopAndJoin();

    Cycles end = 0;
    std::uint64_t compressed_records = 0;
    double compressed_bytes = 0.0;
    for (Producer& producer : producers_) {
        producer.stats.total_cycles =
            std::max(producer.app_time, producer.drain_clock);
        end = std::max(end, producer.stats.total_cycles);
        producer.encoder.finishStream();
        producer.stats.bytes_per_record =
            producer.encoder.bytesPerRecord();
        producer.stats.mean_consume_lag = producer.consume_lag.mean();
        compressed_records += producer.encoder.records();
        compressed_bytes +=
            static_cast<double>(producer.encoder.bitsWritten()) / 8.0;
    }
    stats_.lifeguard_busy_cycles = 0;
    for (Lane& lane : lanes_) {
        end = std::max(end, lane.last_finish);
        stats_.lifeguard_busy_cycles += lane.busy_cycles;
    }
    stats_.total_cycles = end;
    stats_.bytes_per_record =
        compressed_records
            ? compressed_bytes / static_cast<double>(compressed_records)
            : 0.0;
    stats_.mean_consume_lag = consume_lag_.mean();
}

void
PipelineTimer::finishAll()
{
    assertCoordinator();
    for (unsigned i = 0; i < lanes(); ++i) {
        LBA_ASSERT(lanes_[i].dispatch,
                   "finishAll() needs intrinsic dispatch engines");
        finishShard(0, i, *lanes_[i].dispatch);
    }
    seal();
}

const LbaRunStats&
PipelineTimer::producerStats(unsigned producer) const
{
    syncConst();
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    return producers_[producer].stats;
}

Cycles
PipelineTimer::producerTime(unsigned producer) const
{
    LBA_ASSERT(producer < producers_.size(), "bad producer index");
    return producers_[producer].app_time;
}

lifeguard::DispatchStats
PipelineTimer::dispatchStats(unsigned lane) const
{
    syncConst();
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    LBA_ASSERT(lanes_[lane].dispatch, "lane has no dispatch engine");
    return lanes_[lane].dispatch->stats();
}

lifeguard::Lifeguard&
PipelineTimer::lifeguard(unsigned lane) const
{
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    LBA_ASSERT(lanes_[lane].lifeguard, "lane has no intrinsic lifeguard");
    // Callers read mid-run lifeguard state (findings); catch it up.
    syncConst();
    return *lanes_[lane].lifeguard;
}

Cycles
PipelineTimer::laneLastFinish(unsigned lane) const
{
    syncConst();
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    return lanes_[lane].last_finish;
}

Cycles
PipelineTimer::laneBusyCycles(unsigned lane) const
{
    syncConst();
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    return lanes_[lane].busy_cycles;
}

std::uint64_t
PipelineTimer::laneRecords(unsigned lane) const
{
    syncConst();
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    return lanes_[lane].records;
}

std::uint64_t
PipelineTimer::laneMaxOccupancy(unsigned lane) const
{
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    return lanes_[lane].max_occupancy;
}

double
PipelineTimer::laneMeanConsumeLag(unsigned lane) const
{
    syncConst();
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    return lanes_[lane].consume_lag.mean();
}

double
PipelineTimer::laneTransportBytes(unsigned lane) const
{
    syncConst();
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    return lanes_[lane].transport_bytes;
}

Cycles
PipelineTimer::laneTransportWaitCycles(unsigned lane) const
{
    syncConst();
    LBA_ASSERT(lane < lanes_.size(), "bad lane index");
    return lanes_[lane].transport_wait_cycles;
}

} // namespace lba::core
