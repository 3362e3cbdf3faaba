#pragma once
/**
 * @file
 * The dual-core LBA system (paper Figure 1): capture -> compress ->
 * log buffer -> decompress -> dispatch -> lifeguard, with decoupled
 * application/lifeguard cores coordinating only through the buffer.
 *
 * Timing model. Both cores are single-CPI in-order with the shared cache
 * hierarchy of mem::CacheHierarchy. Execution is driven by the
 * application's retirement stream; for every record i we compute
 *
 *   produce(i) = app core time after the instruction retires, delayed
 *                while the buffer is full (back-pressure stall);
 *   start(i)   = max(produce(i), finish(i-1));
 *   finish(i)  = start(i) + dispatch + handler cycles.
 *
 * The buffer slot for record i frees when record i-capacity finishes, so
 * a lifeguard that cannot keep up eventually stalls the application —
 * exactly the paper's decoupling semantics. Syscall containment stalls
 * the application at each syscall until the lifeguard has consumed every
 * record logged before it (Section 2).
 *
 * The value-prediction compressor runs over every logged record to
 * account transport bandwidth (< 1 byte/instruction claim); records are
 * handed to the dispatch engine functionally (the compressor's exact
 * invertibility is covered by tests and the compression benches).
 *
 * The recurrence itself lives in core::PipelineTimer (which also drives
 * the parallel system as its N-lane generalisation); LbaSystem is the
 * single-lane instantiation. docs/ARCHITECTURE.md walks this pipeline
 * and timing model in prose.
 */

#include "core/pipeline_timer.h"
#include "log/capture.h"

namespace lba::core {

/**
 * The LBA monitoring platform: a RetireObserver that owns the capture,
 * compression, buffering and dispatch pipeline for one lifeguard core.
 */
class LbaSystem : public sim::RetireObserver
{
  public:
    /**
     * @param lifeguard The lifeguard running on the lifeguard core.
     * @param hierarchy Shared cache hierarchy (needs >= 2 cores).
     * @param config    Platform configuration.
     */
    LbaSystem(lifeguard::Lifeguard& lifeguard,
              mem::CacheHierarchy& hierarchy, const LbaConfig& config = {});

    // The retire stream must stay on the thread that built the system
    // (the coordinator); the timer underneath asserts it at runtime,
    // these annotations say it statically. The sim::RetireObserver
    // base is role-agnostic, so base-pointer dispatch is vouched for
    // by the run() drivers, which assume the role once up front.
    void onRetire(const sim::Retired& retired) override
        LBA_COORDINATOR_ONLY;
    void onOsEvent(const sim::OsEvent& event) override
        LBA_COORDINATOR_ONLY;

    /**
     * Complete the run: drain the pipeline and run the lifeguard's
     * end-of-program hook. Must be called exactly once, after run().
     */
    void finish() LBA_COORDINATOR_ONLY;

    /** Statistics (valid after finish()). */
    const LbaRunStats&
    stats() const LBA_COORDINATOR_ONLY
    {
        return timer_.stats();
    }

    /** Per-event-type dispatch statistics (quiescent-read snapshot). */
    lifeguard::DispatchStats
    dispatchStats() const LBA_COORDINATOR_ONLY
    {
        return timer_.dispatchStats(0);
    }

    /** The run's log-stream encoder. */
    const compress::Encoder& encoder() const
    {
        return timer_.encoder();
    }

    lifeguard::Lifeguard&
    lifeguard() LBA_COORDINATOR_ONLY
    {
        return timer_.lifeguard(0);
    }

    /** The underlying timing engine (containment integration). */
    PipelineTimer& timer() { return timer_; }

  private:
    PipelineTimer timer_;
};

} // namespace lba::core
