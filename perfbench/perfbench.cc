/**
 * @file
 * perfbench: runs one closed-loop workload of lba_run-shaped
 * operations through the library's public API and prints one JSON line
 * per operation. perfbench/run.py builds this program, runs it, checks
 * every operation's output and reduces the lines to the metrics named
 * in BENCHMARK.json.
 *
 * Usage:
 *   perfbench --workload suite_serial|threaded_fused|server_pool
 *             --seed N --seconds S [--trace-out PATH]
 *
 * One *operation* is one lba_run-shaped experiment: generate the
 * program(s) from the seeded profile(s) (setup), then build the
 * Experiment or LifeguardPool, run the unmonitored baseline and run the
 * monitored platform (the timed operation; construction is counted in
 * setup as well). One caller issues operations back to back (a closed
 * loop) in whole *passes* over the workload's (profile, lifeguard)
 * pairs, until a pass ends after S seconds. Every operation builds a
 * fresh cache hierarchy, so the modelled caches start empty.
 *
 * Output, one line each, flushed as written:
 *   BEGIN {"op":k}        before operation k (a crash leaves it unmatched)
 *   REF {...}             threaded_fused: serial-batched reference digests
 *   OP {...}              after operation k: timings, digest, check inputs
 *   LAYER {...}           traced runs: per-operation layer counts
 *   END {...}             peak RSS and operation count
 *
 * With --trace-out, each operation is followed (outside its timed
 * region) by a decomposition that calls each layer on its own — the
 * functional simulator, capture, codec encode, the cache model,
 * dispatch, a serial LbaSystem/ParallelLbaSystem run, and for the pool
 * the same pool without containment. Spans (name, start, end, parent,
 * operation) are kept in memory around every call and written to PATH
 * when the run ends.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "compress/registry.h"
#include "core/lba_system.h"
#include "core/parallel.h"
#include "core/runner.h"
#include "lifeguard/dispatch.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/boundscheck.h"
#include "lifeguards/lockset.h"
#include "lifeguards/memleak.h"
#include "lifeguards/taintcheck.h"
#include "log/capture.h"
#include "replay/containment.h"
#include "sched/pool.h"
#include "stats/json.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace lba;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** User + system CPU time of the whole process (every thread). */
std::uint64_t
cpuNs()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ns = [](const timeval& tv) {
        return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
               static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
    };
    return ns(usage.ru_utime) + ns(usage.ru_stime);
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * In-memory span recorder. A disabled tracer records nothing, so the
 * untraced runs pay one branch per span.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** RAII span: [construction, destruction) under the innermost
     *  open span, tagged with the current operation. */
    class Span
    {
      public:
        Span(Tracer& tracer, const char* name)
            : tracer_(tracer), index_(tracer.open(name))
        {
        }
        ~Span() { tracer_.close(index_); }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

      private:
        Tracer& tracer_;
        long index_;
    };

    bool enabled() const { return enabled_; }
    void setOp(std::uint64_t op) { op_ = op; }

    /** Write every span as a JSON array. @return False on I/O error. */
    bool
    write(const std::string& path) const
    {
        std::FILE* file = std::fopen(path.c_str(), "w");
        if (!file) return false;
        std::fprintf(file, "[\n");
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record& r = records_[i];
            std::fprintf(file,
                         "{\"name\":\"%s\",\"start_ns\":%llu,"
                         "\"end_ns\":%llu,\"parent\":%ld,\"op\":%llu}%s\n",
                         r.name,
                         static_cast<unsigned long long>(r.start_ns),
                         static_cast<unsigned long long>(r.end_ns),
                         r.parent, static_cast<unsigned long long>(r.op),
                         i + 1 < records_.size() ? "," : "");
        }
        std::fprintf(file, "]\n");
        return std::fclose(file) == 0;
    }

  private:
    struct Record
    {
        const char* name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        long parent;
        std::uint64_t op;
    };

    long
    open(const char* name)
    {
        if (!enabled_) return -1;
        records_.push_back({name, nowNs(), 0, current_, op_});
        current_ = static_cast<long>(records_.size()) - 1;
        return current_;
    }

    void
    close(long index)
    {
        if (index < 0) return;
        records_[static_cast<std::size_t>(index)].end_ns = nowNs();
        current_ = records_[static_cast<std::size_t>(index)].parent;
    }

    bool enabled_;
    std::vector<Record> records_;
    long current_ = -1;
    std::uint64_t op_ = 0;
};

using Span = Tracer::Span;

core::LifeguardFactory
factoryFor(const std::string& name)
{
    if (name == "addrcheck") {
        return [] { return std::make_unique<lifeguards::AddrCheck>(); };
    }
    if (name == "taintcheck") {
        return [] { return std::make_unique<lifeguards::TaintCheck>(); };
    }
    if (name == "lockset") {
        return [] { return std::make_unique<lifeguards::LockSet>(); };
    }
    if (name == "bounds") {
        return [] { return std::make_unique<lifeguards::BoundsCheck>(); };
    }
    LBA_ASSERT(name == "memleak", "unknown lifeguard name");
    return [] { return std::make_unique<lifeguards::MemLeak>(); };
}

/** Shards of every threaded run (2 workers + the caller = 3 threads). */
constexpr unsigned kThreadedShards = 2;

enum class Shape
{
    /** Serial Experiment::runLba, batched tier. */
    kSuite,
    /** Experiment::runParallelLba, threaded execution, fused tier. */
    kThreaded,
    /** LifeguardPool with containment. */
    kPool,
};

/** One (program(s), lifeguard) combination a pass runs once. */
struct Pair
{
    std::string key;
    /** The program's profile, or each pool tenant's. */
    std::vector<std::string> profiles;
    std::string lifeguard;
    /** Dynamic instructions per generated program. */
    std::uint64_t instructions = 0;
    workload::BugInjection bugs;
    /** Finding kinds every pool tenant must report at least once. */
    std::vector<lifeguard::FindingKind> expected;
};

struct Workload
{
    Shape shape = Shape::kSuite;
    std::vector<Pair> pairs;
    /** Lifeguard lanes (pool) or shards (threaded). */
    unsigned lanes = 1;
};

bool
makeWorkload(const std::string& name, Workload* out)
{
    Workload w;
    if (name == "suite_serial") {
        w.shape = Shape::kSuite;
        for (const workload::Profile& p : workload::singleThreadedSuite()) {
            for (const char* guard : {"addrcheck", "taintcheck"}) {
                w.pairs.push_back({p.name + "/" + guard, {p.name}, guard,
                                   250'000, {}, {}});
            }
        }
        for (const workload::Profile& p : workload::multiThreadedSuite()) {
            w.pairs.push_back({p.name + "/lockset", {p.name}, "lockset",
                               250'000, {}, {}});
        }
    } else if (name == "threaded_fused") {
        w.shape = Shape::kThreaded;
        w.lanes = kThreadedShards;
        for (const char* profile : {"gzip", "mcf", "gs", "tidy"}) {
            for (const char* guard : {"addrcheck", "bounds"}) {
                w.pairs.push_back({std::string(profile) + "/" + guard,
                                   {profile}, guard, 100'000, {}, {}});
            }
        }
    } else if (name == "server_pool") {
        w.shape = Shape::kPool;
        w.lanes = 2;
        std::vector<std::string> tenants = {"req_serve", "req_churn",
                                            "req_serve", "req_churn"};
        // MemLeak reports the leaks; BoundsCheck the use-after-free.
        // BoundsCheck runs get `uaf` alone: the generator's leak knob
        // skips the free of every 64th request, which includes every
        // 128th request the uaf knob reloads, so with both knobs the
        // reload hits a live block and there is no use-after-free.
        workload::BugInjection leak_bugs;
        leak_bugs.use_after_free = true;
        leak_bugs.leak = true;
        workload::BugInjection uaf_bugs;
        uaf_bugs.use_after_free = true;
        // Four tenant sizes spread the operation times, so the median
        // moves smoothly, not in a step, as the host's speed drifts.
        for (std::uint64_t k : {50, 100, 150, 200}) {
            std::string size = "@" + std::to_string(k) + "k";
            w.pairs.push_back({"pool/memleak" + size, tenants, "memleak",
                               k * 1000, leak_bugs,
                               {lifeguard::FindingKind::kLeakSuspect,
                                lifeguard::FindingKind::kMemoryLeak}});
            w.pairs.push_back({"pool/bounds" + size, tenants, "bounds",
                               k * 1000, uaf_bugs,
                               {lifeguard::FindingKind::kTagMismatch}});
        }
    } else {
        return false;
    }
    *out = std::move(w);
    return true;
}

/** The profile @p name with its generation seed mixed with @p seed. */
workload::Profile
seededProfile(const std::string& name, std::uint64_t seed)
{
    workload::Profile profile = *workload::findProfile(name);
    profile.seed = splitmix(seed ^ splitmix(profile.seed));
    return profile;
}

/** The SYS_READ stream seed of input stream @p stream under @p seed. */
std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t stream)
{
    return splitmix(splitmix(seed) + stream);
}

/** Stable per-name stream index (so a profile's input is the same under
 *  every lifeguard of a pass). */
std::uint64_t
nameStream(const std::string& name)
{
    std::uint64_t h = 1469598103934665603ull;
    for (char c : name) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return h;
}

std::string
formatDigest(Cycles base, Cycles monitored, std::uint64_t findings,
             double transport_bytes)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "base=%llu cycles=%llu findings=%llu bytes=%.17g",
                  static_cast<unsigned long long>(base),
                  static_cast<unsigned long long>(monitored),
                  static_cast<unsigned long long>(findings),
                  transport_bytes);
    return buf;
}

void
emit(const char* tag, const stats::JsonWriter& json)
{
    std::printf("%s %s\n", tag, json.str().c_str());
    std::fflush(stdout);
}

/** The experiment configuration of one operation. */
core::ExperimentConfig
experimentConfig(const Workload& w, std::uint64_t input_seed)
{
    core::ExperimentConfig config;
    config.process.input_seed = input_seed;
    if (w.shape == Shape::kThreaded) {
        config.lba.dispatch_tier = core::DispatchTier::kFused;
        config.lba.execution = core::ExecutionMode::kThreaded;
    }
    return config;
}

sched::PoolConfig
poolConfig(const Workload& w, bool contained)
{
    sched::PoolConfig config;
    config.lanes = w.lanes;
    config.policy = sched::Policy::kLagAware;
    config.containment.enabled = contained;
    config.containment.policy = replay::RepairPolicy::kQuarantine;
    return config;
}

/** The generated programs of one operation, with their input seeds. */
struct Programs
{
    std::vector<std::vector<isa::Instruction>> programs;
    std::vector<std::uint64_t> input_seeds;
};

/** Per-operation model outputs the checks and per-layer metrics use. */
struct OpOut
{
    std::uint64_t setup_ns = 0;
    std::uint64_t run_ns = 0;
    std::uint64_t monitored_ns = 0;
    std::uint64_t monitored_cpu_ns = 0;
    std::uint64_t instructions = 0;
    std::uint64_t findings = 0;
    std::string digest;
    /** Simulated: lifeguard-lane busy cycles over lanes x makespan. */
    std::uint64_t busy_cycles = 0;
    std::uint64_t lane_cycles = 0;
    std::uint64_t lane_steals = 0;
    std::uint64_t rejected = 0;
    replay::ContainmentStats containment;

    struct Tenant
    {
        std::string name;
        std::uint64_t expected_findings = 0;
        bool aborted = false;
        bool rejected = false;
    };
    std::vector<Tenant> tenants;
};

void
addContainment(replay::ContainmentStats& sum,
               const replay::ContainmentStats& add)
{
    sum.checkpoints += add.checkpoints;
    sum.rewinds += add.rewinds;
    sum.rewound_instructions += add.rewound_instructions;
    sum.max_window_entries =
        std::max(sum.max_window_entries, add.max_window_entries);
}

/** Layer counts of one decomposition (summed over an op's programs). */
struct LayerCounts
{
    std::uint64_t instructions = 0;
    std::uint64_t records = 0;
    std::uint64_t encoded_bits = 0;
    std::uint64_t mem_accesses = 0;
    std::uint64_t l1d_accesses = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t batch_records = 0;
    std::uint64_t batches = 0;
    std::uint64_t syscall_drains = 0;
    std::uint64_t backpressure_cycles = 0;
    std::uint64_t anatomy_cycles = 0;
    /** Process CPU time of the threaded.monitored spans. */
    std::uint64_t threaded_cpu_ns = 0;
    /** The standalone encoder's stream equals the platform's. */
    bool encoder_identity = true;
};

class Runner
{
  public:
    Runner(const Workload& workload, std::uint64_t seed, Tracer& tracer)
        : w_(workload), seed_(seed), tracer_(tracer)
    {
    }

    /** Generate the programs of @p pair (the setup's first half). */
    Programs
    generate(const Pair& pair) const
    {
        Programs out;
        std::map<std::string, std::size_t> generated;
        for (std::size_t t = 0; t < pair.profiles.size(); ++t) {
            const std::string& name = pair.profiles[t];
            auto it = generated.find(name);
            if (it != generated.end()) {
                out.programs.push_back(out.programs[it->second]);
            } else {
                generated[name] = out.programs.size();
                out.programs.push_back(
                    workload::generate(seededProfile(name, seed_),
                                       pair.bugs, pair.instructions)
                        .program);
            }
            // Suite programs get one input stream per profile; pool
            // tenants one each, so they are not in lockstep.
            out.input_seeds.push_back(inputSeed(
                seed_, w_.shape == Shape::kPool ? t : nameStream(name)));
        }
        return out;
    }

    /** Serial-batched reference digest of a threaded_fused pair. */
    std::string
    reference(const Pair& pair) const
    {
        Programs programs = generate(pair);
        core::ExperimentConfig config =
            experimentConfig(w_, programs.input_seeds[0]);
        config.lba.dispatch_tier = core::DispatchTier::kBatched;
        config.lba.execution = core::ExecutionMode::kSerial;
        core::Experiment experiment(programs.programs[0], config);
        core::PlatformResult result =
            experiment.runParallelLba(factoryFor(pair.lifeguard), w_.lanes);
        return formatDigest(experiment.unmonitored().cycles, result.cycles,
                            result.findings.size(),
                            result.parallel.transport_bytes);
    }

    /** One operation; the programs are generated here (setup). */
    OpOut
    run(const Pair& pair, Programs* programs_out)
    {
        OpOut out;
        Span op_span(tracer_, "op");
        std::uint64_t setup_start = nowNs();
        Programs programs;
        {
            Span setup(tracer_, "setup");
            Span generate_span(tracer_, "workload.generate");
            programs = generate(pair);
        }
        std::uint64_t run_start = nowNs();
        if (w_.shape == Shape::kPool) {
            runPool(pair, programs, &out);
        } else {
            runExperiment(pair, programs, &out);
        }
        out.run_ns = nowNs() - run_start;
        out.setup_ns += run_start - setup_start;
        *programs_out = std::move(programs);
        return out;
    }

    /** The traced run's layer-by-layer decomposition of one op. */
    LayerCounts
    decompose(const Pair& pair, const Programs& programs)
    {
        Span span(tracer_, "decompose");
        LayerCounts counts;
        core::LifeguardFactory factory = factoryFor(pair.lifeguard);
        for (std::size_t i = 0; i < programs.programs.size(); ++i) {
            decomposeProgram(programs.programs[i],
                             programs.input_seeds[i], factory, &counts);
        }
        if (w_.shape != Shape::kPool) {
            threadedVsSerial(programs, factory, &counts);
        }
        if (w_.shape == Shape::kPool) {
            // The same pool operation without containment.
            sched::LifeguardPool pool(poolConfig(w_, false), factory);
            addTenants(pool, pair, programs);
            Span rerun(tracer_, "replay.uncontained");
            pool.run();
        }
        return counts;
    }

  private:
    /**
     * The threaded layer: the operation's program on 2 shards, fused
     * tier, with threaded execution against the same run serially. On
     * suite_serial this is the only place threaded execution runs.
     */
    void
    threadedVsSerial(const Programs& programs,
                     const core::LifeguardFactory& factory,
                     LayerCounts* counts)
    {
        core::ExperimentConfig config;
        config.process.input_seed = programs.input_seeds[0];
        config.lba.dispatch_tier = core::DispatchTier::kFused;
        core::Experiment serial(programs.programs[0], config);
        serial.unmonitored();
        {
            Span span(tracer_, "threaded.serial");
            serial.runParallelLba(factory, kThreadedShards);
        }
        config.lba.execution = core::ExecutionMode::kThreaded;
        core::Experiment threaded(programs.programs[0], config);
        threaded.unmonitored();
        std::uint64_t cpu_start = cpuNs();
        {
            Span span(tracer_, "threaded.monitored");
            threaded.runParallelLba(factory, kThreadedShards);
        }
        counts->threaded_cpu_ns += cpuNs() - cpu_start;
    }

    void
    runExperiment(const Pair& pair, const Programs& programs, OpOut* out)
    {
        std::uint64_t construct_start = nowNs();
        std::unique_ptr<core::Experiment> experiment;
        {
            Span span(tracer_, "core.construct");
            experiment = std::make_unique<core::Experiment>(
                programs.programs[0],
                experimentConfig(w_, programs.input_seeds[0]));
        }
        out->setup_ns += nowNs() - construct_start;
        Cycles base = 0;
        {
            Span span(tracer_, "sim.unmonitored");
            base = experiment->unmonitored().cycles;
        }
        core::LifeguardFactory factory = factoryFor(pair.lifeguard);
        core::PlatformResult result;
        std::uint64_t cpu_start = cpuNs();
        std::uint64_t start = nowNs();
        {
            Span span(tracer_, "core.monitored");
            result = w_.shape == Shape::kThreaded
                         ? experiment->runParallelLba(factory, w_.lanes)
                         : experiment->runLba(factory);
        }
        out->monitored_ns = nowNs() - start;
        out->monitored_cpu_ns = cpuNs() - cpu_start;
        out->instructions = result.instructions;
        out->findings = result.findings.size();
        if (w_.shape == Shape::kThreaded) {
            out->digest = formatDigest(base, result.cycles, out->findings,
                                       result.parallel.transport_bytes);
            for (Cycles busy : result.parallel.shard_busy_cycles) {
                out->busy_cycles += busy;
            }
            out->lane_cycles = result.cycles * w_.lanes;
        } else {
            out->digest = formatDigest(base, result.cycles, out->findings,
                                       result.lba.transport_bytes);
            out->busy_cycles = result.lba.lifeguard_busy_cycles;
            out->lane_cycles = result.cycles;
        }
    }

    void
    addTenants(sched::LifeguardPool& pool, const Pair& pair,
               const Programs& programs) const
    {
        for (std::size_t t = 0; t < programs.programs.size(); ++t) {
            sched::TenantConfig tenant;
            tenant.name = pair.profiles[t] + "#" + std::to_string(t);
            tenant.program = programs.programs[t];
            tenant.process.input_seed = programs.input_seeds[t];
            pool.addTenant(std::move(tenant));
        }
    }

    void
    runPool(const Pair& pair, const Programs& programs, OpOut* out)
    {
        std::uint64_t construct_start = nowNs();
        std::unique_ptr<sched::LifeguardPool> pool;
        {
            Span span(tracer_, "core.construct");
            pool = std::make_unique<sched::LifeguardPool>(
                poolConfig(w_, true), factoryFor(pair.lifeguard));
            addTenants(*pool, pair, programs);
        }
        out->setup_ns += nowNs() - construct_start;
        sched::PoolResult result;
        std::uint64_t cpu_start = cpuNs();
        std::uint64_t start = nowNs();
        {
            // pool.run() runs every tenant's unmonitored baseline, then
            // the monitored pool.
            Span span(tracer_, "core.monitored");
            Span pool_span(tracer_, "sched.pool_run");
            result = pool->run();
        }
        out->monitored_ns = nowNs() - start;
        out->monitored_cpu_ns = cpuNs() - cpu_start;
        for (const sched::TenantStats& tenant : result.tenants) {
            OpOut::Tenant check;
            check.name = tenant.name;
            check.aborted = tenant.aborted;
            check.rejected = tenant.rejected;
            for (const lifeguard::Finding& finding : tenant.findings) {
                if (std::find(pair.expected.begin(), pair.expected.end(),
                              finding.kind) != pair.expected.end()) {
                    ++check.expected_findings;
                }
            }
            out->tenants.push_back(check);
            out->instructions += tenant.instructions;
            out->findings += tenant.findings.size();
            out->rejected += tenant.rejected ? 1 : 0;
            addContainment(out->containment, tenant.containment);
        }
        for (Cycles busy : result.lane_busy_cycles) out->busy_cycles += busy;
        out->lane_cycles = result.total_cycles * w_.lanes;
        out->lane_steals = result.lane_steals;
        Cycles base = 0;
        for (const sched::TenantStats& tenant : result.tenants) {
            base += tenant.unmonitored_cycles;
        }
        out->digest = formatDigest(base, result.total_cycles, out->findings,
                                   result.aggregate.transport_bytes);
    }

    void
    decomposeProgram(const std::vector<isa::Instruction>& program,
                     std::uint64_t input_seed,
                     const core::LifeguardFactory& factory,
                     LayerCounts* counts)
    {
        sim::ProcessConfig process_config;
        process_config.input_seed = input_seed;

        if (w_.shape == Shape::kPool) {
            // Suite and threaded ops time this inside the operation.
            core::ExperimentConfig config;
            config.process = process_config;
            core::Experiment experiment(program, config);
            Span span(tracer_, "sim.unmonitored");
            experiment.unmonitored();
        }
        {
            sim::Process process(process_config);
            process.load(program);
            Span span(tracer_, "sim.functional");
            counts->instructions += process.run(nullptr).instructions;
        }
        log::RecordingObserver recorder;
        {
            sim::Process process(process_config);
            process.load(program);
            Span span(tracer_, "log.capture");
            process.run(&recorder);
        }
        const std::vector<log::EventRecord>& stream = recorder.stream;
        counts->records += stream.size();

        std::unique_ptr<compress::Encoder> encoder =
            compress::CodecRegistry::instance()
                .find(compress::kDefaultCodec)
                ->makeEncoder();
        {
            Span span(tracer_, "compress.encode");
            for (const log::EventRecord& record : stream) {
                encoder->append(record);
            }
        }
        counts->encoded_bits += encoder->bitsWritten();

        {
            mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
            std::uint64_t accesses = 0;
            {
                Span span(tracer_, "mem.replay");
                for (const log::EventRecord& record : stream) {
                    if (log::isAnnotation(record.type)) continue;
                    hierarchy.instrFetch(0, record.pc);
                    ++accesses;
                    if (record.type == log::EventType::kLoad ||
                        record.type == log::EventType::kStore) {
                        hierarchy.dataAccess(
                            0, record.addr,
                            record.type == log::EventType::kStore);
                        ++accesses;
                    }
                }
            }
            counts->mem_accesses += accesses;
            counts->l1d_accesses += hierarchy.l1d(0).stats().accesses();
            counts->l1d_misses += hierarchy.l1d(0).stats().misses;
            counts->l2_accesses += hierarchy.l2().stats().accesses();
            counts->l2_misses += hierarchy.l2().stats().misses;
        }

        // The op's platform, serial, built by hand for its
        // DispatchStats: records per batch and batch (barrier) rounds.
        std::uint64_t records = 0;
        std::uint64_t batches = 0;
        threading::assumeCoordinatorRole();
        if (w_.shape == Shape::kThreaded) {
            mem::HierarchyConfig hc;
            hc.num_cores = 1 + w_.lanes;
            mem::CacheHierarchy hierarchy(hc);
            core::LbaConfig lba;
            lba.dispatch_tier = core::DispatchTier::kFused;
            core::ParallelLbaSystem system(
                factory, hierarchy, core::ParallelLbaConfig(lba, w_.lanes));
            sim::Process process(process_config);
            process.load(program);
            {
                Span span(tracer_, "core.anatomy");
                process.run(&system);
                system.finish();
            }
            for (unsigned s = 0; s < system.shards(); ++s) {
                lifeguard::DispatchStats stats = system.dispatchStats(s);
                records += stats.records;
                batches += stats.batches;
            }
            counts->syscall_drains += system.stats().syscall_drains;
            counts->backpressure_cycles +=
                system.stats().backpressure_stall_cycles;
            counts->anatomy_cycles += system.stats().total_cycles;
            double bpr = system.stats().bytes_per_record;
            double standalone = encoder->bytesPerRecord();
            if (std::abs(bpr - standalone) > 1e-9 * std::max(1.0, bpr)) {
                counts->encoder_identity = false;
            }
        } else {
            mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
            std::unique_ptr<lifeguard::Lifeguard> guard = factory();
            core::LbaSystem system(*guard, hierarchy);
            sim::Process process(process_config);
            process.load(program);
            {
                Span span(tracer_, "core.anatomy");
                process.run(&system);
                system.finish();
            }
            lifeguard::DispatchStats stats = system.dispatchStats();
            records = stats.records;
            batches = stats.batches;
            counts->syscall_drains += system.stats().syscall_drains;
            counts->backpressure_cycles +=
                system.stats().backpressure_stall_cycles;
            counts->anatomy_cycles += system.stats().total_cycles;
            if (system.encoder().bitsWritten() != encoder->bitsWritten()) {
                counts->encoder_identity = false;
            }
        }
        counts->batch_records += records;
        counts->batches += batches;

        std::size_t batch = batches ? static_cast<std::size_t>(std::max<
                                          double>(1.0, std::round(
                                              static_cast<double>(records) /
                                              static_cast<double>(batches))))
                                    : 1;
        counts->dispatched += stream.size();
        dispatch(stream, factory, batch, "lifeguard.dispatch");
        dispatch(stream, factory, 4096, "lifeguard.dispatch_4k");
    }

    /** Drain @p stream through a fresh engine in @p batch-record spans,
     *  on the op's dispatch tier. */
    void
    dispatch(const std::vector<log::EventRecord>& stream,
             const core::LifeguardFactory& factory, std::size_t batch,
             const char* name)
    {
        std::unique_ptr<lifeguard::Lifeguard> guard = factory();
        mem::CacheHierarchy hierarchy(mem::HierarchyConfig{});
        lifeguard::DispatchEngine engine(*guard, hierarchy, {1, 1});
        threading::assumeCoordinatorRole();
        engine.assumeFunctionalOwner();
        bool fused = w_.shape == Shape::kThreaded;
        Span span(tracer_, name);
        for (std::size_t i = 0; i < stream.size(); i += batch) {
            std::size_t n = std::min(batch, stream.size() - i);
            if (fused) {
                engine.consumeBatchFused(stream.data() + i, n);
            } else {
                engine.consumeBatch(stream.data() + i, n);
            }
        }
    }

    const Workload& w_;
    std::uint64_t seed_;
    Tracer& tracer_;
};

void
emitOp(std::uint64_t op, std::uint64_t pass, const Pair& pair,
       const OpOut& out)
{
    stats::JsonWriter json;
    json.beginObject();
    json.field("op", op);
    json.field("pass", pass);
    json.field("key", pair.key);
    json.field("setup_ns", out.setup_ns);
    json.field("run_ns", out.run_ns);
    json.field("monitored_ns", out.monitored_ns);
    json.field("monitored_cpu_ns", out.monitored_cpu_ns);
    json.field("instructions", out.instructions);
    json.field("findings", out.findings);
    json.field("digest", out.digest);
    json.field("busy_cycles", out.busy_cycles);
    json.field("lane_cycles", out.lane_cycles);
    json.field("lane_steals", out.lane_steals);
    json.field("rejected", out.rejected);
    json.field("checkpoints", out.containment.checkpoints);
    json.field("rewinds", out.containment.rewinds);
    json.field("rewound_instructions",
               out.containment.rewound_instructions);
    json.field("max_window_entries", out.containment.max_window_entries);
    json.key("tenants");
    json.beginArray();
    for (const OpOut::Tenant& tenant : out.tenants) {
        json.beginObject();
        json.field("name", tenant.name);
        json.field("expected_findings", tenant.expected_findings);
        json.field("aborted", tenant.aborted);
        json.field("rejected", tenant.rejected);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    emit("OP", json);
}

void
emitLayer(std::uint64_t op, const LayerCounts& c)
{
    stats::JsonWriter json;
    json.beginObject();
    json.field("op", op);
    json.field("instructions", c.instructions);
    json.field("records", c.records);
    json.field("encoded_bits", c.encoded_bits);
    json.field("mem_accesses", c.mem_accesses);
    json.field("l1d_accesses", c.l1d_accesses);
    json.field("l1d_misses", c.l1d_misses);
    json.field("l2_accesses", c.l2_accesses);
    json.field("l2_misses", c.l2_misses);
    json.field("dispatched", c.dispatched);
    json.field("batch_records", c.batch_records);
    json.field("batches", c.batches);
    json.field("syscall_drains", c.syscall_drains);
    json.field("backpressure_cycles", c.backpressure_cycles);
    json.field("anatomy_cycles", c.anatomy_cycles);
    json.field("threaded_cpu_ns", c.threaded_cpu_ns);
    json.field("encoder_identity", c.encoder_identity);
    json.endObject();
    emit("LAYER", json);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "suite_serial|threaded_fused|server_pool\n"
                 "                 --seed N --seconds S "
                 "[--trace-out PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload_name;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    std::string trace_out;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string arg = argv[i];
        if (arg == "--workload") {
            workload_name = argv[i + 1];
        } else if (arg == "--seed") {
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(argv[i + 1], nullptr);
        } else if (arg == "--trace-out") {
            trace_out = argv[i + 1];
        } else {
            return usage();
        }
    }
    Workload w;
    if (argc % 2 == 0 || !makeWorkload(workload_name, &w) ||
        !(seconds > 0.0)) {
        return usage();
    }

    Tracer tracer(!trace_out.empty());
    Runner runner(w, seed, tracer);

    // References stay outside the timed loop.
    if (w.shape == Shape::kThreaded) {
        stats::JsonWriter json;
        json.beginObject();
        for (const Pair& pair : w.pairs) {
            json.field(pair.key, runner.reference(pair));
        }
        json.endObject();
        emit("REF", json);
    }

    std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t op = 0;
    for (std::uint64_t pass = 0; pass == 0 || nowNs() < deadline; ++pass) {
        for (const Pair& pair : w.pairs) {
            tracer.setOp(op);
            stats::JsonWriter begin;
            begin.beginObject();
            begin.field("op", op);
            begin.endObject();
            emit("BEGIN", begin);
            try {
                Programs programs;
                OpOut out = runner.run(pair, &programs);
                emitOp(op, pass, pair, out);
                if (tracer.enabled()) {
                    emitLayer(op, runner.decompose(pair, programs));
                }
            } catch (const std::exception& e) {
                stats::JsonWriter json;
                json.beginObject();
                json.field("op", op);
                json.field("key", pair.key);
                json.field("error", std::string(e.what()));
                json.endObject();
                emit("OP", json);
            }
            ++op;
        }
    }

    if (tracer.enabled() && !tracer.write(trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
    }
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    stats::JsonWriter end;
    end.beginObject();
    end.field("ops", op);
    end.field("rss_kb", static_cast<std::uint64_t>(usage_now.ru_maxrss));
    end.endObject();
    emit("END", end);
    return 0;
}
