/**
 * @file
 * lba_run — run a benchmark under a chosen lifeguard on each platform
 * and print the full report: the command-line face of the library.
 *
 * Usage:
 *   lba_run <benchmark> <addrcheck|taintcheck|lockset|bounds|memleak>
 *           [--instrs N] [--platform lba|dbi|both] [--shards N]
 *           [--transport-bw BYTES_PER_CYCLE]
 *           [--bugs uaf,double-free,leak,tainted-jump,race]
 *           [--tenants N] [--lanes M] [--sched static|rr|lag]
 *           [--containment abort|skip|patch|quarantine]
 *           [--checkpoint-interval N] [--json PATH]
 *           [--dispatch batched|per-record|fused]
 *           [--execution serial|threaded]
 *
 * With --tenants N the benchmark argument may be a comma-separated
 * list of profiles; the N tenants cycle through it and share an M-lane
 * lifeguard pool under the chosen scheduling policy (src/sched/). The
 * pool is LBA-only and unsharded, so --platform dbi and --shards are
 * usage errors there, as --shards is on a DBI-only run.
 * Every flag takes its value as `--flag value` or `--flag=value`;
 * numeric values must be plain non-negative decimal numbers that fit
 * their type (anything else is a usage error, exit 2).
 * --containment enables rewind-and-repair containment under the chosen
 * repair policy (src/replay/containment.h). --dispatch selects the
 * lifeguard-core dispatch tier: `batched` (the default) drains records
 * in batches through the per-event-type handler tables, `fused` drains
 * the same batches through compiled handler IR (specialized loops, no
 * per-record table lookup), `per-record` consumes each record the
 * moment it is logged through the same handler tables; all three are
 * cycle-identical by construction (docs/ARCHITECTURE.md). --execution
 * selects the host execution mode: `threaded` runs lifeguard handlers
 * on one worker thread per lane while every simulated cycle count
 * stays bit-identical to `serial` (docs/ARCHITECTURE.md "Threaded
 * execution"); it requires a batching dispatch tier. --json writes a
 * machine-readable copy of the report to PATH.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.h"
#include "lifeguards/addrcheck.h"
#include "lifeguards/boundscheck.h"
#include "lifeguards/lockset.h"
#include "lifeguards/memleak.h"
#include "lifeguards/taintcheck.h"
#include "replay/containment.h"
#include "sched/pool.h"
#include "stats/json.h"
#include "workload/generator.h"
#include "workload/profile.h"

#include "parse_number.h"

namespace {

using namespace lba;
using tools::parseNumber;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: lba_run <benchmark[,benchmark...]> "
        "<addrcheck|taintcheck|lockset|bounds|memleak>\n"
        "               [--instrs N] [--platform lba|dbi|both]\n"
        "               [--shards N] [--transport-bw BYTES_PER_CYCLE]\n"
        "               [--bugs uaf,double-free,leak,tainted-jump,race]\n"
        "               [--tenants N] [--lanes M] "
        "[--sched static|rr|lag]\n"
        "               [--containment abort|skip|patch|quarantine]\n"
        "               [--checkpoint-interval N] [--json PATH]\n"
        "               [--dispatch batched|per-record|fused]\n"
        "               [--execution serial|threaded]\n");
    return 2;
}

void
printContainment(const replay::ContainmentStats& stats, bool aborted)
{
    std::printf("    containment: %llu checkpoints, %llu rewinds "
                "(max distance %llu instrs), %llu cycles charged%s\n",
                static_cast<unsigned long long>(stats.checkpoints),
                static_cast<unsigned long long>(stats.rewinds),
                static_cast<unsigned long long>(
                    stats.max_rewind_distance),
                static_cast<unsigned long long>(
                    stats.rewind_cycles + stats.checkpoint_stall_cycles),
                aborted ? " [aborted]" : "");
    std::printf("    repairs: %llu patched, %llu skipped, "
                "%llu quarantined, %llu aborted, %llu suppressed\n",
                static_cast<unsigned long long>(stats.repairs.patched),
                static_cast<unsigned long long>(stats.repairs.skipped),
                static_cast<unsigned long long>(
                    stats.repairs.quarantined),
                static_cast<unsigned long long>(stats.repairs.aborted),
                static_cast<unsigned long long>(
                    stats.repairs.suppressed));
}

void
appendContainmentJson(stats::JsonWriter& json, replay::RepairPolicy policy,
                      const replay::ContainmentStats& stats, bool aborted)
{
    json.key("containment");
    json.beginObject();
    json.field("policy", replay::repairPolicyName(policy));
    json.field("aborted", aborted);
    json.field("checkpoints", stats.checkpoints);
    json.field("syscall_checkpoints", stats.syscall_checkpoints);
    json.field("interval_checkpoints", stats.interval_checkpoints);
    json.field("undo_entries", stats.undo_entries);
    json.field("max_window_entries", stats.max_window_entries);
    json.field("rewinds", stats.rewinds);
    json.field("rewound_instructions", stats.rewound_instructions);
    json.field("max_rewind_distance", stats.max_rewind_distance);
    json.field("rewind_distance_p50",
               stats.rewind_distance.percentileUpperBound(0.50));
    json.field("rewind_distance_p95",
               stats.rewind_distance.percentileUpperBound(0.95));
    json.field("rewind_cycles",
               static_cast<std::uint64_t>(stats.rewind_cycles));
    json.field("checkpoint_stall_cycles",
               static_cast<std::uint64_t>(stats.checkpoint_stall_cycles));
    json.key("repairs");
    json.beginObject();
    json.field("patched", stats.repairs.patched);
    json.field("skipped", stats.repairs.skipped);
    json.field("quarantined", stats.repairs.quarantined);
    json.field("aborted", stats.repairs.aborted);
    json.field("suppressed", stats.repairs.suppressed);
    json.endObject();
    json.endObject();
}

void
printResult(const core::PlatformResult& result)
{
    std::printf("%-12s %12llu cycles   %6.2fx slowdown",
                result.platform.c_str(),
                static_cast<unsigned long long>(result.cycles),
                result.slowdown);
    if (result.platform == "lba") {
        std::printf("   (%.3f B/record, %llu drains)",
                    result.lba.bytes_per_record,
                    static_cast<unsigned long long>(
                        result.lba.syscall_drains));
    }
    if (result.platform == "lba-parallel") {
        std::printf("   (%.3f B/record, %llu drains)",
                    result.parallel.bytes_per_record,
                    static_cast<unsigned long long>(
                        result.parallel.syscall_drains));
    }
    std::printf("\n");
    if (result.containment_enabled) {
        printContainment(result.containment, result.aborted);
    }
    if (result.platform == "lba-parallel") {
        for (std::size_t s = 0;
             s < result.parallel.shard_busy_cycles.size(); ++s) {
            std::printf(
                "    shard %zu: %llu records, %llu busy cycles "
                "(%.0f%% occupancy), lag %.1f\n",
                s,
                static_cast<unsigned long long>(
                    result.parallel.shard_records[s]),
                static_cast<unsigned long long>(
                    result.parallel.shard_busy_cycles[s]),
                100.0 *
                    static_cast<double>(
                        result.parallel.shard_busy_cycles[s]) /
                    static_cast<double>(result.parallel.total_cycles),
                result.parallel.shard_consume_lag[s]);
        }
    }
    for (const auto& finding : result.findings) {
        std::printf("    %s\n", lifeguard::toString(finding).c_str());
    }
}

void
appendResultJson(stats::JsonWriter& json,
                 const core::PlatformResult& result,
                 replay::RepairPolicy policy)
{
    json.beginObject();
    json.field("platform", result.platform);
    json.field("instructions", result.instructions);
    json.field("cycles", static_cast<std::uint64_t>(result.cycles));
    json.field("slowdown", result.slowdown);
    json.field("findings",
               static_cast<std::uint64_t>(result.findings.size()));
    if (result.platform == "lba") {
        json.field("bytes_per_record", result.lba.bytes_per_record);
        json.field("transport_bytes", result.lba.transport_bytes);
        json.field("mean_consume_lag", result.lba.mean_consume_lag);
    }
    if (result.platform == "lba-parallel") {
        json.field("bytes_per_record",
                   result.parallel.bytes_per_record);
        json.field("transport_bytes",
                   result.parallel.transport_bytes);
        json.field("shards",
                   static_cast<std::uint64_t>(
                       result.parallel.shard_busy_cycles.size()));
    }
    if (result.containment_enabled) {
        appendContainmentJson(json, policy, result.containment,
                              result.aborted);
    }
    json.endObject();
}

/** Write @p json to @p path ("" = disabled). */
void
writeJson(const std::string& path, const stats::JsonWriter& json)
{
    if (path.empty()) return;
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(file, "%s\n", json.str().c_str());
    std::fclose(file);
}

/** Split a comma-separated benchmark list. */
std::vector<std::string>
splitList(const std::string& list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

int
runMultiTenant(const std::vector<std::string>& benchmarks,
               const std::string& lifeguard_name,
               const core::LifeguardFactory& factory,
               std::uint64_t instrs, unsigned tenants, unsigned lanes,
               sched::Policy policy, double transport_bw,
               core::DispatchTier dispatch_tier,
               core::ExecutionMode execution,
               const workload::BugInjection& bugs,
               const replay::ContainmentConfig& containment,
               const std::string& json_path)
{
    sched::PoolConfig config;
    config.lanes = lanes;
    config.policy = policy;
    config.lba.transport_bytes_per_cycle = transport_bw;
    config.lba.dispatch_tier = dispatch_tier;
    config.lba.execution = execution;
    config.containment = containment;
    sched::LifeguardPool pool(config, factory);

    for (unsigned t = 0; t < tenants; ++t) {
        const std::string& name = benchmarks[t % benchmarks.size()];
        const workload::Profile* profile = workload::findProfile(name);
        if (!profile) {
            std::fprintf(stderr, "unknown benchmark '%s'\n",
                         name.c_str());
            return 1;
        }
        auto generated = workload::generate(*profile, bugs, instrs);
        sched::TenantConfig tenant;
        tenant.name = name + "#" + std::to_string(t);
        tenant.program = generated.program;
        // Distinct input streams so tenants are not in lockstep.
        tenant.process.input_seed = 0x1234abcd + t;
        pool.addTenant(std::move(tenant));
    }
    sched::PoolResult result = pool.run();

    std::printf("%u tenants on a %u-lane %s pool, policy %s "
                "(capacity %.1f B/cycle, %llu lane steals)\n\n",
                tenants, lanes, lifeguard_name.c_str(),
                result.policy.c_str(), result.capacity_bytes_per_cycle,
                static_cast<unsigned long long>(result.lane_steals));
    std::printf("%-12s %-8s %12s %9s %8s %8s %8s %9s\n", "tenant",
                "status", "cycles", "slowdown", "lag p50", "lag p95",
                "lag p99", "findings");
    for (const sched::TenantStats& tenant : result.tenants) {
        const char* status = tenant.rejected
                                 ? "rejected"
                                 : (tenant.was_queued ? "queued" : "ok");
        std::printf("%-12s %-8s %12llu %8.2fx %8.1f %8.1f %8.1f %9zu\n",
                    tenant.name.c_str(), status,
                    static_cast<unsigned long long>(tenant.total_cycles),
                    tenant.slowdown, tenant.lag_p50, tenant.lag_p95,
                    tenant.lag_p99, tenant.findings.size());
        if (tenant.containment_enabled &&
            (tenant.containment.rewinds > 0 || tenant.aborted)) {
            printContainment(tenant.containment, tenant.aborted);
        }
    }
    std::printf("\nmakespan %llu cycles; pool busy %llu lifeguard "
                "cycles over %u lanes\n",
                static_cast<unsigned long long>(result.total_cycles),
                static_cast<unsigned long long>(
                    result.aggregate.lifeguard_busy_cycles),
                lanes);

    stats::JsonWriter json;
    json.beginObject();
    json.field("tool", "lba_run");
    json.field("mode", "multi-tenant");
    json.field("lifeguard", lifeguard_name);
    json.field("policy", result.policy);
    json.field("lanes", static_cast<std::uint64_t>(lanes));
    json.field("capacity_bytes_per_cycle",
               result.capacity_bytes_per_cycle);
    json.field("lane_steals", result.lane_steals);
    json.field("makespan_cycles",
               static_cast<std::uint64_t>(result.total_cycles));
    json.key("tenants");
    json.beginArray();
    for (const sched::TenantStats& tenant : result.tenants) {
        json.beginObject();
        json.field("name", tenant.name);
        json.field("admitted", tenant.admitted);
        json.field("queued", tenant.was_queued);
        json.field("rejected", tenant.rejected);
        json.field("instructions", tenant.instructions);
        json.field("cycles",
                   static_cast<std::uint64_t>(tenant.total_cycles));
        json.field("slowdown", tenant.slowdown);
        json.field("lag_p50", tenant.lag_p50);
        json.field("lag_p95", tenant.lag_p95);
        json.field("lag_p99", tenant.lag_p99);
        json.field("transport_bytes", tenant.lba.transport_bytes);
        json.field("findings",
                   static_cast<std::uint64_t>(tenant.findings.size()));
        if (tenant.containment_enabled) {
            appendContainmentJson(json, containment.policy,
                                  tenant.containment, tenant.aborted);
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    writeJson(json_path, json);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 3) return usage();
    std::string benchmark = argv[1];
    std::string lifeguard_name = argv[2];

    std::uint64_t instrs = 250000;
    std::string platform = "both";
    unsigned shards = 0;
    unsigned tenants = 0;
    unsigned lanes = 2;
    sched::Policy policy = sched::Policy::kStatic;
    double transport_bw = 0.0;
    std::string json_path;
    workload::BugInjection bugs;
    replay::ContainmentConfig containment;
    core::DispatchTier dispatch_tier = core::DispatchTier::kBatched;
    auto parse_dispatch = [&](const std::string& value) {
        if (value == "batched") {
            dispatch_tier = core::DispatchTier::kBatched;
        } else if (value == "per-record") {
            dispatch_tier = core::DispatchTier::kPerRecord;
        } else if (value == "fused") {
            dispatch_tier = core::DispatchTier::kFused;
        } else {
            return false;
        }
        return true;
    };
    core::ExecutionMode execution = core::ExecutionMode::kSerial;
    auto parse_execution = [&](const std::string& value) {
        if (value == "serial") {
            execution = core::ExecutionMode::kSerial;
        } else if (value == "threaded") {
            execution = core::ExecutionMode::kThreaded;
        } else {
            return false;
        }
        return true;
    };
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        // Every flag takes a value, spelled `--flag value` or
        // `--flag=value`.
        std::string value;
        std::size_t eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return usage();
        }
        bool ok = true;
        if (arg == "--instrs") {
            ok = parseNumber(value, &instrs);
        } else if (arg == "--platform") {
            platform = value;
            ok = platform == "lba" || platform == "dbi" ||
                 platform == "both";
        } else if (arg == "--shards") {
            ok = parseNumber(value, &shards);
        } else if (arg == "--tenants") {
            ok = parseNumber(value, &tenants);
        } else if (arg == "--lanes") {
            ok = parseNumber(value, &lanes);
        } else if (arg == "--sched") {
            ok = sched::parsePolicy(value, &policy);
        } else if (arg == "--transport-bw") {
            ok = parseNumber(value, &transport_bw);
        } else if (arg == "--containment") {
            containment.enabled = true;
            ok = replay::parseRepairPolicy(value, &containment.policy);
        } else if (arg == "--checkpoint-interval") {
            ok = parseNumber(value, &containment.checkpoint_interval);
        } else if (arg == "--dispatch") {
            ok = parse_dispatch(value);
        } else if (arg == "--execution") {
            ok = parse_execution(value);
        } else if (arg == "--json") {
            json_path = value;
        } else if (arg == "--bugs") {
            bugs.use_after_free = value.find("uaf") != std::string::npos;
            bugs.double_free =
                value.find("double-free") != std::string::npos;
            bugs.leak = value.find("leak") != std::string::npos;
            bugs.tainted_jump =
                value.find("tainted-jump") != std::string::npos;
            bugs.race = value.find("race") != std::string::npos;
        } else {
            ok = false;
        }
        if (!ok) return usage();
    }
    if (execution == core::ExecutionMode::kThreaded &&
        dispatch_tier == core::DispatchTier::kPerRecord) {
        // Threaded execution's cross-thread barriers are the batching
        // tiers' flush boundaries; the per-record path has none.
        std::fprintf(stderr, "--execution threaded requires "
                             "--dispatch batched|fused\n");
        return usage();
    }
    if (containment.checkpoint_interval > 0 && !containment.enabled) {
        std::fprintf(stderr, "--checkpoint-interval requires "
                             "--containment <policy>\n");
        return usage();
    }
    if (containment.enabled && platform == "dbi") {
        // Containment is an LBA-platform feature; a DBI-only run would
        // silently ignore the flag.
        std::fprintf(stderr, "--containment requires an LBA platform "
                             "(--platform lba|both)\n");
        return usage();
    }
    if (shards > 1 && platform == "dbi") {
        std::fprintf(stderr, "--shards requires an LBA platform "
                             "(--platform lba|both)\n");
        return usage();
    }
    if (tenants > 0 && (platform == "dbi" || shards > 1)) {
        // The pool runs LBA lanes only, sized by --lanes: a DBI
        // platform or a shard count would be silently ignored.
        std::fprintf(stderr, "--tenants runs the LBA lifeguard pool; "
                             "it takes neither --platform dbi nor "
                             "--shards (use --lanes)\n");
        return usage();
    }
    core::LifeguardFactory factory;
    if (lifeguard_name == "addrcheck") {
        factory = [] {
            return std::make_unique<lifeguards::AddrCheck>();
        };
    } else if (lifeguard_name == "taintcheck") {
        factory = [] {
            return std::make_unique<lifeguards::TaintCheck>();
        };
    } else if (lifeguard_name == "lockset") {
        factory = [] {
            return std::make_unique<lifeguards::LockSet>();
        };
    } else if (lifeguard_name == "bounds") {
        factory = [] {
            return std::make_unique<lifeguards::BoundsCheck>();
        };
    } else if (lifeguard_name == "memleak") {
        factory = [] {
            return std::make_unique<lifeguards::MemLeak>();
        };
    } else {
        return usage();
    }

    if (tenants > 0) {
        // A zero-lane pool is a CLI error, not a library invariant
        // violation.
        if (lanes == 0) return usage();
        auto benchmarks = splitList(benchmark);
        if (benchmarks.empty()) return usage();
        return runMultiTenant(benchmarks, lifeguard_name, factory,
                              instrs, tenants, lanes, policy,
                              transport_bw, dispatch_tier,
                              execution, bugs, containment, json_path);
    }

    const workload::Profile* profile = workload::findProfile(benchmark);
    if (!profile) {
        std::fprintf(stderr, "unknown benchmark '%s'\n",
                     benchmark.c_str());
        return 1;
    }

    auto generated = workload::generate(*profile, bugs, instrs);
    core::ExperimentConfig config;
    // The parallel platform inherits the same knob through
    // Experiment::runParallelLba (one timing engine under both).
    config.lba.transport_bytes_per_cycle = transport_bw;
    config.lba.dispatch_tier = dispatch_tier;
    config.lba.execution = execution;
    config.containment = containment;
    core::Experiment experiment(generated.program, config);
    const auto& base = experiment.unmonitored();
    std::printf("%s under %s (%llu instructions, CPI %.2f "
                "unmonitored)\n\n",
                benchmark.c_str(), lifeguard_name.c_str(),
                static_cast<unsigned long long>(base.instructions),
                static_cast<double>(base.cycles) /
                    static_cast<double>(base.instructions));
    std::vector<core::PlatformResult> results;
    printResult(base);
    results.push_back(base);
    if (platform == "lba" || platform == "both") {
        if (shards > 1) {
            results.push_back(
                experiment.runParallelLba(factory, shards));
        } else {
            results.push_back(experiment.runLba(factory));
        }
        printResult(results.back());
    }
    if (platform == "dbi" || platform == "both") {
        results.push_back(experiment.runDbi(factory));
        printResult(results.back());
    }

    stats::JsonWriter json;
    json.beginObject();
    json.field("tool", "lba_run");
    json.field("mode", "single");
    json.field("benchmark", benchmark);
    json.field("lifeguard", lifeguard_name);
    json.key("results");
    json.beginArray();
    for (const core::PlatformResult& result : results) {
        appendResultJson(json, result, containment.policy);
    }
    json.endArray();
    json.endObject();
    writeJson(json_path, json);
    return 0;
}
