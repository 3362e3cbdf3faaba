"""Statistics, output checks and metric reduction for perfbench.

run.py feeds this module the lines perfbench.cc prints;
everything here is a pure function of those lines, so
test_benchstats.py covers it without building the program.
"""

import math
import statistics

# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------

TAIL_MIN_ABOVE = 10


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    m = statistics.median(values)
    return (q3 - q1) / m if m else math.inf


def tail(values):
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile, samples_above). The value is the sample
    with exactly TAIL_MIN_ABOVE samples above it; its percentile is the
    share of samples at or below it. With too few samples for the rule
    the maximum is returned with samples_above 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_ABOVE:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_MIN_ABOVE - 1
    return ordered[rank], 100.0 * (rank + 1) / n, TAIL_MIN_ABOVE


# ---------------------------------------------------------------------------
# Output checks and failure accounting
# ---------------------------------------------------------------------------


def check_ops(workload, begun, ops, refs=None):
    """Check every operation's output.

    begun: op ids announced by BEGIN lines (attempted operations).
    ops:   OP records by op id (a crash leaves a begun op without one).
    refs:  threaded_fused serial-batched reference digests by pair key.
    Returns {op id: reason} for every failed operation.
    """
    failures = {}
    first_digest = {}
    for op_id in begun:
        op = ops.get(op_id)
        if op is None:
            failures[op_id] = "crashed: no output"
            continue
        if "error" in op:
            failures[op_id] = "exception: " + op["error"]
            continue
        key = op["key"]
        reason = None
        seen = first_digest.setdefault(key, op["digest"])
        if op["digest"] != seen:
            reason = "digest %r differs from the first %s run %r" % (
                op["digest"], key, seen)
        elif workload == "suite_serial" and op["findings"] != 0:
            reason = "clean program reported %d findings" % op["findings"]
        elif workload == "threaded_fused":
            ref = (refs or {}).get(key)
            if op["digest"] != ref:
                reason = "digest %r differs from serial-batched %r" % (
                    op["digest"], ref)
        elif workload == "server_pool":
            if not op["tenants"]:
                reason = "pool reported no tenants"
            for tenant in op["tenants"]:
                if tenant["aborted"] or tenant["rejected"]:
                    reason = "tenant %s aborted or rejected" % tenant["name"]
                elif tenant["expected_findings"] < 1:
                    reason = "tenant %s missed its injected bugs" % (
                        tenant["name"])
        if reason:
            failures[op_id] = reason
    return failures


def failed_frac(attempted, failed):
    return failed / attempted if attempted else 1.0


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced runs)
# ---------------------------------------------------------------------------


def end_to_end(ops, rss_kb):
    """ops: the checked OP records of whole passes. Returns name -> value
    plus the tail's percentile and sample count."""
    run_ms = [op["run_ns"] / 1e6 for op in ops]
    instructions = sum(op["instructions"] for op in ops)
    run_s = sum(op["run_ns"] for op in ops) / 1e9
    setup_by_pass = {}
    for op in ops:
        setup_by_pass[op["pass"]] = (
            setup_by_pass.get(op["pass"], 0) + op["setup_ns"])
    tail_ms, tail_pct, above = tail(run_ms)
    return {
        "minstr_per_s": instructions / run_s / 1e6,
        "run_ms_p50": statistics.median(run_ms),
        "run_ms_tail": tail_ms,
        "setup_s": statistics.median(setup_by_pass.values()) / 1e9,
        "peak_rss_mb": rss_kb / 1024.0,
    }, {"tail_percentile": tail_pct, "tail_samples_above": above,
        "samples": len(run_ms)}


# ---------------------------------------------------------------------------
# Traced runs: span self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time per span name: duration minus what its children cover
    (children of one span never overlap: the tracer is single-threaded)."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    out = {}
    for i, span in enumerate(spans):
        own = span["end_ns"] - span["start_ns"] - child_ns[i]
        out[span["name"]] = out.get(span["name"], 0) + own
    return out


def span_totals(spans):
    out = {}
    for span in spans:
        out[span["name"]] = (out.get(span["name"], 0) + span["end_ns"] -
                             span["start_ns"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, ops, layers, spans):
    """Per-layer metrics of a traced run.

    ops/layers: OP and LAYER records of the same operations; spans: the
    tracer's span list. Times are host time; *_frac/_rate of cycles and
    the replay/sched counts are simulated outputs.
    """
    s = span_totals(spans)
    n = len(ops)

    def total(records, field):
        return sum(r[field] for r in records)

    instrs = total(layers, "instructions")
    records = total(layers, "records")
    op_instrs = total(ops, "instructions")
    pool = workload == "server_pool"
    pool_ns = s.get("sched.pool_run", 0)
    return {
        "workload.generate_ms": _ratio(s.get("workload.generate", 0),
                                       n) / 1e6,
        "sim.functional_minstr_per_s": _ratio(instrs,
                                              s["sim.functional"]) * 1e3,
        "sim.unmonitored_minstr_per_s": _ratio(instrs,
                                               s["sim.unmonitored"]) * 1e3,
        "log.capture_ns_per_record": _ratio(
            s["log.capture"] - s["sim.functional"], records),
        "log.records_per_instr": _ratio(records, instrs),
        "compress.encode_ns_per_record": _ratio(s["compress.encode"],
                                                records),
        "compress.bytes_per_record": _ratio(
            total(layers, "encoded_bits") / 8.0, records),
        "mem.access_ns": _ratio(s["mem.replay"],
                                total(layers, "mem_accesses")),
        "mem.l1d_miss_rate": _ratio(total(layers, "l1d_misses"),
                                    total(layers, "l1d_accesses")),
        "mem.l2_miss_rate": _ratio(total(layers, "l2_misses"),
                                   total(layers, "l2_accesses")),
        "lifeguard.dispatch_ns_per_record": _ratio(
            s["lifeguard.dispatch"], total(layers, "dispatched")),
        "lifeguard.dispatch_ns_per_record_4k": _ratio(
            s["lifeguard.dispatch_4k"], total(layers, "dispatched")),
        "core.lba_run_ms": _ratio(s["core.monitored"], n) / 1e6,
        "core.records_per_batch": _ratio(total(layers, "batch_records"),
                                         total(layers, "batches")),
        "core.timer_residual_ns_per_record": _ratio(
            s["core.anatomy"] - s["log.capture"] - s["compress.encode"] -
            s["lifeguard.dispatch"] - s["mem.replay"], records),
        "core.syscall_drains_per_minstr": _ratio(
            total(layers, "syscall_drains"), instrs) * 1e6,
        "core.backpressure_stall_frac": _ratio(
            total(layers, "backpressure_cycles"),
            total(layers, "anatomy_cycles")),
        "threaded.wall_vs_serial": (
            _ratio(s["threaded.monitored"], s["threaded.serial"])
            if "threaded.monitored" in s else 1.0),
        "threaded.cpu_per_wall": (
            _ratio(total(layers, "threaded_cpu_ns"), s["threaded.monitored"])
            if "threaded.monitored" in s else
            _ratio(total(ops, "monitored_cpu_ns"), total(ops, "monitored_ns"))),
        "threaded.rounds_per_minstr": _ratio(total(layers, "batches"),
                                             instrs) * 1e6,
        "sched.pool_run_ms": _ratio(pool_ns, n) / 1e6,
        "sched.lane_steals": _ratio(total(ops, "lane_steals"), n),
        "sched.lane_busy_frac": _ratio(total(ops, "busy_cycles"),
                                       total(ops, "lane_cycles")),
        "sched.rejected_tenants": float(total(ops, "rejected")),
        "replay.checkpoints_per_minstr": _ratio(
            total(ops, "checkpoints"), op_instrs) * 1e6,
        "replay.rewinds": _ratio(total(ops, "rewinds"), n),
        "replay.reexec_frac": _ratio(total(ops, "rewound_instructions"),
                                     op_instrs),
        "replay.max_window_entries": float(
            max((op["max_window_entries"] for op in ops), default=0)),
        "replay.containment_ms": (
            _ratio(pool_ns - s.get("replay.uncontained", 0), n) / 1e6
            if pool else 0.0),
        "trace.minstr_per_s": _ratio(op_instrs, total(ops, "run_ns")) * 1e3,
    }
