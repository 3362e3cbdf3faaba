"""Self-tests of perfbench's statistics and output checks.

    python3 perfbench/test_benchstats.py
"""

import json
import statistics
import unittest
from pathlib import Path

import benchstats


def suite_op(op, key="gzip/addrcheck", digest="base=1 cycles=2", **extra):
    record = {"op": op, "pass": 0, "key": key, "digest": digest,
              "findings": 0, "tenants": [], "setup_ns": 1000,
              "run_ns": 2_000_000, "instructions": 1000}
    record.update(extra)
    return record


def tenant(name, expected=1, aborted=False, rejected=False):
    return {"name": name, "expected_findings": expected,
            "aborted": aborted, "rejected": rejected}


class OrderStatistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [7, 1, 5, 3, 9, 11, 2]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(benchstats.quartiles(values), (q[0], q[2]))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q3 = benchstats.quartiles(values)
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / 3.0)

    def test_tail_leaves_exactly_ten_samples_above(self):
        values = list(range(1, 101))  # 1..100
        value, pct, above = benchstats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(above, 10)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_tail_with_eleven_samples_is_the_minimum(self):
        value, pct, above = benchstats.tail([5, 4, 3, 2, 1, 6, 7, 8, 9, 10,
                                             11])
        self.assertEqual((value, above), (1, 10))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_tail_without_enough_samples_reports_none_above(self):
        value, pct, above = benchstats.tail([3, 1, 2])
        self.assertEqual((value, pct, above), (3, 100.0, 0))

    def test_tail_ignores_input_order(self):
        values = [float(v) for v in range(40)]
        self.assertEqual(benchstats.tail(values),
                         benchstats.tail(list(reversed(values))))


class OutputChecks(unittest.TestCase):
    def test_repeated_digests_pass(self):
        ops = {i: suite_op(i) for i in range(3)}
        self.assertEqual(benchstats.check_ops("suite_serial", [0, 1, 2], ops),
                         {})

    def test_hand_corrupted_digest_is_a_failure(self):
        ops = {i: suite_op(i) for i in range(3)}
        ops[2]["digest"] = "base=1 cycles=3"
        failures = benchstats.check_ops("suite_serial", [0, 1, 2], ops)
        self.assertEqual(list(failures), [2])

    def test_digests_are_compared_per_pair(self):
        ops = {0: suite_op(0), 1: suite_op(1, key="mcf/addrcheck",
                                           digest="other")}
        self.assertEqual(benchstats.check_ops("suite_serial", [0, 1], ops),
                         {})

    def test_suite_findings_fail(self):
        ops = {0: suite_op(0, findings=1)}
        self.assertIn(0, benchstats.check_ops("suite_serial", [0], ops))

    def test_threaded_digest_must_equal_reference(self):
        ops = {0: suite_op(0)}
        refs = {"gzip/addrcheck": "base=1 cycles=2"}
        self.assertEqual(
            benchstats.check_ops("threaded_fused", [0], ops, refs), {})
        refs["gzip/addrcheck"] = "base=1 cycles=9"
        self.assertIn(0, benchstats.check_ops("threaded_fused", [0], ops,
                                              refs))

    def test_pool_tenants_must_report_findings_and_not_abort(self):
        good = suite_op(0, key="pool/memleak",
                        tenants=[tenant("a"), tenant("b")])
        self.assertEqual(
            benchstats.check_ops("server_pool", [0], {0: good}), {})
        for bad in (tenant("b", expected=0), tenant("b", aborted=True),
                    tenant("b", rejected=True)):
            op = suite_op(0, key="pool/memleak", tenants=[tenant("a"), bad])
            self.assertIn(0, benchstats.check_ops("server_pool", [0],
                                                  {0: op}))

    def test_crash_and_exception_count_as_failed_operations(self):
        ops = {0: suite_op(0), 1: {"op": 1, "key": "gzip/addrcheck",
                                   "error": "boom"}}
        failures = benchstats.check_ops("suite_serial", [0, 1, 2], ops)
        self.assertEqual(sorted(failures), [1, 2])

    def test_failed_share_is_over_attempted(self):
        ops = {i: suite_op(i) for i in range(4)}
        ops[3]["digest"] = "corrupt"
        begun = [0, 1, 2, 3, 4]  # op 4 crashed
        failures = benchstats.check_ops("suite_serial", begun, ops)
        self.assertEqual(benchstats.failed_frac(len(begun), len(failures)),
                         2 / 5)


class EndToEnd(unittest.TestCase):
    def test_throughput_setup_and_rss(self):
        ops = [suite_op(0, run_ns=1_000_000, setup_ns=10),
               suite_op(1, run_ns=3_000_000, setup_ns=20),
               suite_op(2, run_ns=2_000_000, setup_ns=50),
               suite_op(3, run_ns=2_000_000, setup_ns=70)]
        ops[2]["pass"] = ops[3]["pass"] = 1
        values, extra = benchstats.end_to_end(ops, 2048)
        self.assertAlmostEqual(values["minstr_per_s"], 4000 / 8e-3 / 1e6)
        self.assertEqual(values["run_ms_p50"], 2.0)
        self.assertEqual(values["run_ms_tail"], 3.0)
        self.assertEqual(extra["tail_samples_above"], 0)
        # Per-pass setup sums are 30 and 120 ns; the median is their mean.
        self.assertAlmostEqual(values["setup_s"], 75e-9)
        self.assertEqual(values["peak_rss_mb"], 2.0)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"name": "op", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"name": "a", "start_ns": 10, "end_ns": 40, "parent": 0},
            {"name": "b", "start_ns": 50, "end_ns": 90, "parent": 0},
            {"name": "c", "start_ns": 55, "end_ns": 65, "parent": 2},
        ]
        self.assertEqual(benchstats.self_times(spans),
                         {"op": 30, "a": 30, "b": 30, "c": 10})
        self.assertEqual(benchstats.span_totals(spans)["b"], 40)


class Manifest(unittest.TestCase):
    def test_metrics_and_units_match_benchmark_json(self):
        here = Path(__file__).resolve().parent
        with open(here.parent / "BENCHMARK.json") as f:
            bench = json.load(f)
        with open(here / "manifest.json") as f:
            manifest = json.load(f)
        for section, metrics in (("end_to_end", manifest["end_to_end"]),
                                 ("per_layer", manifest["layer_metrics"])):
            self.assertEqual(
                {m["name"]: m["unit"] for m in bench[section]},
                {name: info["unit"] for name, info in metrics.items()})
        for workload in bench["workloads"]:
            self.assertIn(workload["name"], manifest["workloads"])

    def test_per_layer_reports_every_manifest_metric(self):
        ops = [suite_op(0, monitored_ns=1, monitored_cpu_ns=1,
                        busy_cycles=1, lane_cycles=2, lane_steals=0,
                        rejected=0, checkpoints=0, rewinds=0,
                        rewound_instructions=0, max_window_entries=0)]
        layer_fields = ("instructions", "records", "encoded_bits",
                        "mem_accesses", "l1d_accesses", "l1d_misses",
                        "l2_accesses", "l2_misses", "dispatched",
                        "batch_records", "batches", "syscall_drains",
                        "backpressure_cycles", "anatomy_cycles",
                        "threaded_cpu_ns")
        layers = [{field: 1 for field in layer_fields}]
        names = ("sim.functional", "sim.unmonitored", "log.capture",
                 "compress.encode", "mem.replay", "lifeguard.dispatch",
                 "lifeguard.dispatch_4k", "core.monitored", "core.anatomy",
                 "threaded.serial", "threaded.monitored")
        spans = [{"name": n, "start_ns": 0, "end_ns": 10, "parent": -1}
                 for n in names]
        with open(Path(__file__).resolve().parent / "manifest.json") as f:
            manifest = json.load(f)
        values = benchstats.per_layer("suite_serial", ops, layers, spans)
        self.assertEqual(set(values), set(manifest["layer_metrics"]))


if __name__ == "__main__":
    unittest.main()
