"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import pathlib
import re
import unittest

import bench_lib

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
SERVE_BENCH = HERE / "serve_bench.cpp"

# Metric names: a letter or digit first, then at most 63 more of
# [A-Za-z0-9_.-].
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def program_constant(name):
    """Value of `constexpr <type> <name> = <value>;` in serve_bench.cpp."""
    found = re.search(rf"constexpr [\w:]+ {name} = ([0-9.]+);",
                      SERVE_BENCH.read_text())
    return float(found.group(1))


def workload_summary(name):
    """The configuration prefix every BENCHMARK.json `why` starts with:
    the workload's own knobs, then the world size and churn every
    workload shares."""
    w = bench_lib.WORKLOADS[name]
    return (f"{w['engine']} k={w['top_k']} browse={w['browse']:g} "
            f"churn={program_constant('kOffline'):.0%} {w['qps']:g}q/s "
            f"{program_constant('kNodes') / 1000:g}k nodes")


AGGREGATE = {
    "kind": "aggregate", "stream_queries": 8, "queries": 8, "found": 4,
    "cache_hits": 2, "timed": 4, "messages": 100, "p50_s": 0.434176,
    "p99_s": 0.65536, "p999_s": 0.65536, "refreezes": 4, "compactions": 2,
    "content_adds": 3, "cache_invalidations": 5, "readvertisements": 6,
    "windows": 4, "publish_messages": 1000,
}

# Unit costs chosen so every product and sum below is exact in binary
# floating point.
LAYER = {
    "run1_s": 10.0, "run2_s": 8.0,
    "sim.dht.publish_s": 0.5,
    "sim.store.compact_s": 0.25,
    "overlay.apply_delta_ms": 500.0,
    "sim.adaptive.refresh_ms": 250.0,
    "sim.engine.search_s": 1.0,
    "sim.engine.search_samples": 4,
    "sim.cache.peek_routed_ns": 125000000.0,
    "sim.cache.prime_ns": 62500000.0,
    "aggregate1": AGGREGATE,
    "aggregate2": AGGREGATE,
}


POOLED = {"kind": "pooled", "peak_rss_mib": 100.0, "p50_s": 0.25,
          "p99_s": 0.5}


def serves(worlds=1):
    """One serve record per (world, thread count), world i running 2^i s."""
    return [{"world": i, "threads": t, "run_s": 2.0 ** i,
             "aggregate": dict(AGGREGATE, found=i),
             "setup": {"total_s": 1.0 + i + t / 4}}
            for i in range(worlds) for t in (1, 2)]


def full_layer():
    layer = dict(LAYER)
    for name in bench_lib.PER_LAYER:
        layer.setdefault(name, 1.0)
    return layer


class MetricNames(unittest.TestCase):
    def test_every_name_uses_allowed_characters(self):
        declared = list(bench_lib.END_TO_END) + list(bench_lib.PER_LAYER)
        emitted = list(bench_lib.serve_metrics(serves(), POOLED, 1))
        emitted += list(bench_lib.trace_metrics(full_layer(), "flood"))
        for name in declared + emitted:
            self.assertRegex(name, METRIC_NAME)

    def test_runs_emit_every_declared_metric(self):
        self.assertEqual(set(bench_lib.serve_metrics(serves(), POOLED, 1)),
                         set(bench_lib.END_TO_END))
        self.assertEqual(set(bench_lib.trace_metrics(full_layer(), "flood")),
                         set(bench_lib.PER_LAYER))

    def test_benchmark_json_matches_tables(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        for key, table in (("end_to_end", bench_lib.END_TO_END),
                           ("per_layer", bench_lib.PER_LAYER)):
            self.assertEqual(
                {m["name"]: (m["unit"], m["better"]) for m in spec[key]},
                table)
            for m in spec[key]:
                self.assertRegex(m["name"], METRIC_NAME)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench_lib.WORKLOADS))
        for w in spec["workloads"]:
            self.assertTrue(
                w["why"].startswith(workload_summary(w["name"])),
                w["why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


class AggregateCheck(unittest.TestCase):
    def test_equal_serves_pass(self):
        self.assertEqual(bench_lib.aggregate_mismatches(
            [AGGREGATE, copy.deepcopy(AGGREGATE)]), [])

    def test_doctored_aggregate_is_flagged(self):
        for field in bench_lib.DETERMINISTIC_FIELDS:
            doctored = copy.deepcopy(AGGREGATE)
            doctored[field] += 1
            problems = bench_lib.aggregate_mismatches([AGGREGATE, doctored])
            self.assertTrue(any(field in p for p in problems), field)

    def test_unretired_queries_are_flagged(self):
        short = dict(AGGREGATE, queries=7)
        self.assertTrue(bench_lib.aggregate_mismatches([short]))

    def test_every_world_needs_both_thread_counts(self):
        self.assertEqual(bench_lib.world_mismatches(serves(3), 3), [])
        self.assertTrue(bench_lib.world_mismatches(serves(3)[:-1], 3))
        self.assertTrue(bench_lib.world_mismatches(serves(2), 3))

    def test_one_doctored_world_fails_the_run(self):
        run = serves(3)
        run[3]["aggregate"] = dict(run[3]["aggregate"], messages=101)
        problems = bench_lib.world_mismatches(run, 3)
        self.assertEqual(len(problems), 1)
        self.assertIn("world 1", problems[0])

    def test_found_rate_is_not_a_failure(self):
        none_found = dict(AGGREGATE, found=0, timed=0)
        self.assertEqual(bench_lib.aggregate_mismatches([none_found]), [])


class ServeMetrics(unittest.TestCase):
    def test_host_times_are_medians_over_every_serve(self):
        values = bench_lib.serve_metrics(serves(5), POOLED, 3)
        # qps of world i is 8 / 2^i: median over all five worlds served.
        self.assertEqual(values["qps_1t"], 8 / 4)
        # Set-up of world i is 1 + i + threads / 4: median of ten serves.
        self.assertEqual(values["setup_s"], 3.375)
        self.assertEqual(values["peak_rss_mib"], 100.0)

    def test_simulated_metrics_pool_the_first_worlds(self):
        values = bench_lib.serve_metrics(serves(5), POOLED, 3)
        # Worlds 0..2 only: found 0 + 1 + 2 of 3 * 8 queries.
        self.assertEqual(values["found_rate"], 3 / 24)
        self.assertEqual(values["msgs_per_query"], 100 / 8)
        self.assertEqual(values["maint_msgs_per_query"], 1000 / 8)
        self.assertEqual(values["sim_p50_ms"], 250.0)
        self.assertEqual(values["sim_p99_ms"], 500.0)


class Unattributed(unittest.TestCase):
    def test_arithmetic_is_exact(self):
        # publish 0.5 * (1 + 2) + compact 0.25 * 2 + refreeze 0.5 * 4
        # + search 0.25 * (8 - 2) + peek 0.125 * 8 + prime 0.0625 * 4
        # = 1.5 + 0.5 + 2 + 1.5 + 1 + 0.25 = 6.75, plus the adaptive
        # refresh 0.25 * 4 windows = 1.
        self.assertEqual(bench_lib.unattributed_s(LAYER, AGGREGATE, "flood"),
                         10.0 - 6.75)
        self.assertEqual(
            bench_lib.unattributed_s(LAYER, AGGREGATE, "adaptive"),
            10.0 - 7.75)

    def test_trace_metrics_use_it(self):
        values = bench_lib.trace_metrics(full_layer(), "flood")
        self.assertEqual(values["sim.serving.unattributed_s"], 3.25)
        self.assertEqual(values["sim.serving.speedup_2t"], 1.25)
        self.assertEqual(values["sim.cache.hit_ratio"], 0.25)


if __name__ == "__main__":
    unittest.main()
