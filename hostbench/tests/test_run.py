"""Self-tests of the benchmark's reduction and checking code.

    python3 -m unittest discover -s hostbench/tests

They need no build: they feed run.py synthetic raw samples.
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def synthetic_raw(workload="mac_dram", seed=None, digest=None):
    """A raw report shaped like hostbench's, with two untraced and two
    traced passes whose digests all equal @p digest. Each untraced pass
    makes 500 latency samples."""
    reference = run.load_reference()
    if seed is None:
        seed = reference["seed"]
    if digest is None:
        digest = reference["digests"][workload]
    passes = []
    for i in range(4):
        passes.append({
            "setup_s": 0.1 + 0.01 * i, "run_s": 1.0 + 0.1 * i,
            "result_json_s": 1e-4, "teardown_s": 0.05,
            "wall_s": 1.2 + 0.1 * i, "ops": 1000, "expected_ops": 1000,
            "mismatches": 0, "failed": False, "hit_tick_limit": False,
            "digest": digest, "traced": i >= 2,
            "op_samples": 0 if i >= 2 else 500,
        })
    return {
        "workload": workload, "seed": seed, "trace": 1,
        "integrity": True, "peak_rss_mb": 50.0, "passes": passes,
        "op_us": [float(v) for v in range(1, 1001)],
        "sim": {"sim_exec_ms": 10.0, "oram_latency_ns": 500.0,
                "buckets_per_access": 12.0},
        "counts": {name: 7 for name in run.COUNTS},
        "probes": {name: 3.0 for name in run.PROBES},
    }


def synthetic_spans():
    """One traced pass and one SyncOram call of each kind."""
    names = ["pass", "sim.build", "sim.run", "sim.sync_oram.read",
             "sim.sync_oram.write", "sim.result_json", "sim.teardown"]
    parents = [-1, 0, 0, 2, 2, 0, 0]
    durs = [100.0, 10.0, 80.0, 30.0, 20.0, 1.0, 5.0]
    return [{"name": n, "dur": d, "id": i, "parent": p}
            for i, (n, p, d) in enumerate(zip(names, parents, durs))]


class PercentileTest(unittest.TestCase):
    def test_sample_counts(self):
        s = run.latency_summary([float(v) for v in range(1000, 0, -1)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["p50"], 500.0)
        self.assertEqual(s["p99"], 990.0)
        self.assertEqual(s["beyond_p99"], 10)

    def test_small_sample(self):
        s = run.latency_summary([5.0, 1.0, 3.0])
        self.assertEqual((s["n"], s["p50"], s["p99"]), (3, 3.0, 5.0))
        self.assertEqual(s["beyond_p99"], 0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class OpLatencyTest(unittest.TestCase):
    @staticmethod
    def raw_with(per_pass):
        raw = synthetic_raw()
        raw["passes"] = [dict(raw["passes"][0], op_samples=len(s))
                         for s in per_pass]
        raw["op_us"] = [v for s in per_pass for v in s]
        return raw

    def test_median_per_operation_skips_warm_up(self):
        # Pass 0 warms up and is left out. Of the other three passes,
        # one is disturbed at operation 2 only; the median drops it.
        raw = self.raw_with([[90.0, 90.0, 90.0, 90.0],
                             [1.0, 2.0, 3.0, 4.0],
                             [1.0, 2.0, 50.0, 4.0],
                             [1.5, 2.5, 3.5, 4.5]])
        self.assertEqual(run.op_latencies(raw), [1.0, 2.0, 3.5, 4.0])
        e2e = run.end_to_end_metrics(raw)
        self.assertEqual(e2e["op_p99_us"]["value"], 4.0)
        self.assertEqual(e2e["op_p50_us"]["value"], 2.0)

    def test_traced_passes_are_skipped(self):
        raw = synthetic_raw()
        self.assertEqual(run.timed_indices(raw), [1])
        self.assertEqual(run.op_latencies(raw),
                         [float(v) for v in range(501, 1001)])

    def test_unequal_sample_counts_are_an_error(self):
        raw = self.raw_with([[1.0], [1.0, 2.0], [1.0, 2.0, 3.0]])
        with self.assertRaises(run.BenchError):
            run.op_latencies(raw)
        raw["op_us"].append(4.0)
        with self.assertRaises(run.BenchError):
            run.op_latencies(raw)


class ReferenceTest(unittest.TestCase):
    def test_reference_digest_passes(self):
        for workload in run.WORKLOADS:
            attempted, failed, problems = run.check_passes(
                synthetic_raw(workload), run.load_reference())
            self.assertEqual((attempted, failed, problems), (4000, 0, []))

    def test_perturbed_digest_is_an_error(self):
        reference = run.load_reference()
        for workload in run.WORKLOADS:
            good = reference["digests"][workload]
            bad = ("0" if good[0] != "0" else "1") + good[1:]
            attempted, failed, problems = run.check_passes(
                synthetic_raw(workload, digest=bad), reference)
            self.assertEqual(failed, attempted)
            self.assertTrue(all("reference" in p for p in problems))

    def test_other_seed_checks_determinism_only(self):
        raw = synthetic_raw(seed=run.load_reference()["seed"] + 1,
                            digest="0123456789abcdef")
        self.assertEqual(run.check_passes(raw, run.load_reference())[1], 0)
        raw["passes"][3]["digest"] = "fedcba9876543210"
        self.assertEqual(run.check_passes(raw, run.load_reference())[1],
                         1000)

    def test_truncated_pass_and_mismatched_reads(self):
        raw = synthetic_raw()
        raw["passes"][1]["hit_tick_limit"] = True
        raw["passes"][2]["mismatches"] = 3
        _, failed, problems = run.check_passes(raw, run.load_reference())
        self.assertEqual(failed, 1003)
        self.assertEqual(len(problems), 2)


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, NAME_RE)
                self.assertRegex(unit, UNIT_RE)

    def test_every_metric_is_reported_with_its_unit(self):
        raw = synthetic_raw()
        e2e = run.end_to_end_metrics(raw)
        layer = run.per_layer_metrics(raw, synthetic_spans())
        for got, table in ((e2e, run.END_TO_END), (layer, run.PER_LAYER)):
            self.assertEqual(list(got), list(table))
            for name, m in got.items():
                self.assertEqual(m["unit"], table[name])
                self.assertIsInstance(m["value"], (int, float))

    def test_benchmark_json_matches(self):
        with open(os.path.join(os.path.dirname(BENCH),
                               "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        times = run.self_times(synthetic_spans())
        self.assertEqual(times["pass"], (1, 100.0, 4.0))
        self.assertEqual(times["sim.run"], (1, 80.0, 30.0))
        self.assertEqual(times["sim.sync_oram.read"], (1, 30.0, 30.0))

    def test_missing_span_is_an_error(self):
        spans = [s for s in synthetic_spans()
                 if s["name"] != "sim.sync_oram.write"]
        with self.assertRaises(run.BenchError):
            run.per_layer_metrics(synthetic_raw(), spans)

    def test_trace_overhead(self):
        layer = run.per_layer_metrics(synthetic_raw(), synthetic_spans())
        # Untraced wall after the warm-up pass 1.3; traced 1.4, 1.5
        # (median 1.45).
        self.assertAlmostEqual(layer["trace_overhead_pct"]["value"],
                               (1.45 / 1.3 - 1) * 100)


if __name__ == "__main__":
    unittest.main()
