"""Tests of the benchmark ledger itself.

    python3 -m unittest discover -s ledger -p 'test_*.py'

The statistics, span attribution, metric-name and comparison tests are pure
Python. The gate tests build the dalut_ledger harness (as ledger/run.py
does) and run one short round with a deliberately corrupted result, to show
that a wrong MED or a simulator mismatch is counted as a failed op.
"""

import io
import json
import statistics
import tempfile
import unittest
import unittest.mock
from pathlib import Path

import compare
import ledger_metrics as lm
import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent /
                        "BENCHMARK.json").read_text())


class StatisticsTest(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        self.assertEqual(lm.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(lm.percentile([4, 1, 3, 2], 100), 4)
        self.assertEqual(lm.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(lm.percentile(range(1, 102), 99), 100.0)
        self.assertEqual(lm.median([7]), 7)

    def test_percentile_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            lm.percentile([], 50)
        with self.assertRaises(ValueError):
            lm.percentile([1, 2], 101)

    def test_iqr_matches_statistics_quantiles(self):
        values = [3.0, 9.0, 1.0, 4.0, 7.0, 2.0, 8.0, 5.0, 6.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(lm.iqr(values), q3 - q1)
        self.assertAlmostEqual(lm.iqr_share(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(lm.iqr_share([5.0] * 10), 0.0)

    def test_geomean(self):
        self.assertAlmostEqual(lm.geomean([1.0, 100.0]), 10.0)
        with self.assertRaises(ValueError):
            lm.geomean([1.0, 0.0])


def span(name, ts, dur, tid=1):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": tid}


class SpanTest(unittest.TestCase):
    TRACE = {"traceEvents": [
        span("ledger.pass", 0, 100),
        span("ledger.bssa", 10, 50),
        span("sa.sweep", 15, 20),
        span("build_bit_costs", 40, 5),
        span("error_report", 70, 10),
        span("sa.sweep", 0, 30, tid=2),  # another thread: not attributed
    ]}

    def test_self_time_subtracts_direct_children(self):
        stats, main = lm.span_times(self.TRACE)
        self.assertAlmostEqual(main["ledger.bssa"]["self_s"], 25e-6)
        self.assertAlmostEqual(main["sa.sweep"]["self_s"], 20e-6)
        self.assertAlmostEqual(main["ledger.pass"]["self_s"], 40e-6)
        self.assertEqual(stats["sa.sweep"]["count"], 2)
        self.assertAlmostEqual(stats["sa.sweep"]["total_s"], 50e-6)

    def test_attribution_prints_the_remainder(self):
        _, main = lm.span_times(self.TRACE)
        shares, unattributed = lm.attribution(main)
        self.assertAlmostEqual(shares["core.bssa"], 0.25)
        self.assertAlmostEqual(shares["core.sa_search"], 0.20)
        self.assertAlmostEqual(shares["core.bit_cost"], 0.05)
        self.assertAlmostEqual(shares["core.evaluate"], 0.10)
        self.assertAlmostEqual(unattributed, 0.40)
        self.assertAlmostEqual(sum(shares.values()) + unattributed, 1.0)


def search_raw():
    ops = [{"kind": kind, "function": fn, "seed": s, "wall_s": 0.2 + 0.01 * s,
            "cpu_s": 0.6 + 0.01 * s,
            "med": 10.0 + s, "partitions": 2000, "quality": 1,
            "energy_fj": 0.0, "verify_reads": 0, "mismatches": 0}
           for kind in ("bssa", "dalta") for fn in ("cos", "exp")
           for s in (1, 2, 3)]
    return {"host": {}, "threads": {"pool": 4, "producers": 2, "consumer": 1,
                                    "writer": 1},
            "materialize_s": [1e-4], "setup_s": [1e-3, 2e-3, 3e-3],
            "ops": ops, "traced_ops": ops, "counters": {"sa.proposals": 10,
                                                        "sa.evaluated": 9},
            "untraced_wall_s": 2.0, "traced_wall_s": 2.1, "peak_rss_mb": 40.0,
            "attempted": 12, "failed": 0, "failures": []}


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                         lm.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                         lm.PER_LAYER)

    def test_printed_metrics_match_benchmark_json(self):
        raw = search_raw()
        with unittest.mock.patch("sys.stdout", new=io.StringIO()):
            untraced = run.report(raw, None)
            traced = run.report(raw, {"traceEvents": [span("ledger.pass", 0, 10)]})
        for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertEqual(
                {n: m["unit"] for n, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in BENCHMARK[key]})
        self.assertAlmostEqual(traced["metrics"]["sa.useful_ratio"]["value"], 0.9)

    def test_a_failed_op_makes_the_run_incorrect(self):
        raw = search_raw()
        raw["failed"] = 1
        with unittest.mock.patch("sys.stdout", new=io.StringIO()):
            result = run.report(raw, None)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class CompareTest(unittest.TestCase):
    def write_set(self, directory, scale):
        for seed in range(10):
            jitter = 1.0 + 0.01 * (seed % 3)
            metrics = {spec["name"]: {"value": scale * jitter, "unit": spec["unit"]}
                       for spec in BENCHMARK["end_to_end"]}
            line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                               "metrics": metrics})
            for workload in BENCHMARK["workloads"]:
                path = Path(directory) / f"{workload['name']}.{seed}.txt"
                path.write_text("host {}\n" + line + "\n")

    def run_compare(self, new_scale):
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as new:
            self.write_set(base, 1.0)
            self.write_set(new, new_scale)
            out = io.StringIO()
            with unittest.mock.patch("sys.stdout", new=out):
                code = compare.main([base, new])
            return code, out.getvalue()

    def test_in_bound_change_passes(self):
        code, out = self.run_compare(1.02)
        self.assertEqual(code, 0)
        self.assertNotIn("WORSE", out)

    def test_out_of_bound_change_is_flagged(self):
        # Every metric grows 40%: worse where lower is better, better where
        # higher is.
        code, out = self.run_compare(1.4)
        self.assertEqual(code, 1)
        for spec in BENCHMARK["end_to_end"]:
            expected = "WORSE" if spec["better"] == "lower" else "better"
            rows = [r for r in out.splitlines() if f" {spec['name']} " in r]
            self.assertTrue(rows)
            self.assertTrue(all(r.endswith(expected) for r in rows), rows)


class GateTest(unittest.TestCase):
    """Runs the real harness for one short round per case."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())
        cls.scratch = tempfile.TemporaryDirectory(dir=run.build_dir())

    @classmethod
    def tearDownClass(cls):
        cls.scratch.cleanup()

    def drive(self, workload, inject):
        args = run.parse_args(["--workload", workload, "--seed", "5",
                               "--seconds", "0"])
        raw, _ = run.run_harness(self.binary, args, Path(self.scratch.name),
                                ["--rounds", "1", "--inject", inject])
        return raw

    def test_clean_run_passes_every_gate(self):
        raw = self.drive("table2-w12", "none")
        self.assertEqual(raw["failed"], 0, raw["failures"])
        self.assertEqual(raw["attempted"], 8)

    def test_corrupted_med_is_a_failed_op(self):
        raw = self.drive("table2-w12", "med")
        self.assertEqual(raw["failed"], 8)
        self.assertIn("MED", raw["failures"][0])

    def test_simulator_mismatch_is_a_failed_op(self):
        raw = self.drive("nd-w14", "mismatch")
        self.assertEqual(raw["failed"], 2)
        self.assertIn("mismatch", raw["failures"][0])

    def test_serve_mismatch_is_a_failed_op(self):
        raw = self.drive("serve-w12", "mismatch")
        self.assertGreater(raw["failed"], 0)
        with unittest.mock.patch("sys.stdout", new=io.StringIO()):
            result = run.report(raw, None)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
