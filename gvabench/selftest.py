#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 gvabench/selftest.py

Builds the programs like run.py does, then checks that a seed yields
byte-identical inputs, that the percentile helper refuses a percentile
with fewer than ten samples beyond it, that the oracle rejects a
perturbed discord position, density anomaly, job result and stream report,
and that the host-speed scaling takes each time's factor from the kernel
samples near it.
"""

import copy
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import batch  # noqa: E402
import common  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402

BINS = None


def setUpModule():
    global BINS
    BINS = common.build()


def gen(seed, out):
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    common.run_checked([BINS["gvabench_harness"], "gen", "--seed", str(seed),
                        "--out", out], "gen", 60)
    return sorted(os.listdir(out))


class InputsTest(unittest.TestCase):
    def test_seed_yields_identical_bytes(self):
        a = os.path.join(common.OUT_DIR, "selftest-gen-a")
        b = os.path.join(common.OUT_DIR, "selftest-gen-b")
        c = os.path.join(common.OUT_DIR, "selftest-gen-c")
        files = gen(7, a)
        self.assertEqual(files, gen(7, b))
        self.assertIn("inputs.json", files)
        _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
        self.assertEqual((mismatch, errors), ([], []))
        gen(8, c)
        _, differ, _ = filecmp.cmpfiles(a, c, files, shallow=False)
        self.assertTrue(differ, "another seed must change the inputs")


class PercentileTest(unittest.TestCase):
    def test_refuses_with_fewer_than_ten_beyond(self):
        for pct, enough in ((50, 20), (90, 100), (99, 1000)):
            with self.assertRaises(stats.TooFewSamples):
                stats.percentile(list(range(enough - 1)), pct)
            stats.percentile(list(range(enough)), pct)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values[::-1], 50), 50)


class ScalingTest(unittest.TestCase):
    def test_factor_is_reference_over_median(self):
        self.assertAlmostEqual(speed.factor([2.0, 4.0, 100.0]),
                               speed.REFERENCE_MS / 4.0)

    def test_factors_come_from_samples_near_each_time(self):
        samples = [(0.1 * i, 3.0 if i < 50 else 6.0) for i in range(100)]
        near_slow, near_fast = speed.factors_at([2.0, 8.0], samples)
        self.assertAlmostEqual(near_slow, speed.REFERENCE_MS / 3.0)
        self.assertAlmostEqual(near_fast, speed.REFERENCE_MS / 6.0)
        # Too few samples nearby: all of them count.
        far, = speed.factors_at([100.0], samples)
        self.assertAlmostEqual(far, speed.REFERENCE_MS / 4.5)

    def test_kernel_samples_share_the_benchmark_clock(self):
        meter = speed.Speedometer(BINS["gvabench_calibrate"])
        try:
            self.assertGreater(meter.sample(), 0.0)
            t0 = time.perf_counter()
            meter.start_periodic(10)
            time.sleep(0.2)
            samples = meter.stop_periodic()
            t1 = time.perf_counter()
            self.assertGreater(meter.sample(), 0.0)
        finally:
            meter.close()
        self.assertGreaterEqual(len(samples), 5)
        for start, ms in samples:
            self.assertTrue(t0 <= start <= t1)
            self.assertGreater(ms, 0.0)


class OracleTest(unittest.TestCase):
    """Real outputs pass; the same outputs with one position moved fail."""

    @classmethod
    def setUpClass(cls):
        cls.dir = os.path.join(common.OUT_DIR, "selftest-oracle")
        gen(3, cls.dir)
        with open(os.path.join(cls.dir, "inputs.json")) as f:
            inputs = json.load(f)
        series = inputs["groups"]["batch"][0]
        stream = inputs["groups"]["stream"][0]
        cls.cli = [dict(job, threads=1) for job in
                   batch.make_specs({"groups": {"batch": [series]}},
                                    cls.dir, explicit=True)["cli"]]
        w, p, a = series["recommended"]
        server = [{"key": d, "detector": d,
                   "csv": os.path.join(cls.dir, series["csv"]),
                   "window": w, "paa": p, "alphabet": a, "top": 3,
                   "threshold": 0.05, "truth": series["truth"]}
                  for d in ("rra", "density")]
        w, p, a = stream["recommended"]
        streams = [{"key": "s", "csv": os.path.join(cls.dir, stream["csv"]),
                    "window": w, "paa": p, "alphabet": a, "horizon": 4096,
                    "top": 3, "threshold": 0.05, "batch": 500,
                    "batches": 8, "report_every": 4}]
        specs = os.path.join(cls.dir, "specs.json")
        refs = os.path.join(cls.dir, "refs.json")
        with open(specs, "w") as f:
            json.dump({"cli": cls.cli, "server": server,
                       "streams": streams}, f)
        common.run_checked([BINS["gvabench_harness"], "ref", "--specs", specs,
                            "--out", refs], "ref", 120)
        with open(refs) as f:
            cls.refs = json.load(f)

    def cli_output(self, command):
        job = next(j for j in self.cli if j["command"] == command)
        out = subprocess.run(batch.cli_args(BINS["gva_cli"], job),
                             stdout=subprocess.PIPE, check=True).stdout
        return out.decode(), self.refs["cli"][job["key"]]

    @staticmethod
    def move_first_row(table):
        """Adds 1 to the position (or interval start) of the rank-0 row."""
        moved, n = re.subn(r"^(0\s+\[?)(\d+)",
                           lambda m: m.group(1) + str(int(m.group(2)) + 1),
                           table, count=1, flags=re.M)
        assert n == 1, "no rank-0 row in:\n" + table
        return moved

    def test_cli_discord_position(self):
        out, ref = self.cli_output("rra")
        self.assertIsNone(oracle.check_cli(out, ref))
        self.assertIsNotNone(oracle.check_cli(self.move_first_row(out), ref))

    def test_cli_density_anomaly(self):
        out, ref = self.cli_output("density")
        self.assertIsNone(oracle.check_cli(out, ref))
        self.assertIsNotNone(oracle.check_cli(self.move_first_row(out), ref))

    def test_server_result(self):
        for key in ("rra", "density"):
            ref = self.refs["server"][key]
            job = {"state": "done", "result": copy.deepcopy(ref["result"])}
            self.assertIsNone(oracle.check_job(job, ref))
            job["result"]["anomalies"][0]["start"] += 1
            self.assertIsNotNone(oracle.check_job(job, ref))
            self.assertIsNotNone(oracle.check_job({"state": "failed"}, ref))

    def test_stream_report(self):
        report = self.refs["streams"]["s"][-1]
        self.assertIsNone(oracle.check_report(copy.deepcopy(report), report))
        moved = copy.deepcopy(report)
        self.assertTrue(moved["anomalies"], "stream report has no anomaly")
        moved["anomalies"][0]["start"] += 1
        self.assertIsNotNone(oracle.check_report(moved, report))


if __name__ == "__main__":
    unittest.main()
