"""Build, workspace and reference plumbing shared by the workloads."""

import json
import os
import shutil
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TARGETS = ("gva_cli", "gva_serverd", "gvabench_harness",
           "gvabench_calibrate")


class BenchError(Exception):
    pass


def run_checked(args, what, timeout):
    proc = subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        tail = proc.stdout.decode("utf-8", "replace")[-3000:]
        raise BenchError("%s failed (exit %d):\n%s"
                         % (what, proc.returncode, tail))
    return proc.stdout.decode("utf-8", "replace")


def build():
    """Configures (once) and builds the programs; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no source tree next to %s" % HERE)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], "cmake configure", 600)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                + list(TARGETS), "cmake build", 840)
    bins = {}
    for dirpath, _, files in os.walk(BUILD_DIR):
        for name in TARGETS:
            if name in files and name not in bins:
                bins[name] = os.path.join(dirpath, name)
    missing = [t for t in TARGETS if t not in bins]
    if missing:
        raise BenchError("build produced no %s" % ", ".join(missing))
    return bins


class Context:
    """One run: its workspace, seeded inputs, references and tallies."""

    def __init__(self, workload, seed, seconds, trace, bins):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.bins = bins
        self.workdir = os.path.join(OUT_DIR, "%s-seed%d" % (workload, seed))
        self.attempted = 0
        self.failed = 0
        self.failures = []
        # The timings before host-speed scaling (speed.py), for the record.
        self.unscaled = {}
        self.recall = None
        self.precision = None
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.harness(["gen", "--seed", str(seed), "--out", self.workdir],
                     "input generation")
        with open(os.path.join(self.workdir, "inputs.json")) as f:
            self.inputs = json.load(f)

    def tiny_input(self):
        """The smallest valid input: gva_cli's args for a 32-point CSV."""
        tiny = self.path("tiny.csv")
        with open(tiny, "w") as f:
            f.write("".join("%d\n" % (i % 8) for i in range(32)))
        return ["density", tiny, "--window", "8", "--paa", "2",
                "--alphabet", "3"]

    def backend(self):
        """The kernel backend gva_cli selects on this host."""
        out = run_checked([self.bins["gva_cli"]] + self.tiny_input(),
                          "gva_cli", 60)
        for line in out.splitlines():
            if line.startswith("backend:"):
                return line.split(":", 1)[1].strip()
        return "unknown"

    def path(self, name):
        return os.path.join(self.workdir, name)

    def harness(self, args, what, timeout=170):
        return run_checked([self.bins["gvabench_harness"]] + args, what,
                           timeout)

    def references(self, specs):
        """Library reference for every job/stream in `specs`."""
        with open(self.path("specs.json"), "w") as f:
            json.dump(specs, f)
        self.harness(["ref", "--specs", self.path("specs.json"),
                      "--out", self.path("refs.json"), "--threads", "4"],
                     "reference computation")
        with open(self.path("refs.json")) as f:
            return json.load(f)

    def report_quality(self, entries):
        """Recall/precision of the reference outputs (what a correct run
        reports), averaged over the workload's distinct jobs."""
        self.recall = sum(e["recall"] for e in entries) / len(entries)
        self.precision = sum(e["precision"] for e in entries) / len(entries)

    def note_failure(self, what, reason):
        if len(self.failures) < 20:
            self.failures.append("%s: %s" % (what, reason))

    def replay(self, mode, extra_args=()):
        args = ["replay", "--mode", mode,
                "--specs", self.path("specs.json"),
                "--refs", self.path("refs.json"),
                "--seconds", str(self.seconds),
                "--trace-out", self.path("trace.json")] + list(extra_args)
        proc = subprocess.run([self.bins["gvabench_harness"]] + args,
                              stdout=subprocess.PIPE, timeout=170)
        out = proc.stdout.decode("utf-8", "replace").strip().splitlines()
        if proc.returncode not in (0, 3) or not out:
            raise BenchError("traced replay failed (exit %d)"
                             % proc.returncode)
        result = json.loads(out[-1])
        self.attempted += int(result["jobs"])
        if result["mismatches"]:
            self.failed += int(result["mismatches"])
            self.note_failure("replay", "%d outputs differ from the reference"
                              % result["mismatches"])
        print("trace written to %s" % self.path("trace.json"))
        return result


def _mean(total, count):
    return total / count if count else 0.0


def _pct(values, pct):
    """Percentile, or 0.0 for a layer the workload never calls."""
    if not values:
        return 0.0
    return stats.percentile(values, pct)


def layer_metrics(replay, client):
    """Per-layer metrics from a replay summary and, for the server
    workload, the e2e client's own timings (`client`). Returns the metrics
    and the sample count behind each percentile."""
    layers = replay["layers"]
    counts = replay["counts"]

    def ms(name):
        entry = layers.get(name)
        return _mean(entry["ms"], entry["calls"]) if entry else 0.0

    def total_ms(name):
        entry = layers.get(name)
        return entry["ms"] if entry else 0.0

    client = client or {}
    m = {
        "timeseries.load_ms": ms("timeseries.load"),
        "parameter_profile.suggest_ms": ms("parameter_profile.suggest"),
        "parameter_profile.configs": _mean(
            counts["parameter_profile.configs"],
            counts["parameter_profile.calls"]),
        "parameter_profile.share": _mean(
            total_ms("parameter_profile.suggest"), replay["job_ms"]),
        "sax.discretize_ms": ms("sax.discretize"),
        "sax.words": _mean(counts["sax.words"], counts["sax.calls"]),
        "sax.kept_ratio": _mean(counts["sax.words"], counts["sax.windows"]),
        "grammar.sequitur_ms": ms("grammar.sequitur"),
        "grammar.rules": _mean(counts["grammar.rules"],
                               counts["grammar.calls"]),
        "grammar.compression": (1.0 - _mean(counts["grammar.size"],
                                            counts["grammar.tokens"])
                                if counts["grammar.tokens"] else 0.0),
        "grammar.intervals_ms": ms("grammar.intervals"),
        "rule_density.find_ms": ms("rule_density.find"),
        "rra.search_ms": ms("rra.search"),
        "rra.distance_calls": _mean(counts["rra.distance_calls"],
                                    counts["rra.calls"]),
        "rra.abandon_ratio": _mean(counts["rra.abandoned"],
                                   counts["rra.distance_calls"]),
        "rra.prune_ratio": _mean(counts["rra.pruned"], counts["rra.visited"]),
        "discord.hotsax_ms": ms("discord.hotsax"),
        "discord.distance_calls": _mean(counts["discord.distance_calls"],
                                        counts["discord.calls"]),
        "ensemble.run_ms": ms("ensemble.run"),
        "ensemble.cache_hit_ratio": _mean(counts["ensemble.cache_hits"],
                                          counts["ensemble.cache_lookups"]),
        "streaming.push_us": 1e3 * _mean(total_ms("streaming.push"),
                                         counts["streaming.samples"]),
        "streaming.report_ms": ms("streaming.report"),
        "streaming.retained_tokens": _mean(
            counts["streaming.retained_tokens"], counts["streaming.reports"]),
        "job_runner.queue_wait_ms.p50": _pct(replay["queue_wait_ms"], 50),
        "job_runner.queue_wait_ms.p99": _pct(replay["queue_wait_ms"], 99),
        "job_runner.execute_ms.p50": _pct(replay["execute_ms"], 50),
        "job_runner.execute_ms.p99": _pct(replay["execute_ms"], 99),
        "job_runner.rejected": float(replay["rejected"]),
        "net.submit_rtt_ms.p50": _pct(client.get("submit_rtt_ms", []), 50),
        "net.submit_rtt_ms.p99": _pct(client.get("submit_rtt_ms", []), 99),
        "net.append_rtt_ms.p99": _pct(client.get("append_rtt_ms", []), 99),
        "net.http_parse_us": 1e3 * _mean(total_ms("net.http_parse"),
                                         counts["net.requests"]),
        "json.parse_ms": _mean(total_ms("json.parse"), counts["json.bodies"]),
        "viz.render_ms": ms("viz.render"),
        "generator.lag_ms.p99": _pct(client.get("generator_lag_ms", []), 99),
        "trace.coverage": _mean(replay["covered_ms"], replay["job_ms"]),
        "trace.overhead": statistics.median(replay["overhead"]) - 1.0,
    }
    print_breakdown(replay)
    samples = {}
    for name, values in (("job_runner.queue_wait_ms", replay["queue_wait_ms"]),
                         ("job_runner.execute_ms", replay["execute_ms"]),
                         ("net.submit_rtt_ms", client.get("submit_rtt_ms")),
                         ("net.append_rtt_ms", client.get("append_rtt_ms")),
                         ("generator.lag_ms", client.get("generator_lag_ms"))):
        for pct in ("p50", "p99"):
            if name + "." + pct in m and values:
                samples[name + "." + pct] = len(values)
    return m, samples


def print_breakdown(replay):
    """Share of each detector's job time per layer (self time, tid 0)."""
    print("layer breakdown by detector (share of job wall time):")
    for detector, totals in sorted(replay["by_detector"].items()):
        job = totals.get("job", 0.0)
        parts = sorted(((ms, name) for name, ms in totals.items()
                        if name != "job"), reverse=True)
        row = ", ".join("%s %.3f" % (name, ms / job) for ms, name in parts
                        if job)
        print("  %-9s %9.1f ms  %s" % (detector, job, row))
    sys.stdout.flush()
