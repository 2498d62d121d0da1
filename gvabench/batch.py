"""batch_auto and batch_explicit: closed-loop gva_cli runs.

One caller runs `gva_cli density|rra|ensemble <csv> --quiet --threads 2`
sequentially over the seeded batch series (18 series x 3 detectors), in
whole cycles of the job list, until --seconds have passed and at least
MIN_JOBS jobs ran. batch_auto
passes no window/paa/alphabet flags, so every density and rra job runs
the parameter suggestion; batch_explicit passes the generator's
recommended parameters, so none does.

Before each job the caller times one `gvabench_calibrate once` process
(speed.job_sample); each job's time is scaled by the samples within a
second of it.
"""

import os
import statistics
import subprocess
import time

import common
import oracle
import speed
import stats

DETECTORS = ("density", "rra", "ensemble")
THREADS = 2
# latency_ms.p90 needs 100 samples (stats.MIN_BEYOND beyond the 90th).
MIN_JOBS = 100
SETUP_RUNS = 101


def make_specs(inputs, workdir, explicit):
    jobs = []
    for series in inputs["groups"]["batch"]:
        w, p, a = series["recommended"] if explicit else (0, 0, 0)
        for detector in DETECTORS:
            jobs.append({
                "key": "%s/%s" % (series["name"], detector),
                "command": detector,
                "csv": os.path.join(workdir, series["csv"]),
                "window": w, "paa": p, "alphabet": a,
                "top": 3, "threads": THREADS,
                "truth": series["truth"],
                "points": series["length"],
            })
    return {"cli": jobs}


def cli_args(cli, job):
    args = [cli, job["command"], job["csv"], "--quiet",
            "--threads", str(job["threads"])]
    if job["window"]:
        args += ["--window", str(job["window"]), "--paa", str(job["paa"]),
                 "--alphabet", str(job["alphabet"])]
    return args


def run_cli(args):
    """Runs one gva_cli process; returns (exit code, stdout, peak RSS KiB)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


def measure_setup(ctx, calibrate):
    """Median wall time of gva_cli on the smallest valid input: unscaled,
    and scaled by the samples taken between the runs."""
    args = [ctx.bins["gva_cli"]] + ctx.tiny_input() + ["--quiet"]
    times = []
    samples = []
    for _ in range(SETUP_RUNS):
        samples.append(speed.job_sample(calibrate))
        t0 = time.perf_counter()
        code, out, _ = run_cli(args)
        times.append(time.perf_counter() - t0)
        if code != 0 or "Rank" not in out:
            raise common.BenchError("gva_cli fails on the set-up input")
    raw = statistics.median(times)
    return raw, raw * speed.factor(samples, speed.REFERENCE_JOB_MS)


def run(ctx, explicit):
    specs = make_specs(ctx.inputs, ctx.workdir, explicit)
    refs = ctx.references(specs)
    jobs = specs["cli"]
    quality = [refs["cli"][job["key"]] for job in jobs]
    ctx.report_quality(quality)

    if ctx.trace:
        return common.layer_metrics(ctx.replay("batch"), client=None)

    calibrate = ctx.bins["gvabench_calibrate"]
    setup_raw, setup_s = measure_setup(ctx, calibrate)
    raw = []
    starts = []
    samples = []
    failed = 0
    points = 0
    peak_kib = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < ctx.seconds
           or len(raw) < MIN_JOBS):
        for job in jobs:
            samples.append((time.perf_counter(), speed.job_sample(calibrate)))
            t0 = time.perf_counter()
            starts.append(t0)
            code, out, rss = run_cli(cli_args(ctx.bins["gva_cli"], job))
            reason = ("exit code %d" % code if code != 0
                      else oracle.check_cli(out, refs["cli"][job["key"]]))
            t1 = time.perf_counter()
            peak_kib = max(peak_kib, rss)
            points += job["points"]
            if reason is None:
                raw.append(1e3 * (t1 - t0))
            else:
                failed += 1
                raw.append(float("inf"))
                ctx.note_failure(job["key"], reason)

    latencies = [t * f for t, f in zip(
        raw, speed.factors_at(starts, samples, speed.REFERENCE_JOB_MS))]
    busy_s = sum(t for t in latencies if t != float("inf")) / 1e3
    ctx.attempted = len(latencies)
    ctx.failed = failed
    ctx.unscaled = {
        "setup_s": setup_raw,
        "latency_ms.p50": stats.percentile(raw, 50),
        "latency_ms.p90": stats.percentile(raw, 90),
        "host sample ms (median)": statistics.median(ms for _, ms in samples),
    }
    return {
        "setup_s": setup_s,
        "latency_ms.p50": stats.percentile(latencies, 50),
        "latency_ms.p90": stats.percentile(latencies, 90),
        "throughput.points_per_s": points / busy_s if busy_s else 0.0,
        "recall": ctx.recall,
        "precision": ctx.precision,
        "failed_frac": failed / len(latencies),
        "rss_mb": peak_kib / 1024.0,
    }, {"latency_ms.p50": len(latencies), "latency_ms.p90": len(latencies)}
