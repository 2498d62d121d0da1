"""Host speed, measured with gvabench_calibrate's fixed unit of work.

The benchmark shares a few virtual cores of a busy host, and how fast those
cores run drifts by up to about 2x over minutes, moving every wall-clock
figure without any change to the program. So a sample of fixed work is
timed between the timed operations, and every time is scaled by

    reference / (median sample time around it)

which makes the figures read as times on a host running at the reference
speed. A sample has the shape of what it scales: batch jobs are processes,
so their samples are whole `gvabench_calibrate once` processes
(job_sample, against REFERENCE_JOB_MS); the server workload samples the
kernel alone from a coprocess (Speedometer, against REFERENCE_MS). The
kernel links nothing from the program, so a change to the program moves
the scaled times exactly as it moves the raw ones. run.py prints the
unscaled figures beside the scaled ones.
"""

import bisect
import json
import os
import statistics
import subprocess
import time

import common

with open(os.path.join(common.HERE, "meta.json")) as _f:
    _CAL = json.load(_f)["calibration"]

# Sample times on the reference host in its fast state (meta.json): the
# kernel alone, and a whole `gvabench_calibrate once` process.
REFERENCE_MS = _CAL["reference_ms"]
REFERENCE_JOB_MS = _CAL["reference_job_ms"]
# Fewest samples a local scale is taken from.
MIN_LOCAL = 5


def factor(samples, reference=REFERENCE_MS):
    """The scale for times measured around these samples."""
    return reference / statistics.median(samples)


def factors_at(times, samples, reference=REFERENCE_MS, half_window_s=1.0):
    """Scale for an operation at each of `times` (time.perf_counter
    seconds), from the timed (start, ms) samples within half_window_s of
    it, or from all samples where fewer than MIN_LOCAL lie that close."""
    samples = sorted(samples)
    starts = [t for t, _ in samples]
    out = []
    for t in times:
        lo = bisect.bisect_left(starts, t - half_window_s)
        hi = bisect.bisect_right(starts, t + half_window_s)
        near = samples[lo:hi] if hi - lo >= MIN_LOCAL else samples
        out.append(factor([ms for _, ms in near], reference))
    return out


def job_sample(binary):
    """Wall milliseconds of one `gvabench_calibrate once` process, started
    and waited for from here like a gva_cli job; compare with
    REFERENCE_JOB_MS."""
    t0 = time.perf_counter()
    proc = subprocess.run([binary, "once"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=60)
    ms = 1e3 * (time.perf_counter() - t0)
    if proc.returncode != 0:
        raise common.BenchError("gvabench_calibrate once failed")
    return ms


class Speedometer:
    """gvabench_calibrate as a coprocess; each sample runs the kernel once."""

    def __init__(self, binary):
        self.proc = subprocess.Popen([binary], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def sample(self):
        self.proc.stdin.write("once\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise common.BenchError("gvabench_calibrate stopped")
        return float(line)

    def start_periodic(self, period_ms):
        """Starts sampling once every `period_ms`, alongside whatever the
        caller runs meanwhile."""
        self.proc.stdin.write("p %d\n" % period_ms)
        self.proc.stdin.flush()

    def stop_periodic(self):
        """Stops the periodic sampling; returns its samples as (start on
        the time.perf_counter clock, ms) pairs."""
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        samples = []
        for line in self.proc.stdout:
            if line.strip() == "end":
                return samples
            start, ms = line.split()
            samples.append((float(start), float(ms)))
        raise common.BenchError("gvabench_calibrate stopped")

    def close(self):
        try:
            self.proc.stdin.close()
        finally:
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
