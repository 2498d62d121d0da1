#!/usr/bin/env python3
"""End-to-end benchmark of gva's user-facing programs.

    python3 gvabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds gva_cli, gva_serverd and
the benchmark harness into .bench_build/ (Release), generates the seeded
inputs under .bench_out/, computes the library reference for every job
before any timing, then measures the workload:

  batch_auto      closed-loop gva_cli runs, parameters suggested per job
  batch_explicit  the same jobs with the generators' recommended parameters
  serve_mixed     open-loop Poisson jobs and streams against gva_serverd

--trace 0 measures the end-to-end metrics; --trace 1 is the separate
traced run that replays the same inputs in-process and reports the
per-layer metrics (Chrome trace written to .bench_out/<run>/trace.json).
Every metric is printed with its unit; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"} carrying the metrics
BENCHMARK.json names. Any output that differs from the reference makes the
run incorrect and the exit code non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import batch  # noqa: E402
import common  # noqa: E402
import serve  # noqa: E402
import stats  # noqa: E402

WORKLOADS = {
    "batch_auto": lambda ctx: batch.run(ctx, explicit=False),
    "batch_explicit": lambda ctx: batch.run(ctx, explicit=True),
    "serve_mixed": serve.run,
}


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    # A SIGTERM unwinds like an error, so that the servers, gva_cli runs
    # and kernel coprocess the workload started are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_json(os.path.join(common.ROOT, "BENCHMARK.json"))
        meta = load_json(os.path.join(common.HERE, "meta.json"))
        bins = common.build()
        ctx = common.Context(args.workload, args.seed, args.seconds,
                             bool(args.trace), bins)
        backend = ctx.backend()
        metrics, samples = WORKLOADS[args.workload](ctx)
    except (common.BenchError, stats.TooFewSamples, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        print("gvabench: %s" % e, file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units.update({name: m["unit"] for name, m in meta["metrics"].items()})
    print("workload %s seed %d (%s run), nproc %d, backend %s" % (
        args.workload, args.seed, "traced" if args.trace else "end-to-end",
        os.cpu_count() or 0, backend))
    for name in sorted(metrics):
        n = samples.get(name)
        print("  %-32s %14.6g %-8s%s" % (name, metrics[name], units[name],
                                        "  (n=%d)" % n if n else ""))
    if ctx.unscaled:
        print("unscaled (as timed on this host, before speed.py's scaling):")
        for name, value in sorted(ctx.unscaled.items()):
            print("  %-32s %14.6g" % (name, value))
    for failure in ctx.failures:
        print("  FAILED %s" % failure)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print("gvabench: workload did not produce %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    correct = ctx.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
