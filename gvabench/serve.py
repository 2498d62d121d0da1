"""serve_mixed: open-loop traffic against a gva_serverd subprocess.

One single-threaded, poll-based client drives `gva_serverd --slots 2
--job-threads 1 --queue 64` over four keep-alive connections (pipelined
requests) for three tenants:

  conn 0      job submissions (POST /v1/jobs, inline series)
  conn 1, 2   job polls (GET /v1/jobs/{id}) every POLL_MS until done; the
              first poll comes at a random phase within POLL_MS of the
              202, so the poll period smears latencies instead of
              quantizing them
  conn 3      streaming sessions: sample appends and reports, in order

Jobs arrive as a Poisson process. About ZERO_SHARE of them carry no
parameters, so the server runs the parameter suggestion; the rest pass the
generator's recommended ones. Each pool's jobs are dealt evenly. Beside
the jobs, one stream per tenant appends STREAM_BATCH samples every
STREAM_PERIOD_MS and reads a report after every REPORT_EVERY-th append.

While the server is timed, a gvabench_calibrate coprocess samples the host
speed every CALIBRATION_PERIOD_MS (speed.py); each job latency and report
lag is scaled by the samples within a second of its due time.

Every job and sample batch is timed from its due time, not its send time,
so a stall also counts against the requests it delays. The fixed-rate phase
gives the latency, stream-lag and correctness figures. The rate ladder that
follows probes capacity with jobs alone: a binary search over its rungs
finds the highest one whose p99 stays under P99_LIMIT_MS without backlog
growth, max_rate.jobs_per_s.
"""

import collections
import gc
import heapq
import json
import os
import random
import selectors
import signal
import socket
import statistics
import subprocess
import time

import common
import oracle
import speed
import stats

# The traffic and ladder settings are recorded in meta.json ("serve") and
# read from there, so the record and the run cannot drift apart.
with open(os.path.join(common.HERE, "meta.json")) as _f:
    _SERVE = json.load(_f)["serve"]

# Server flags. The deep queue means the fixed rate never sees a refusal:
# capacity is where queueing breaks the latency limit, not where a short
# queue overflows.
SERVER_FLAGS = _SERVE["server_flags"]
SLOTS = int(SERVER_FLAGS[SERVER_FLAGS.index("--slots") + 1])
QUEUE = int(SERVER_FLAGS[SERVER_FLAGS.index("--queue") + 1])
TENANTS = ("t0", "t1", "t2")
DETECTORS = ("hotsax", "rra", "density", "ensemble")
# Zero-parameter jobs: detectors whose zero triple runs SuggestParameters.
ZERO_DETECTORS = ("hotsax", "rra", "density")
# A little over a tenth, so that latency_ms.p90 falls inside the
# zero-parameter group rather than on its boundary with the explicit one.
ZERO_SHARE = _SERVE["zero_parameter_share"]
FIXED_RATE = _SERVE["fixed_rate_jobs_per_s"]
# latency_ms.p99 needs 1000 samples (stats.MIN_BEYOND beyond the 99th).
MIN_FIXED_JOBS = _SERVE["fixed_jobs_min"]
# Capacity ladder (jobs/s), descending; rungs are 6% apart, finer than the
# bound recorded for max_rate.jobs_per_s.
LADDER = tuple(_SERVE["ladder_jobs_per_s"])
LADDER_JOBS = _SERVE["ladder_jobs_per_rung"]
# No rung starts after this long: a host that stays slow ends the ladder
# early (max_rate then reads 0) instead of stretching the run.
LADDER_BUDGET_S = _SERVE["ladder_budget_s"]
P99_LIMIT_MS = _SERVE["p99_limit_ms"]
# A rung whose mean backlog (jobs due but not finished) is this many jobs
# higher in its second half than in its first is over capacity. Near
# capacity, Poisson bursts alone move it by up to about ten jobs.
BACKLOG_GROWTH_LIMIT = _SERVE["backlog_growth_limit_jobs"]
# A fixed-rate phase whose generator ran later than this at p99 measured
# the client, not the server: the run is invalid.
GENERATOR_LAG_LIMIT_MS = _SERVE["generator_lag_limit_ms"]
STREAM_BATCH = _SERVE["streams"]["batch_samples"]
STREAM_PERIOD_MS = _SERVE["streams"]["period_ms"]
REPORT_EVERY = _SERVE["streams"]["report_every_batches"]
STREAM_HORIZON = _SERVE["streams"]["horizon"]
POLL_MS = 2.0
SETUP_RUNS = 41
# How often the kernel (speed.py) is sampled while the server is timed:
# about 4 ms of work every 50 ms.
CALIBRATION_PERIOD_MS = 50


def csv_tokens(path):
    with open(path) as f:
        return [line.strip() for line in f if line.strip()]


def make_specs(inputs, workdir, seconds):
    jobs = []
    for series in inputs["groups"]["serve"]:
        w, p, a = series["recommended"]
        base = {"csv": os.path.join(workdir, series["csv"]), "top": 3,
                "threshold": 0.05, "truth": series["truth"]}
        for detector in DETECTORS:
            jobs.append(dict(base, key="%s/%s/explicit" % (series["name"],
                                                          detector),
                             detector=detector, window=w, paa=p, alphabet=a))
        for detector in ZERO_DETECTORS:
            jobs.append(dict(base, key="%s/%s/zero" % (series["name"],
                                                      detector),
                             detector=detector, window=0, paa=0, alphabet=0))
    fixed_s = fixed_jobs(seconds) / FIXED_RATE
    streams = []
    for i, series in enumerate(inputs["groups"]["stream"]):
        w, p, a = series["recommended"]
        batches = min(int(fixed_s * 1e3 / STREAM_PERIOD_MS),
                      series["length"] // STREAM_BATCH)
        batches -= batches % REPORT_EVERY
        streams.append({
            "key": "s%d" % i, "tenant": TENANTS[i % len(TENANTS)],
            "csv": os.path.join(workdir, series["csv"]),
            "window": w, "paa": p, "alphabet": a,
            "horizon": STREAM_HORIZON, "top": 3, "threshold": 0.05,
            "batch": STREAM_BATCH, "batches": batches,
            "report_every": REPORT_EVERY,
        })
    return {"server": jobs, "streams": streams}


def fixed_jobs(seconds):
    return max(MIN_FIXED_JOBS, int(round(FIXED_RATE * seconds)))


def arrivals(rng, rate, count, pools):
    """`count` Poisson arrivals: (due offset s, job index, tenant). Exactly
    round(ZERO_SHARE * count) of them are zero-parameter jobs, at random
    positions, and each pool's jobs are drawn as evenly as the counts
    allow, in random order, so the mix does not vary between seeds."""
    explicit, zero = pools
    zeros = int(round(ZERO_SHARE * count))
    zero_at = set(rng.sample(range(count), zeros))
    zero_deck = deal(rng, zero, zeros)
    explicit_deck = deal(rng, explicit, count - zeros)
    t = 0.0
    out = []
    for i in range(count):
        t += rng.expovariate(rate)
        deck = zero_deck if i in zero_at else explicit_deck
        out.append((t, deck.pop(), rng.choice(TENANTS)))
    return out


def deal(rng, pool, count):
    """`count` draws from `pool`, each member within one of count/len."""
    deck = []
    while len(deck) < count:
        deck += rng.sample(pool, len(pool))
    deck = deck[:count]
    rng.shuffle(deck)
    return deck


def request(method, path, tenant, body=b""):
    head = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nx-gva-tenant: %s\r\n"
            "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % (method, path, tenant, len(body)))
    return head.encode() + body


class Conn:
    """One keep-alive connection with pipelined requests."""

    def __init__(self, port, sel):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.sel = sel
        self.out = bytearray()
        self.inbuf = bytearray()
        self.waiting = collections.deque()
        self.writing = False
        sel.register(self.sock, selectors.EVENT_READ, self)

    def send(self, data, callback):
        self.out += data
        self.waiting.append(callback)
        self.flush()

    def flush(self):
        if self.out:
            try:
                n = self.sock.send(self.out)
                del self.out[:n]
            except BlockingIOError:
                pass
        want = bool(self.out)
        if want != self.writing:
            self.writing = want
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want
                                             else 0)
            self.sel.modify(self.sock, events, self)

    def readable(self):
        data = self.sock.recv(1 << 20)
        if not data:
            raise common.BenchError("gva_serverd closed a connection")
        now = time.perf_counter()
        self.inbuf += data
        while True:
            end = self.inbuf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(self.inbuf[:end]).decode("latin-1").split("\r\n")
            status = int(head[0].split(" ")[1])
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if len(self.inbuf) < end + 4 + length:
                return
            body = bytes(self.inbuf[end + 4:end + 4 + length])
            del self.inbuf[:end + 4 + length]
            self.waiting.popleft()(status, body, now)

    def close(self):
        self.sel.unregister(self.sock)
        self.sock.close()


class Client:
    """The event loop: timers plus the four connections."""

    def __init__(self, port, seed):
        self.sel = selectors.DefaultSelector()
        self.conns = [Conn(port, self.sel) for _ in range(4)]
        self.timers = []
        self.seq = 0
        self.poll_turn = 0
        self.phase_rng = random.Random(seed)

    def at(self, due, fn):
        self.seq += 1
        heapq.heappush(self.timers, (due, self.seq, fn))

    def poll_conn(self):
        self.poll_turn ^= 1
        return self.conns[1 + self.poll_turn]

    def run(self, done, deadline):
        # A collector pause would show as generator lag; the loop's garbage
        # is freed by reference counting and collected after the phase.
        gc.disable()
        try:
            self.loop(done, deadline)
        finally:
            gc.enable()

    def loop(self, done, deadline):
        while not done():
            now = time.perf_counter()
            if now > deadline:
                raise common.BenchError("serve phase overran its deadline")
            while self.timers and self.timers[0][0] <= now:
                due, _, fn = heapq.heappop(self.timers)
                fn(due, now)
            timeout = 0.02
            if self.timers:
                timeout = max(0.0, min(
                    timeout, self.timers[0][0] - time.perf_counter()))
            # epoll rounds the sleep up to whole milliseconds, so timers fire
            # up to 1 ms late; spinning instead would take a core from the
            # server under test.
            for key, mask in self.sel.select(timeout):
                if mask & selectors.EVENT_READ:
                    key.data.readable()
                if mask & selectors.EVENT_WRITE:
                    key.data.flush()

    def close(self):
        for conn in self.conns:
            conn.close()
        self.sel.close()


class Phase:
    """One batch of scheduled jobs (the fixed rate, or one ladder rung)."""

    def __init__(self, client, specs, bodies, refs, schedule, start,
                 limit_ms=None):
        self.client = client
        self.specs = specs
        self.bodies = bodies
        self.refs = refs
        self.limit_ms = limit_ms
        self.latencies = []
        self.dues = []
        self.refused = 0
        self.wrong = 0
        self.over_limit = 0
        self.aborted = False
        self.outstanding = 0
        self.backlog = []
        self.lag_ms = []
        self.submit_rtt_ms = []
        self.pending = len(schedule)
        self.unarrived = len(schedule)
        self.failures = []
        for offset, job, tenant in schedule:
            client.at(start + offset,
                      lambda due, now, j=job, t=tenant: self.arrive(
                          due, now, j, t))

    def done(self):
        return self.pending == 0

    def finish(self, latency_ms, due, failure=None, refused=False):
        """Records one job. A refused (429) or failed job counts as missing
        every latency limit; a failure that is not a refusal is an output
        the reference does not accept."""
        self.pending -= 1
        self.outstanding -= 1
        self.latencies.append(latency_ms)
        self.dues.append(due)
        if failure is not None:
            if refused:
                self.refused += 1
            else:
                self.wrong += 1
            self.failures.append(failure)
        if self.limit_ms is None:
            return
        if latency_ms > self.limit_ms:
            self.over_limit += 1
        # Once more than MIN_BEYOND jobs of a ladder rung miss the limit,
        # its p99 does too: the rung has failed, stop feeding it.
        if self.over_limit > stats.MIN_BEYOND and not self.aborted:
            self.aborted = True
            self.pending -= self.unarrived

    def arrive(self, due, now, job, tenant):
        if self.aborted:
            return
        self.unarrived -= 1
        self.lag_ms.append(1e3 * (now - due))
        self.outstanding += 1
        self.backlog.append(self.outstanding)
        sent = time.perf_counter()
        key = self.specs[job]["key"]

        def on_submit(status, body, t):
            if status != 202:
                self.finish(float("inf"), due, "%s: submit answered %d"
                            % (key, status), refused=status == 429)
                return
            self.submit_rtt_ms.append(1e3 * (t - sent))
            job_id = json.loads(body)["id"]
            phase = self.client.phase_rng.uniform(0.0, POLL_MS / 1e3)
            self.client.at(t + phase,
                           lambda _d, _n: self.poll(job_id, key, due))

        self.client.conns[0].send(
            request("POST", "/v1/jobs", tenant, self.bodies[job]), on_submit)

    def poll(self, job_id, key, due):
        def on_poll(status, body, t):
            if status != 200:
                self.finish(float("inf"), due,
                            "%s: poll answered %d" % (key, status))
                return
            job = json.loads(body)
            if job.get("state") in ("queued", "running"):
                self.client.at(t + POLL_MS / 1e3,
                               lambda _d, _n: self.poll(job_id, key, due))
                return
            reason = oracle.check_job(job, self.refs["server"][key])
            latency = 1e3 * (time.perf_counter() - due)
            if reason is None:
                self.finish(latency, due)
            else:
                self.finish(float("inf"), due, "%s: %s" % (key, reason))

        self.client.poll_conn().send(
            request("GET", "/v1/jobs/%d" % job_id, "t0"), on_poll)

    def backlog_growth(self):
        half = len(self.backlog) // 2
        if half == 0:
            return 0.0
        first = self.backlog[:half]
        second = self.backlog[half:]
        return sum(second) / len(second) - sum(first) / len(first)


class Streams:
    """The streaming sessions of the fixed-rate phase, all on conn 3."""

    def __init__(self, client, specs, bodies, refs, start, record):
        self.client = client
        self.conn = client.conns[3]
        self.refs = refs
        self.append_rtt_ms = []
        self.report_lag_ms = []
        self.report_dues = []
        self.lag_ms = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        # Every operation is scheduled up front; the phase is over once all
        # have been answered.
        self.pending = sum(1 + s["batches"] + s["batches"] // REPORT_EVERY
                           for s in specs)
        self.record = record
        for i, stream in enumerate(specs):
            config = json.dumps({k: stream[k] for k in
                                 ("window", "paa", "alphabet", "horizon")})
            self.send(stream, "POST", "/v1/streams/%s" % stream["key"],
                      config.encode(), 201, lambda *_: None)
            stagger = i * STREAM_PERIOD_MS / len(specs) / 1e3
            for b, body in enumerate(bodies[i]):
                client.at(start + stagger + b * STREAM_PERIOD_MS / 1e3,
                          lambda due, now, s=stream, b=b, body=body:
                          self.append(due, now, s, b, body))

    def done(self):
        return self.pending == 0

    def send(self, stream, method, path, body, expect, on_ok):
        self.attempted += 1
        data = request(method, path, stream["tenant"], body)
        if self.record is not None and body and method == "POST":
            self.record[data] = self.record.get(data, 0) + 1

        def on_response(status, payload, t):
            self.pending -= 1
            if status != expect:
                self.failed += 1
                self.failures.append("%s %s answered %d" % (method, path,
                                                            status))
                return
            reason = on_ok(payload, t)
            if reason is not None:
                self.failed += 1
                self.failures.append("%s: %s" % (path, reason))

        self.conn.send(data, on_response)

    def append(self, due, now, stream, b, body):
        self.lag_ms.append(1e3 * (now - due))
        seen = (b + 1) * STREAM_BATCH

        def on_append(payload, t):
            self.append_rtt_ms.append(1e3 * (t - due))
            got = json.loads(payload).get("samples_seen")
            return None if got == seen else "samples_seen %r, sent %d" % (
                got, seen)

        self.send(stream, "POST", "/v1/streams/%s/samples" % stream["key"],
                  body, 200, on_append)
        if (b + 1) % REPORT_EVERY:
            return
        expected = self.refs["streams"][stream["key"]][
            (b + 1) // REPORT_EVERY - 1]

        def on_report(payload, t):
            self.report_lag_ms.append(1e3 * (t - due))
            self.report_dues.append(due)
            return oracle.check_report(json.loads(payload), expected)

        self.send(stream, "GET", "/v1/streams/%s/report" % stream["key"],
                  b"", 200, on_report)


class Server:
    """A gva_serverd subprocess, started and timed to its listening line."""

    def __init__(self, binary):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--quiet"] + SERVER_FLAGS,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        self.setup_s = time.perf_counter() - t0
        if "listening on" not in line:
            self.stop()
            raise common.BenchError("gva_serverd did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise common.BenchError("no VmHWM for gva_serverd")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def job_bodies(specs):
    bodies = []
    for job in specs:
        fields = ['"detector": "%s"' % job["detector"]]
        if job["window"]:
            fields += ['"window": %d' % job["window"], '"paa": %d' % job["paa"],
                       '"alphabet": %d' % job["alphabet"]]
        fields.append('"series": [%s]' % ",".join(csv_tokens(job["csv"])))
        bodies.append(("{%s}" % ", ".join(fields)).encode())
    return bodies


def append_bodies(stream):
    tokens = csv_tokens(stream["csv"])
    return [('{"samples": [%s]}' % ",".join(
        tokens[b * STREAM_BATCH:(b + 1) * STREAM_BATCH])).encode()
            for b in range(stream["batches"])]


def run_fixed(ctx, server, specs, refs, schedule, record):
    client = Client(server.port, ctx.seed)
    try:
        bodies = job_bodies(specs["server"])
        stream_bodies = [append_bodies(s) for s in specs["streams"]]
        if record is not None:
            for offset, job, tenant in schedule:
                data = request("POST", "/v1/jobs", tenant, bodies[job])
                record[data] = record.get(data, 0) + 1
        start = time.perf_counter() + 0.05
        phase = Phase(client, specs["server"], bodies, refs, schedule, start)
        streams = Streams(client, specs["streams"], stream_bodies, refs,
                          start, record)
        client.run(lambda: phase.done() and streams.done(),
                   start + schedule[-1][0] + 60.0)
    finally:
        client.close()
    lag = phase.lag_ms + streams.lag_ms
    lag_p99 = stats.percentile(lag, 99)
    if lag_p99 > GENERATOR_LAG_LIMIT_MS:
        raise common.BenchError(
            "run invalid: the load generator fell behind (lag p99 %.2f ms "
            "> %.1f ms)" % (lag_p99, GENERATOR_LAG_LIMIT_MS))
    for failure in phase.failures + streams.failures:
        ctx.note_failure("fixed rate", failure)
    ctx.attempted = len(phase.latencies) + streams.attempted
    ctx.failed = phase.refused + phase.wrong + streams.failed
    # failed_frac counts the fixed rate only, not the rungs that probe
    # above capacity.
    failed_frac = ctx.failed / ctx.attempted
    return phase, streams, lag, failed_frac


def run_ladder(ctx, server, specs, refs, pools, rng):
    """Binary search of the (descending) ladder for the highest passing
    rung, on the assumption that every rung below a passing one passes too.
    Returns that rate (0.0 if none passed) and one row per rung tried."""
    rows = []
    bodies = job_bodies(specs["server"])
    deadline = time.perf_counter() + LADDER_BUDGET_S
    best = 0.0
    lo, hi = 0, len(LADDER) - 1
    while lo <= hi and time.perf_counter() < deadline:
        mid = (lo + hi) // 2
        rate = LADDER[mid]
        client = Client(server.port, ctx.seed + int(rate))
        try:
            schedule = arrivals(rng, rate, LADDER_JOBS, pools)
            start = time.perf_counter() + 0.05
            phase = Phase(client, specs["server"], bodies, refs, schedule,
                          start, limit_ms=P99_LIMIT_MS)
            client.run(phase.done, start + schedule[-1][0] + 60.0)
        finally:
            client.close()
        # Refusals only cost a rung its latency limit; a wrong answer
        # makes the whole run incorrect.
        ctx.failed += phase.wrong
        for failure in phase.failures:
            if "answered 429" not in failure:
                ctx.note_failure("ladder %.0f jobs/s" % rate, failure)
        growth = phase.backlog_growth()
        lag_p99 = (stats.percentile(phase.lag_ms, 99)
                   if len(phase.lag_ms) >= LADDER_JOBS else float("nan"))
        # A rung the client could not drive on time shows nothing about
        # the server: it does not pass.
        passed = (not phase.aborted and growth <= BACKLOG_GROWTH_LIMIT
                  and lag_p99 <= GENERATOR_LAG_LIMIT_MS)
        p99 = (stats.percentile(phase.latencies, 99)
               if len(phase.latencies) >= LADDER_JOBS else float("inf"))
        rows.append((rate, len(phase.latencies), p99, phase.refused, growth,
                     lag_p99, passed))
        if passed:
            best = rate
            hi = mid - 1
        else:
            lo = mid + 1
    return best, rows


def run(ctx):
    specs = make_specs(ctx.inputs, ctx.workdir, ctx.seconds)
    refs = ctx.references(specs)
    jobs = specs["server"]
    ctx.report_quality([refs["server"][job["key"]] for job in jobs])
    explicit = [i for i, j in enumerate(jobs) if j["window"]]
    zero = [i for i, j in enumerate(jobs) if not j["window"]]
    rng = random.Random(ctx.seed)
    schedule = arrivals(rng, FIXED_RATE, fixed_jobs(ctx.seconds),
                        (explicit, zero))

    if not ctx.trace:
        meter = speed.Speedometer(ctx.bins["gvabench_calibrate"])
        try:
            return run_timed(ctx, meter, specs, refs, schedule,
                             (explicit, zero), rng)
        finally:
            meter.close()

    # The traced run: the fixed rate once more for the client-side timings
    # and the recorded requests, then the in-process replay.
    server = Server(ctx.bins["gva_serverd"])
    record = {}
    try:
        phase, streams, lag, _ = run_fixed(ctx, server, specs, refs,
                                           schedule, record)
    finally:
        server.stop()
    with open(ctx.path("schedule.json"), "w") as f:
        json.dump({"arrivals": [[1e3 * offset, job]
                                for offset, job, _ in schedule]}, f)
    with open(ctx.path("requests.json"), "w") as f:
        json.dump({"requests": [{"text": data.decode("latin-1"),
                                 "count": count}
                                for data, count in record.items()]}, f)
    replay = ctx.replay("serve", [
        "--schedule", ctx.path("schedule.json"),
        "--requests", ctx.path("requests.json"),
        "--slots", str(SLOTS), "--queue", str(QUEUE)])
    client = {"submit_rtt_ms": phase.submit_rtt_ms,
              "append_rtt_ms": streams.append_rtt_ms,
              "generator_lag_ms": lag}
    return common.layer_metrics(replay, client)


def run_timed(ctx, meter, specs, refs, schedule, pools, rng):
    """The end-to-end run: set-up, the fixed rate, the ladder. The kernel
    (speed.py) is sampled between server starts, and every
    CALIBRATION_PERIOD_MS during the fixed rate and the ladder."""
    setups = []
    samples = []
    for _ in range(SETUP_RUNS - 1):
        samples.append(meter.sample())
        server = Server(ctx.bins["gva_serverd"])
        setups.append(server.setup_s)
        server.stop()
    samples.append(meter.sample())
    server = Server(ctx.bins["gva_serverd"])
    setups.append(server.setup_s)
    try:
        meter.start_periodic(CALIBRATION_PERIOD_MS)
        try:
            phase, streams, lag, failed_frac = run_fixed(
                ctx, server, specs, refs, schedule, None)
        finally:
            during_fixed = meter.stop_periodic()
        rss_mb = server.peak_rss_mb()
        meter.start_periodic(CALIBRATION_PERIOD_MS)
        try:
            max_rate, rows = run_ladder(ctx, server, specs, refs, pools, rng)
        finally:
            during_ladder = meter.stop_periodic()
    finally:
        server.stop()

    print("rate ladder (p99 limit %.0f ms, unscaled):" % P99_LIMIT_MS)
    for rate, n, p99, refused, growth, lag_p99, passed in rows:
        print("  %6.1f jobs/s  n=%4d  p99=%8.1f ms  refused %3d  backlog "
              "growth %+.2f  generator lag p99 %.2f ms  %s"
              % (rate, n, p99, refused, growth, lag_p99,
                 "pass" if passed else "fail"))
    # Each job and report is scaled by the kernel samples around its due
    # time; the ladder's rate by the inverse of its samples' factor.
    latencies = [t * f for t, f in zip(
        phase.latencies, speed.factors_at(phase.dues, during_fixed))]
    report_lags = [t * f for t, f in zip(
        streams.report_lag_ms,
        speed.factors_at(streams.report_dues, during_fixed))]
    fixed_ms = [ms for _, ms in during_fixed]
    unscaled = {
        "setup_s": statistics.median(setups),
        "latency_ms.p50": stats.percentile(phase.latencies, 50),
        "latency_ms.p90": stats.percentile(phase.latencies, 90),
        "latency_ms.p99": stats.percentile(phase.latencies, 99),
        "max_rate.jobs_per_s": max_rate,
        "stream.lag_ms.p50": stats.percentile(streams.report_lag_ms, 50),
        "stream.lag_ms.p99": stats.percentile(streams.report_lag_ms, 99),
        "host sample ms (median)": statistics.median(fixed_ms),
    }
    ctx.unscaled = unscaled
    n = len(phase.latencies)
    return {
        "setup_s": unscaled["setup_s"] * speed.factor(samples),
        "latency_ms.p50": stats.percentile(latencies, 50),
        "latency_ms.p90": stats.percentile(latencies, 90),
        "latency_ms.p99": stats.percentile(latencies, 99),
        "max_rate.jobs_per_s": max_rate / speed.factor(
            [ms for _, ms in during_ladder]),
        "stream.lag_ms.p50": stats.percentile(report_lags, 50),
        "stream.lag_ms.p99": stats.percentile(report_lags, 99),
        "recall": ctx.recall,
        "precision": ctx.precision,
        "failed_frac": failed_frac,
        "rss_mb": rss_mb,
        "generator.lag_ms.p99": stats.percentile(lag, 99),
    }, {"latency_ms.p50": n, "latency_ms.p90": n, "latency_ms.p99": n,
        "stream.lag_ms.p50": len(report_lags),
        "stream.lag_ms.p99": len(report_lags)}
