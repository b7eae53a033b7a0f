#!/usr/bin/env python3
"""The repository benchmark: four workloads over `bhive measure`,
`bhive serve`, `bhive table5` and `bhive calibrate`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the production binary and the
benchmark's helper (`perfbench/tool`) into `$CARGO_TARGET_DIR`
(default `.bench_build`), makes the workload's inputs from `--seed`,
measures for `--seconds`, checks the outputs, and prints one JSON object
as the last line of standard output.

With `--trace 0` the production binaries run with tracing off and the
end-to-end metrics are reported; with `--trace 1` the traced run calls
the library in-process and the per-layer metrics are reported.
See `perfbench/README.md` for what each workload is for.
"""

import argparse
import bisect
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
# serve-mixed runs and checks its answers like the others, but
# BENCHMARK.json does not declare it: its latency figures are not
# steady enough to gate (see README.md, "Bounds").
WORKLOADS = ("measure-cold", "serve-mixed", "evaluate-warm", "calibrate-all")

# Corpus scale (blocks per application; ten applications) per workload.
MEASURE_SCALE = 500
EVALUATE_SCALE = 40
CALIBRATE_SCALE = 40
UARCHES = ("ivb", "hsw", "skl")

# serve-mixed traffic: open loop at a fixed rate. The daemon answers
# each connection's lines in order and every miss goes on the cold
# client's one connection, so at most one miss is in flight: the
# configuration's miss capacity is one over a miss's service time.
# `perfbench/capacity.py` measured it at MISS_CAPACITY misses/s (median
# of five rounds, recorded in seed_runs.json under "capacity"). Misses
# are offered at MISS_LOAD of that capacity, a lightly loaded daemon:
# at 0.25, run_s spread 0.64 over five seeds on a 2-vCPU host, because
# queueing and CPU contention amplify the host's speed swings. REPEAT_SHARE of the requests repeat a block first asked at
# least SETTLE_US earlier (warm hits); the rest are first-seen blocks
# (misses).
MISS_CAPACITY = 1300.0
MISS_LOAD = 0.06
REPEAT_SHARE = 0.8
SERVE_RATE = round(MISS_CAPACITY * MISS_LOAD / (1 - REPEAT_SHARE), 3)
SETTLE_US = 250_000


def serve_scale(seconds):
    """A corpus scale (ten applications) with more distinct blocks than
    a stream of `seconds` asks for first, with a margin for duplicates."""
    misses_per_s = SERVE_RATE * (1 - REPEAT_SHARE)
    return 20 + int(misses_per_s * 1.5 * seconds / 10)


# The traced run serves a shorter stream on the workloads that are not
# about serving.
TRACE_STREAM_SECONDS = 3.0
# Admission is set so the offered rate is always admitted.
SERVE_ADMISSION = {"rate": 4000, "burst": 1000, "queue": 64}
# Per-request budget, and the latency limit of slo_miss_share.
DEADLINE_MS = 5000
SLO_US = 20_000.0

# Each timing is the median of several repetitions within one run: the
# set-up repeats until MIN_SETUPS repetitions and SETUP_SECONDS have
# passed, the measured passes until MIN_PASSES and --seconds.
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

# Tail percentile: the highest of these (in tenths of a percent) with
# at least TAIL_BEYOND samples beyond it.
TAIL_LADDER = (999, 995, 990, 980, 950, 900, 750, 500)
TAIL_BEYOND = 10

REFERENCE_FILE = BENCH_DIR / "reference.json"


class BenchError(Exception):
    """The benchmark could not run: build failure, crashed child."""


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------


def tail(values):
    """The highest ladder percentile with at least TAIL_BEYOND samples
    strictly beyond its nearest rank: returns (percentile, value,
    samples beyond), or None when there are too few samples for any."""
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_LADDER:
        rank = max(1, -(-n * permille // 1000))
        beyond = n - rank
        if beyond >= TAIL_BEYOND:
            return permille / 10, ordered[rank - 1], beyond
    return None


# ---------------------------------------------------------------------
# serve-mixed request stream
# ---------------------------------------------------------------------

WARM_CONN, COLD_CONN = 0, 1
CLIENTS = ("warm", "cold")


def serve_stream(hexes, seed, seconds, rate=SERVE_RATE):
    """The open-loop request stream, a pure function of its arguments.

    Request slots are due every 1/rate. A slot is, with probability
    REPEAT_SHARE, a repeat of a block whose first request was due at
    least SETTLE_US earlier (a warm hit, sent by the warm client on
    connection 0), left empty while no block is that old yet; otherwise
    it is the next first-seen block of a seeded shuffle of `hexes` (a
    miss, sent by the cold client on connection 1). Misses therefore
    arrive at the same rate from the start. Returns a list of
    (due_us, conn, kind, hex, line)."""
    rng = random.Random(f"serve-mixed/{seed}")
    order = list(dict.fromkeys(hexes))
    rng.shuffle(order)
    count = int(seconds * rate)
    interval_us = 1e6 / rate
    first_due, first_hex = [], []
    requests = []
    for i in range(count):
        due = round(i * interval_us)
        if rng.random() < REPEAT_SHARE:
            settled = bisect.bisect_right(first_due, due - SETTLE_US)
            if not settled:
                continue
            kind, conn = "hit", WARM_CONN
            block = first_hex[rng.randrange(settled)]
        else:
            if len(first_hex) == len(order):
                raise BenchError("corpus too small for the stream's first-seen blocks")
            kind, conn = "miss", COLD_CONN
            block = order[len(first_hex)]
            first_due.append(due)
            first_hex.append(block)
        line = json.dumps(
            {
                "op": "predict",
                "id": len(requests),
                "client": CLIENTS[conn],
                "hex": block,
                "deadline_ms": DEADLINE_MS,
            },
            separators=(",", ":"),
        )
        requests.append((due, conn, kind, block, line))
    return requests


def write_stream(requests, path):
    with open(path, "w") as out:
        for due, conn, _, _, line in requests:
            out.write(f"{due}\t{conn}\t{line}\n")


def read_answers(path):
    """Answer lines of the load generator: (lag_ns, latency_ns or None,
    parsed response or None)."""
    answers = []
    with open(path) as lines:
        for row in lines:
            lag, latency, response = row.rstrip("\n").split("\t", 2)
            latency = int(latency)
            parsed = json.loads(response) if response else None
            answers.append((int(lag), None if latency < 0 else latency, parsed))
    return answers


def is_ok(response):
    """An operation succeeded when the server answered the block: with a
    measurement (`ok`) or with the filter that dropped it (`failed`).
    Refused, shed, expired, erroring and unanswered requests failed."""
    return response is not None and response.get("status") in ("ok", "failed")


def summarize_answers(requests, answers):
    """Latency, failure and SLO figures of one served stream."""
    if len(requests) != len(answers):
        raise BenchError(f"{len(answers)} answers for {len(requests)} requests")
    latencies = {"hit": [], "miss": []}
    failed = slo_missed = dropped = 0
    last_answer_ns = waited_ns = 0
    for (due, _, kind, _, _), (_, latency, response) in zip(requests, answers):
        if not is_ok(response):
            failed += 1
            slo_missed += 1
            continue
        if response["status"] == "failed":
            dropped += 1
        latencies[kind].append(latency / 1e3)
        if latency / 1e3 > SLO_US:
            slo_missed += 1
        last_answer_ns = max(last_answer_ns, due * 1000 + latency)
        waited_ns += latency
    total = len(requests)
    summary = {
        "requests": total,
        "failed": failed,
        "failed_share": failed / total,
        "slo_miss_share": slo_missed / total,
        "slo_us": SLO_US,
        "dropped": dropped,
        "answered": total - failed,
        "span_s": last_answer_ns / 1e9,
        "waited_s": waited_ns / 1e9,
        "lag_ms": max(lag for lag, _, _ in answers) / 1e6,
        "lag_p50_ms": median([lag for lag, _, _ in answers]) / 1e6,
    }
    # The stream's wait at typical latency: every answered request
    # waits its kind's median latency. Unlike the summed latencies
    # (waited_s) it is not set by a few host stalls in the tail.
    summary["typical_wait_s"] = 0.0
    for kind, values in latencies.items():
        summary[f"{kind}_count"] = len(values)
        if not values:
            continue
        summary[f"{kind}_p50_us"] = median(values)
        summary["typical_wait_s"] += len(values) * median(values) / 1e6
        found = tail(values)
        if found:
            p, value, beyond = found
            summary[f"{kind}_tail_us"] = value
            summary[f"{kind}_tail_percentile"] = p
            summary[f"{kind}_tail_beyond"] = beyond
    return summary


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------


class Run:
    """One finished child process: wall and CPU seconds, peak RSS."""

    def __init__(self, code, wall, cpu, rss_kb, stderr):
        self.code = code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_kb / 1024.0
        self.stderr = stderr


def reap(proc, started, err_path):
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(err_path).read_text(errors="replace") if err_path else ""
    return Run(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stderr)


def run_child(cmd, out_path, err_path, timeout=CHILD_TIMEOUT_S):
    """Runs `cmd` to completion with stdout and stderr in files; kills it
    after `timeout` seconds."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        result = reap(proc, started, err_path)
    finally:
        watchdog.cancel()
    if result.code != 0:
        sys.stderr.write(result.stderr[-2000:])
    return result


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cargo_build(args, env):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=840,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"cargo build {' '.join(args)} failed")


def build():
    """Builds `bhive` and the helper; returns their paths."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not Path("Cargo.toml").is_file() or not Path("crates/core").is_dir():
        raise BenchError("run from the root of a bhive checkout")
    cargo_build(["-p", "bhive"], env)
    cargo_build(["--manifest-path", str(BENCH_DIR / "tool" / "Cargo.toml")], env)
    release = Path(env["CARGO_TARGET_DIR"]) / "release"
    return release / "bhive", release / "perfbench-tool"


def threads():
    return len(os.sched_getaffinity(0))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def csv_rows(path):
    with open(path) as lines:
        return sum(1 for line in lines if line.strip() and not line.startswith("#"))


def corpus_hexes(bhive, scale, seed, work):
    """The generated corpus's blocks, as `bhive corpus` prints them."""
    out = work / "corpus.csv"
    result = run_child(
        [bhive, "corpus", "--scale", str(scale), "--seed", str(seed)], out, work / "corpus.err"
    )
    if result.code != 0:
        raise BenchError("bhive corpus failed")
    with open(out) as lines:
        return [line.split(",")[1] for line in lines if line.strip()]


def load_reference():
    if REFERENCE_FILE.is_file():
        return json.loads(REFERENCE_FILE.read_text())
    return {}


def timed_setups(setup, teardown=None):
    """Runs `setup` until MIN_SETUPS runs and SETUP_SECONDS of set-up
    time, and `teardown` untimed on every result but the last; returns
    (median seconds, last result)."""
    times, result = [], None
    while len(times) < MIN_SETUPS or sum(times) < SETUP_SECONDS:
        if times and teardown:
            teardown(result)
        started = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - started)
    return median(times), result


def passes_until(seconds, one_pass):
    """Repeats `one_pass` until `seconds` have passed, and at least
    MIN_PASSES times."""
    results = []
    started = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - started < seconds:
        results.append(one_pass(len(results)))
    return results


def metric_block(setup_s, run_s, blocks_per_s, cpu_s, measured_share, ok_share, peak_rss_mb):
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "blocks_per_s": (blocks_per_s, "1/s"),
        "cpu_s": (cpu_s, "s"),
        "measured_share": (measured_share, "share"),
        "ok_share": (ok_share, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


class Gate:
    """Collects correctness checks; any failure makes the run incorrect."""

    def __init__(self):
        self.failures = []
        self.notes = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def note(self, what):
        self.notes.append(what)


# ---------------------------------------------------------------------
# Workloads, tracing off
# ---------------------------------------------------------------------


def measure_cold(bhive, _tool, seed, seconds, work, gate):
    nthreads = threads()
    args = ["--scale", str(MEASURE_SCALE), "--seed", str(seed)]

    def setup():
        return len(corpus_hexes(bhive, MEASURE_SCALE, seed, work))

    setup_s, attempted_blocks = timed_setups(setup)

    def one_pass(i):
        cache = fresh_dir(work / f"cache{i}")
        out = work / f"measure{i}.csv"
        cmd = [bhive, "measure", *args, "--threads", str(nthreads), "--cache", str(cache)]
        return run_child(cmd, out, work / f"measure{i}.err"), out

    passes = passes_until(seconds, one_pass)
    ok_runs = [(run, out) for run, out in passes if run.code == 0]
    gate.check(len(ok_runs) == len(passes), "every bhive measure pass exits 0")
    if not ok_runs:
        raise BenchError("no bhive measure pass succeeded")
    digests = {sha256(out) for _, out in ok_runs}
    gate.check(len(digests) == 1, "cold CSVs are byte-identical across passes")
    reference_out = ok_runs[0][1]
    rows = csv_rows(reference_out)

    last_cache = work / f"cache{len(passes) - 1}"
    warm = run_child(
        [bhive, "measure", *args, "--threads", str(nthreads), "--cache", str(last_cache)],
        work / "warm.csv",
        work / "warm.err",
    )
    gate.check(warm.code == 0 and sha256(work / "warm.csv") in digests,
               "a warm replay of the cache gives the same CSV")
    gate.check(" 0 misses" in warm.stderr, "the warm replay is answered entirely from the cache")
    single = run_child(
        [bhive, "measure", *args, "--threads", "1", "--cache", str(fresh_dir(work / "cache1t"))],
        work / "single.csv",
        work / "single.err",
    )
    gate.check(single.code == 0 and sha256(work / "single.csv") in digests,
               "the CSV is byte-identical at 1 thread")
    expected = load_reference().get("measure-cold", {}).get(str(seed))
    digest = sha256(reference_out)
    if expected is None:
        gate.note(f"no reference digest recorded for seed {seed}")
    else:
        gate.check(digest == expected, f"CSV digest matches the reference for seed {seed}")

    runs = [run for run, _ in passes]
    failed_blocks = attempted_blocks * (len(passes) - len(ok_runs))
    metrics = metric_block(
        setup_s,
        median(r.wall for r, _ in ok_runs),
        median(rows / r.wall for r, _ in ok_runs),
        median(r.cpu for r, _ in ok_runs),
        rows / attempted_blocks,
        1 - failed_blocks / (attempted_blocks * len(passes)),
        median(r.rss_mb for r in runs),
    )
    details = {"pass_s": [r.wall for r in runs], "threads": nthreads, "blocks": attempted_blocks,
               "measured": rows, "csv_sha256": digest}
    return metrics, attempted_blocks * len(passes), failed_blocks, details


def start_server(bhive, sock, cache, nthreads, err_path):
    cmd = [bhive, "serve", "--listen", f"unix:{sock}", "--cache", str(cache),
           "--threads", str(nthreads)]
    for flag, value in SERVE_ADMISSION.items():
        cmd += [f"--{flag}", str(value)]
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                stdin=subprocess.DEVNULL)
    deadline = time.monotonic() + 30
    while True:
        if proc.poll() is not None:
            raise BenchError("bhive serve exited during start-up")
        try:
            health = health_request(sock)
            if health.get("state") == "serving":
                return proc, started
        except OSError:
            pass
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise BenchError("bhive serve did not become ready")
        time.sleep(0.001)


def health_request(sock):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(5)
        conn.connect(str(sock))
        conn.sendall(b'{"op":"health"}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = conn.recv(4096)
            if not chunk:
                raise OSError("server closed the connection")
            data += chunk
    return json.loads(data)


def stop_server(proc, started, err_path):
    proc.send_signal(signal.SIGTERM)
    watchdog = threading.Timer(30, proc.kill)
    watchdog.start()
    try:
        return reap(proc, started, err_path)
    finally:
        watchdog.cancel()


def serve_mixed(bhive, tool, seed, seconds, work, gate):
    nthreads = threads()
    # A relative socket path: a long checkout path could exceed the
    # 108-byte limit of unix socket addresses.
    sock = Path(os.path.relpath(work / "s.sock"))
    running = []

    def setup():
        hexes = corpus_hexes(bhive, serve_scale(seconds), seed, work)
        requests = serve_stream(hexes, seed, seconds)
        write_stream(requests, work / "stream.tsv")
        cache = fresh_dir(work / "serve-cache")
        running.append(start_server(bhive, sock, cache, nthreads, work / "serve.err"))
        return requests

    def stop_all():
        stopped = None
        while running:
            stopped = stop_server(*running.pop(), work / "serve.err")
        return stopped

    try:
        setup_s, requests = timed_setups(setup, lambda _: stop_all())
        load = run_child([tool, "load", "--socket", str(sock), "--stream", str(work / "stream.tsv"),
                          "--answers", str(work / "answers.tsv")],
                         work / "load.out", work / "load.err")
        health = health_request(sock)
    finally:
        server = stop_all()
    if load.code != 0:
        raise BenchError("load generator failed")
    gate.check(server.code == 0, "bhive serve drains and exits 0")
    answers = read_answers(work / "answers.tsv")
    summary = summarize_answers(requests, answers)
    summary["server_hits"] = health["hits"]
    summary["server_requests"] = health["requests"]

    batch = run_child(
        [bhive, "measure", "--scale", str(serve_scale(seconds)), "--seed", str(seed), "--no-cache",
         "--threads", str(nthreads)],
        work / "batch.csv", work / "batch.err")
    gate.check(batch.code == 0, "the batch measurement exits 0")
    measured = {}
    with open(work / "batch.csv") as lines:
        for line in lines:
            if line.strip() and not line.startswith("#"):
                fields = line.rstrip("\n").split(",")
                measured[fields[1]] = float(fields[3])
    mismatched = 0
    for (_, _, _, block, _), (_, _, response) in zip(requests, answers):
        if response is None:
            continue
        if response.get("status") == "ok":
            mismatched += measured.get(block) != float(response["throughput"])
        elif response.get("status") == "failed":
            mismatched += block in measured
    gate.check(mismatched == 0,
               f"every answer equals the batch measurement of its block ({mismatched} differ)")

    # The schedule fixes the stream's span, so the time figures are the
    # server's answers: run_s is the stream's wait at each kind's median
    # latency from due time, blocks_per_s the answers per second of it.
    answered = summary["answered"]
    if not summary["typical_wait_s"]:
        raise BenchError("no request of the stream was answered")
    metrics = metric_block(
        setup_s,
        summary["typical_wait_s"],
        answered / summary["typical_wait_s"],
        server.cpu,
        (answered - summary["dropped"]) / max(answered, 1),
        1 - summary["failed_share"],
        server.rss_mb,
    )
    return metrics, summary["requests"], summary["failed"], summary


def table5_cells(path):
    report = json.loads(Path(path).read_text())
    return [[row[0], row[1], float(row[2]), float(row[3])] for row in report["rows"]]


def evaluate_warm(bhive, _tool, seed, seconds, work, gate):
    nthreads = threads()
    args = ["--scale", str(EVALUATE_SCALE), "--seed", str(seed), "--threads", str(nthreads)]
    cache = work / "cache"

    def setup():
        fresh_dir(cache)
        run = run_child([bhive, "table5", *args, "--cache", str(cache), "--json"],
                        work / "cold.json", work / "cold.err")
        if run.code != 0:
            raise BenchError("cold bhive table5 failed")
        return run

    setup_s, _ = timed_setups(setup)

    def one_pass(i):
        out = work / f"warm{i}.json"
        return run_child([bhive, "table5", *args, "--cache", str(cache), "--json"],
                         out, work / f"warm{i}.err"), out

    passes = passes_until(seconds, one_pass)
    ok_runs = [(run, out) for run, out in passes if run.code == 0]
    gate.check(len(ok_runs) == len(passes), "every warm bhive table5 pass exits 0")
    if not ok_runs:
        raise BenchError("no warm bhive table5 pass succeeded")
    cold = sha256(work / "cold.json")
    gate.check(all(sha256(out) == cold for _, out in ok_runs),
               "warm Table 5 output is byte-identical to the cold fill's")
    cells = table5_cells(work / "cold.json")
    gate.check(len(cells) == 12, "Table 5 has 12 cells")
    expected = load_reference().get("evaluate-warm", {}).get(str(seed))
    if expected is None:
        gate.note(f"no reference Table 5 recorded for seed {seed}")
    else:
        gate.check(cells == expected, f"Table 5 cells equal the reference for seed {seed}")

    attempted = measured = 0
    for uarch in UARCHES:
        out = work / f"measured-{uarch}.csv"
        run = run_child([bhive, "measure", "--scale", str(EVALUATE_SCALE), "--seed", str(seed),
                         "--uarch", uarch, "--cache", str(cache)], out, work / f"m-{uarch}.err")
        gate.check(run.code == 0 and " 0 misses" in run.stderr,
                   f"the set-up filled the {uarch} cache")
        measured += csv_rows(out)
        # "profiling Main/hsw: 400 blocks (...)"
        for line in run.stderr.splitlines():
            if line.startswith("profiling Main/"):
                attempted += int(line.split(":")[1].split()[0])
    if attempted == 0:
        raise BenchError("could not read the attempted block count")

    runs = [run for run, _ in ok_runs]
    failed_blocks = measured * (len(passes) - len(ok_runs))
    gap = statistics.fmean(abs(c[2] - c[3]) for c in cells)
    metrics = metric_block(
        setup_s,
        median(r.wall for r in runs),
        median(measured / r.wall for r in runs),
        median(r.cpu for r in runs),
        measured / attempted,
        1 - failed_blocks / (measured * len(passes)),
        median(r.rss_mb for r in runs),
    )
    details = {"pass_s": [r.wall for r in runs], "table5_gap": gap, "cells": cells,
               "evaluated_blocks": measured}
    return metrics, measured * len(passes), failed_blocks, details


def calibrate_all(bhive, _tool, seed, seconds, work, gate):
    # The probe battery is fixed, so the seed changes nothing here.
    del seed
    nthreads = threads()

    # `bhive calibrate` has no set-up of its own beyond fresh cache
    # directories: setup_s here is the floor of starting the binary,
    # timed as `bhive help` and checked by its output.
    def setup():
        fresh_dir(work / "calib")
        run = run_child([bhive, "help"], work / "help.out", work / "help.err")
        if run.code != 0 or "calibrate" not in (work / "help.out").read_text():
            raise BenchError("bhive help failed")

    setup_s, _ = timed_setups(setup)

    def one_pass(i):
        runs, reports = [], {}
        for uarch in UARCHES:
            cache = fresh_dir(work / "calib" / f"{i}-{uarch}")
            report = work / "calib" / f"{i}-{uarch}.json"
            runs.append(run_child(
                [bhive, "calibrate", "--uarch", uarch, "--threads", str(nthreads),
                 "--cache", str(cache), "--report", str(report)],
                work / "calib" / f"{i}-{uarch}.out", work / "calib" / f"{i}-{uarch}.err"))
            reports[uarch] = report
        return runs, reports

    passes = passes_until(seconds, one_pass)
    first = passes[0][1]
    probes = measured = 0
    for uarch in UARCHES:
        report = json.loads(first[uarch].read_text())
        gate.check(report["drift_count"] == 0, f"zero drift on {uarch}")
        probes += report["probe_count"]
        measured += report["measured_probes"]
        gate.check(all(sha256(p[1][uarch]) == sha256(first[uarch]) for p in passes),
                   f"{uarch} reports are byte-identical across repetitions")
    ok_passes = [runs for runs, _ in passes if all(r.code == 0 for r in runs)]
    gate.check(len(ok_passes) == len(passes), "every bhive calibrate exits 0")
    if not ok_passes:
        raise BenchError("no calibrate pass succeeded")
    walls = [sum(r.wall for r in runs) for runs in ok_passes]
    metrics = metric_block(
        setup_s,
        median(walls),
        median(measured / w for w in walls),
        median(sum(r.cpu for r in runs) for runs in ok_passes),
        measured / probes,
        1 - probes * (len(passes) - len(ok_passes)) / (probes * len(passes)),
        median(max(r.rss_mb for r in runs) for runs in ok_passes),
    )
    details = {"pass_s": walls, "probes": probes, "measured_probes": measured}
    return metrics, probes * len(passes), probes * (len(passes) - len(ok_passes)), details


# ---------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------

def traced(bhive, tool, workload, seed, seconds, work, gate):
    scale = {
        "measure-cold": MEASURE_SCALE,
        "serve-mixed": serve_scale(seconds),
        "evaluate-warm": EVALUATE_SCALE,
        "calibrate-all": CALIBRATE_SCALE,
    }[workload]
    hexes = corpus_hexes(bhive, scale, seed, work)
    stream_seconds = seconds if workload == "serve-mixed" else TRACE_STREAM_SECONDS
    stream_hexes = hexes if workload == "serve-mixed" else corpus_hexes(
        bhive, serve_scale(stream_seconds), seed, work)
    requests = serve_stream(stream_hexes, seed, stream_seconds)
    write_stream(requests, work / "stream.tsv")
    if workload == "serve-mixed":
        unique = list(dict.fromkeys(block for _, _, _, block, _ in requests))
        (work / "blocks.txt").write_text("\n".join(unique) + "\n")
        blocks = str(work / "blocks.txt")
    elif workload == "calibrate-all":
        blocks = "probes"
    else:
        blocks = "corpus"
    cmd = [tool, "trace", "--seed", str(seed), "--scale", str(scale), "--threads", str(threads()),
           "--work", str(work), "--blocks", blocks, "--stream", str(work / "stream.tsv"),
           "--answers", str(work / "answers.tsv")]
    for flag, value in SERVE_ADMISSION.items():
        cmd += [f"--{flag}", str(value)]
    run = run_child(cmd, work / "trace.json", work / "trace.err")
    gate.check(run.code == 0, "the traced run passes its replay and cache checks")
    if run.code != 0:
        return {}, len(hexes), len(hexes), {}
    ledger = json.loads((work / "trace.json").read_text().strip().splitlines()[-1])
    layer = dict(ledger["metrics"])
    attempts = ledger["samples"]["harness.profile_attempt_us"]
    layer["harness.profile_attempt_p50_us"] = median(attempts)
    found = tail(attempts)
    layer["harness.profile_attempt_tail_us"] = found[1] if found else max(attempts)
    summary = summarize_answers(requests, read_answers(work / "answers.tsv"))
    for kind in ("hit", "miss"):
        layer[f"serve.{kind}_p50_us"] = summary.get(f"{kind}_p50_us", 0.0)
        layer[f"serve.{kind}_tail_us"] = summary.get(f"{kind}_tail_us", 0.0)
    layer["serve.miss_overhead_us"] = (
        layer["serve.miss_p50_us"] - median(ledger["samples"]["serve.miss_profile_attempt_us"]))
    layer["loadgen.lag_ms"] = summary["lag_ms"]
    attempted = int(layer["harness.replayed_blocks"]) + summary["requests"]
    details = {
        "replayed_blocks": int(layer["harness.replayed_blocks"]),
        "profile_attempt_tail_percentile": found[0] if found else 100.0,
        "serve": summary,
    }
    return layer, attempted, summary["failed"], details


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------

def other_figures(workload, details, attempted, failed, metrics):
    """End-to-end figures that only some workloads have, or that are
    zero on a healthy run, so BENCHMARK.json cannot declare them: each
    as (name, value, unit, note), printed beside the declared metrics."""
    figures = [("failed_share", failed / attempted, "share", "")]
    figures.append(("dropped_share", 1 - metrics["measured_share"]["value"], "share", ""))
    if workload == "serve-mixed":
        figures.append(("slo_miss_share", details["slo_miss_share"], "share",
                        f" (limit {details['slo_us']:.0f} us from due time)"))
        for kind in ("hit", "miss"):
            if f"{kind}_p50_us" in details:
                figures.append((f"{kind}_p50_us", details[f"{kind}_p50_us"], "us",
                                f" ({details[f'{kind}_count']} samples)"))
            if f"{kind}_tail_us" in details:
                figures.append((f"{kind}_tail_us", details[f"{kind}_tail_us"], "us",
                                f" (p{details[f'{kind}_tail_percentile']:g}, "
                                f"{details[f'{kind}_tail_beyond']} samples beyond)"))
        figures.append(("lag_ms", details["lag_ms"], "ms", " (latest send)"))
    elif workload == "evaluate-warm":
        figures.append(("table5_gap", details["table5_gap"], "share", ""))
    return figures


RUNNERS = {
    "measure-cold": measure_cold,
    "serve-mixed": serve_mixed,
    "evaluate-warm": evaluate_warm,
    "calibrate-all": calibrate_all,
}


def declared_metrics(trace):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_benchmark(workload, seed, seconds, trace):
    bhive, tool = build()
    work = fresh_dir(Path(".perfbench_work") / f"{workload}-{os.getpid()}")
    gate = Gate()
    try:
        if trace:
            values, attempted, failed, details = traced(
                bhive, tool, workload, seed, seconds, work, gate)
            units = {m["name"]: m["unit"] for m in declared_metrics(True)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items() if name in values}
            gate.check(len(metrics) == len(units) or not values,
                       f"the traced run reports every per-layer metric "
                       f"(missing: {sorted(set(units) - set(metrics))})")
        else:
            values, attempted, failed, details = RUNNERS[workload](
                bhive, tool, seed, seconds, work, gate)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["checks_failed"] = gate.failures
    details["notes"] = gate.notes
    print(json.dumps({"workload": workload, "seed": seed, "trace": trace, "details": details}))
    for name, metric in metrics.items():
        print(f"# {workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not trace:
        for name, value, unit, note in other_figures(workload, details, attempted, failed, metrics):
            print(f"# {workload} {name} = {value:.6g} {unit}{note}")
    result = {
        "correct": not gate.failures,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not gate.failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        return run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
