#!/usr/bin/env python3
"""End-to-end verification benchmark for the MorphQPV reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin        # re-pin perfbench/expected.json
    python3 perfbench/run.py --baseline   # traced table of every workload

A job is one program verified with all of its `// assert` lines, from
request to verdict. Each run builds the release `verify` and `morph-serve`
binaries plus the helper in perfbench/ (into $CARGO_TARGET_DIR, default
.bench_build), generates its inputs from --seed, sets up (generation,
server spawn and connections, one warm-up job per program class) three
times and keeps the last, then runs whole cycles of its closed loop until
--seconds have passed. With --trace 0 it then sets up three more times;
setup_s is the median of all six.

--trace 0 drives the binaries with tracing off and prints the end-to-end
metrics. --trace 1 spends half the time on the same loop (the server with
--trace-json) and half on an in-process replay of the same jobs through
the layers' public functions, with spans recorded by the helper, and
prints the per-layer metrics. The last stdout line is the result object;
diagnostics go to stderr.

Every job's exit code and per-assertion verdicts are checked against
perfbench/expected.json, pinned from the in-process whole-run reference;
serve responses are also byte-compared with in-process
morph_serve::run_batch on the same lines. Any mismatch fails the job.
"""

import argparse
import hashlib
import json
import os
import re
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("oneshot-wide", "edit-loop-cache", "serve-pairs")
# Set-ups timed before the timed phase (the last is kept) and after it;
# setup_s is their median, so it samples the host at both ends of the run.
SETUP_BEFORE = 3
SETUP_AFTER = 3
MIN_BEYOND = 10
INPUT_QUBIT = "0"
ASSERTIONS = 2
SERVE_ENV = {"MORPH_SERVE_SHARDS": "1"}
CACHE_LINE = re.compile(r"cache: (\d+) hits \((\d+) memory, (\d+) disk\), (\d+) misses")
END_TO_END_UNITS = {
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "jobs_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = (
    "characterize.self_ms", "characterize.quantum_ops",
    "validate.self_ms", "validate.solver_evaluations",
    "store.get_ms", "store.put_ms", "store.artifact_bytes", "store.hit_share",
    "store.reuse_payoff",
    "serve.service_ms", "serve.coalesced_share", "serve.validations_per_job",
    "listener.wire_ms", "qprog.parse_ms", "verify_cli.overhead_ms",
    "incremental.revision_ms", "incremental.segment_hit_share",
    "incremental.verdict_mismatches",
    "unattributed_ms", "trace.overhead_ms",
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Statistics on raw samples
# --------------------------------------------------------------------------

def tail_index(n, min_beyond=MIN_BEYOND):
    """Index into n sorted samples of the highest one with at least
    `min_beyond` samples above it."""
    if n <= min_beyond:
        raise BenchError(f"{n} samples leave no tail with {min_beyond} beyond it")
    return n - 1 - min_beyond


def tail(samples):
    """(value, percentile, count) of the tail latency from raw samples."""
    s = sorted(samples)
    k = tail_index(len(s))
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def class_bands(samples):
    """Latency bands of the job classes: classes in order of their median
    latency, each spanning its share of the samples, in percentile points."""
    by = defaultdict(list)
    for lat, cls in samples:
        by[cls].append(lat)
    bands, lo = [], 0.0
    for cls in sorted(by, key=lambda c: statistics.median(by[c])):
        hi = lo + 100.0 * len(by[cls]) / len(samples)
        bands.append((cls, lo, hi))
        lo = hi
    return bands


def class_position(samples, pct):
    """Which class band holds percentile `pct`, how far it is from the
    nearest boundary between two bands, and the class of the raw sample at
    that rank."""
    bands = class_bands(samples)
    band = next((b for b in bands if b[1] <= pct < b[2]), bands[-1])
    inner = [b[2] for b in bands[:-1]]
    dist = min((abs(pct - x) for x in inner), default=100.0)
    ranked = sorted(samples)
    rank = min(len(ranked) - 1, max(0, int(round(pct / 100.0 * len(ranked) - 0.5))))
    return band, dist, ranked[rank][1]


def describe_position(samples, pct):
    (cls, lo, hi), dist, actual = class_position(samples, pct)
    warn = "" if dist >= 10 else "  WARNING: within 10 pp of a class boundary"
    return f"band {cls} [{lo:.1f}, {hi:.1f}), {dist:.1f} pp from a boundary, sample class {actual}{warn}"


# --------------------------------------------------------------------------
# Build, plan and pins
# --------------------------------------------------------------------------

def build():
    """Builds the programs under test and the helper; returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "morph-bench", "--bin", "verify", "-p", "morph-serve", "--bin", "morph-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    rel = os.path.join(target, "release")
    return {
        "verify": os.path.join(rel, "verify"),
        "serve": os.path.join(rel, "morph-serve"),
        "helper": os.path.join(rel, "morph-perfbench"),
    }


def helper(bins, *args):
    r = subprocess.run([bins["helper"], *args], stdout=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError(f"helper {args[0]} failed")
    return r.stdout


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins():
    with open(os.path.join(BENCH, "expected.json")) as f:
        return json.load(f)["jobs"]


def pin_key(mode, text, seed):
    return f"{mode}:{sha(text)}:{seed}"


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def verdicts_from_cli(stdout):
    return "".join("P" if ": PASSED" in l else "F"
                   for l in stdout.splitlines() if l.startswith("assertion "))


def verdicts_from_response(resp):
    status = {"passed": 0, "refuted": 2}.get(resp.get("status"), 1)
    v = "".join("P" if a.get("verdict") == "passed" else "F" for a in resp.get("assertions", []))
    return status, v


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

def run_verify(bins, args):
    """Runs one `verify` process; returns (latency_ms, exit, stdout, maxrss_kb)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([bins["verify"], *args], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    lat = (time.perf_counter() - t0) * 1e3
    p.returncode = os.waitstatus_to_exitcode(status)
    return lat, p.returncode, out.decode(), ru.ru_maxrss


class Server:
    """A `morph-serve --listen` child with two keep-alive connections."""

    def __init__(self, bins, trace_path=None):
        args = [bins["serve"], "--listen", "127.0.0.1:0", "--workers", "2"]
        if trace_path:
            args += ["--trace-json", trace_path]
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=dict(os.environ, **SERVE_ENV))
        self.conns = []
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            self.close()
            raise BenchError(f"server did not announce its address: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        try:
            for _ in range(2):
                c = socket.create_connection((host, int(port)))
                c.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.conns.append(c)
        except OSError as e:
            self.close()
            raise BenchError(f"could not connect to the server: {e}")
        self.bufs = [b"", b""]
        self.sel = selectors.DefaultSelector()
        for i, c in enumerate(self.conns):
            self.sel.register(c, selectors.EVENT_READ, i)

    def round(self, lines):
        """Sends one line per connection at once; returns, per connection,
        (latency_ms, response bytes)."""
        sent = [0.0, 0.0]
        for i, c in enumerate(self.conns):
            sent[i] = time.perf_counter()
            c.sendall(lines[i] + b"\n")
        got = [None, None]
        while None in got:
            events = self.sel.select(timeout=120)
            if not events:
                raise BenchError("server gave no answer within 120 s")
            for key, _ in events:
                i = key.data
                chunk = self.conns[i].recv(1 << 20)
                if not chunk:
                    raise BenchError("server closed a connection")
                self.bufs[i] += chunk
                if got[i] is None and b"\n" in self.bufs[i]:
                    t = time.perf_counter()
                    resp, self.bufs[i] = self.bufs[i].split(b"\n", 1)
                    got[i] = ((t - sent[i]) * 1e3, resp)
        return got

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the server")

    def close(self):
        for c in self.conns:
            c.close()
        self.conns = []
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Run:
    """One benchmark run: set-up state, samples and failures."""

    def __init__(self, workload, seed, bins, run_dir, trace):
        self.w, self.seed, self.bins, self.dir, self.trace = workload, seed, bins, run_dir, trace
        self.samples = []          # (latency_ms, class)
        self.attempted = 0
        self.failed = 0
        self.maxrss_kb = 0
        self.server = None
        self.trace_path = None

    # -- set-up ------------------------------------------------------------

    def setup(self, index):
        self.plan = os.path.join(self.dir, f"plan{index}")
        helper(self.bins, "gen", self.w, str(self.seed), self.plan)
        self.pins = load_pins()
        if self.w == "serve-pairs":
            with open(os.path.join(self.plan, "requests.jsonl"), "rb") as f:
                self.lines = f.read().splitlines()
            self.keys = []
            for raw in self.lines:
                req = json.loads(raw)
                self.keys.append(pin_key("cached", req["program"], req["seed"]))
            self.rounds = read_tsv(os.path.join(self.plan, "rounds.tsv"))
            if self.trace:
                self.trace_path = os.path.join(self.dir, f"serve-trace{index}.json")
            self.server = Server(self.bins, self.trace_path)
            for r in self.rounds:
                if r[0] == "warmup":
                    a, b = int(r[2]), int(r[3])
                    for (_, resp), line in zip(self.server.round([self.lines[a], self.lines[b]]), (a, b)):
                        if not self.check_response(line, resp):
                            raise BenchError(f"warm-up request line {line} gave a wrong answer")
        else:
            self.jobs = read_tsv(os.path.join(self.plan, "jobs.tsv"))
            self.texts = {}
            for _, _, _, file, _ in self.jobs:
                if file not in self.texts:
                    with open(os.path.join(self.plan, file)) as f:
                        self.texts[file] = sha(f.read())
            warm_cache = os.path.join(self.dir, f"warm-cache{index}")
            for job in self.jobs:
                if job[0] == "warmup":
                    self.cli_job(job, warm_cache, timed=False)

    def teardown(self):
        if self.server:
            self.server.close()
            self.server = None

    # -- checks --------------------------------------------------------------

    def expected(self, key):
        exp = self.pins.get(key)
        if exp is None:
            log(f"no pinned verdict for {key}")
        return exp

    def check_response(self, line, resp):
        try:
            status, v = verdicts_from_response(json.loads(resp))
        except ValueError:
            return False
        return status in (0, 2) and self.expected(self.keys[line]) == f"{status}:{v}"

    # -- CLI workloads -------------------------------------------------------

    def cli_job(self, job, cache_dir, timed=True):
        phase, cls, kind, file, seed = job
        mode = "nocache" if self.w == "oneshot-wide" else "cached"
        args = [os.path.join(self.plan, file), "--seed", seed, "--inputs", INPUT_QUBIT]
        args += ["--no-cache"] if mode == "nocache" else ["--cache-dir", cache_dir]
        lat, rc, out, rss = run_verify(self.bins, args)
        ok = rc in (0, 2) and self.expected(f"{mode}:{self.texts[file]}:{seed}") == f"{rc}:{verdicts_from_cli(out)}"
        if mode == "cached":
            m = CACHE_LINE.search(out)
            hits, misses = (int(m.group(1)), int(m.group(4))) if m else (-1, -1)
            ok = ok and (hits, misses) == ((1, 0) if kind == "hit" else (0, 1))
        if not timed:
            if not ok:
                raise BenchError(f"warm-up job {file} seed {seed} gave a wrong result")
            return
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.maxrss_kb = max(self.maxrss_kb, rss)
        self.samples.append((lat, cls if self.w == "oneshot-wide" else kind))

    def timed_cli(self, seconds):
        jobs = [j for j in self.jobs if j[0] != "warmup"]
        cache_dir = os.path.join(self.dir, "cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
        start = time.perf_counter()
        i, last = 0, None
        while True:
            if i == len(jobs):
                # Past the end of the plan: start over on an empty store.
                i, last = 0, None
                shutil.rmtree(cache_dir, ignore_errors=True)
            if jobs[i][0] != last and time.perf_counter() - start >= seconds:
                break
            last = jobs[i][0]
            self.cli_job(jobs[i], cache_dir)
            i += 1
        return time.perf_counter() - start

    # -- serve-pairs ---------------------------------------------------------

    def timed_serve(self, seconds):
        rounds = [r for r in self.rounds if r[0] != "warmup"]
        self.responses = {}
        self.served = []           # (request line, answer matched its pin)
        start = time.perf_counter()
        i, last = 0, None
        while True:
            # Past the end of the plan: start over; by then the memory
            # tier has long evicted the first rounds' artifacts.
            phase, kind, a, b = rounds[i % len(rounds)]
            if phase != last and time.perf_counter() - start >= seconds:
                break
            last = phase
            lines = (int(a), int(b))
            for line, (lat, resp) in zip(lines, self.server.round([self.lines[lines[0]], self.lines[lines[1]]])):
                first = self.responses.setdefault(line, resp)
                self.served.append((line, self.check_response(line, resp) and first == resp))
                self.samples.append((lat, kind))
            i += 1
        wall = time.perf_counter() - start
        self.maxrss_kb = self.server.peak_rss_kb()
        return wall

    def compare_with_batch(self):
        """Byte-compares each distinct socket response with in-process
        run_batch on the same request lines, then counts the jobs: one
        fails when its answer missed its pin, differed from another answer
        to the same line, or its line's answer differed from run_batch."""
        order = sorted(self.responses)
        path = os.path.join(self.dir, "batch.jsonl")
        with open(path, "wb") as f:
            f.write(b"".join(self.lines[l] + b"\n" for l in order))
        ref = helper(self.bins, "batch", path).splitlines()
        if len(ref) != len(order):
            raise BenchError("run_batch returned a different number of lines")
        bad = {l for l, r in zip(order, ref) if self.responses[l] != r}
        if bad:
            log(f"{len(bad)} distinct request lines answered differently over the socket")
        self.attempted += len(self.served)
        self.failed += sum(1 for line, ok in self.served if not ok or line in bad)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, wall):
        lats = [s[0] for s in self.samples]
        p50 = statistics.median(lats)
        t_val, t_pct, n = tail(lats)
        log(f"{self.w} seed {self.seed}: {len(self.samples)} jobs in {wall:.2f} s, {self.failed} failed")
        log(f"  latency_p50_ms {p50:.3f}: {describe_position(self.samples, 50.0)}")
        log(f"  latency_tail_ms p{t_pct:.1f} = {t_val:.3f} over {n} samples ({n - tail_index(n) - 1} beyond): "
            f"{describe_position(self.samples, t_pct)}")
        return {
            "latency_p50_ms": p50,
            "latency_tail_ms": t_val,
            "jobs_per_s": len(self.samples) / wall,
            "peak_rss_mb": self.maxrss_kb / 1024.0,
        }


def traced_replay(run, seconds):
    """Runs the helper's in-process replay and checks its verdicts."""
    out = json.loads(helper(run.bins, "traced", run.w, run.plan, f"{seconds:.3f}"))
    for key, seed, exit_code, v in out["jobs"]:
        run.attempted += 1
        if key.startswith("line:"):
            pin = run.keys[int(key[5:])]
        else:
            mode = "nocache" if run.w == "oneshot-wide" else "cached"
            with open(os.path.join(run.plan, key)) as f:
                pin = pin_key(mode, f.read(), seed)
        if run.expected(pin) != f"{exit_code}:{v}":
            run.failed += 1
    return out


def serve_counters(path):
    """Sums the serve counters and counts validation spans in a
    `morph-serve --trace-json` export."""
    with open(path) as f:
        doc = json.load(f)
    counters = defaultdict(int, doc.get("counters", {}))
    spans = defaultdict(int)
    stack = list(doc.get("spans", []))
    while stack:
        s = stack.pop()
        spans[s["name"]] += 1
        for k, v in s.get("counters", {}).items():
            counters[k] += v
        stack.extend(s.get("children", []))
    return counters, spans


def run_once(workload, seed, seconds, trace, bins):
    run_dir = os.path.join(ROOT, ".bench_run", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run = Run(workload, seed, bins, run_dir, trace)

    def timed_setup(index):
        run.teardown()
        t0 = time.perf_counter()
        run.setup(index)
        return time.perf_counter() - t0

    try:
        setup_times = [timed_setup(i) for i in range(SETUP_BEFORE)]
        loop_seconds = seconds / 2 if trace else seconds
        if workload == "serve-pairs":
            wall = run.timed_serve(loop_seconds)
            run.teardown()
            run.compare_with_batch()
        else:
            wall = run.timed_cli(loop_seconds)
        e2e = run.end_to_end(wall)
        if not trace:
            setup_times += [timed_setup(SETUP_BEFORE + i) for i in range(SETUP_AFTER)]
            values = dict(e2e, setup_s=statistics.median(setup_times))
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            log(f"  setup_s median of {setup_times}")
        else:
            metrics = per_layer(run, e2e, seconds / 2)
    finally:
        run.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)
        remove_if_empty(os.path.dirname(run_dir))
    return run, metrics


def remove_if_empty(path):
    try:
        os.rmdir(path)
    except OSError:
        pass


def per_layer(run, e2e, seconds):
    out = traced_replay(run, seconds)
    m = out["metrics"]
    # A layer that is not on this workload's path reports 0.
    layer = {k: m.get(k, 0.0) for k in PER_LAYER}
    cli_p50 = e2e["latency_p50_ms"]
    if run.w == "serve-pairs":
        counters, spans = serve_counters(run.trace_path)
        jobs = counters["serve/net_responses"] or 1
        layer["serve.coalesced_share"] = counters["serve/coalesced_hit"] / jobs
        layer["store.hit_share"] = counters["serve/cache_hit"] / jobs
        layer["serve.validations_per_job"] = spans["validate/assertion"] / (ASSERTIONS * jobs)
        layer["listener.wire_ms"] = cli_p50 - m["serve.service_ms"]
    else:
        layer["verify_cli.overhead_ms"] = cli_p50 - m["inprocess.job_p50_ms"]
    run.rows, run.jobs_timed = out["rows"], out["jobs_timed"]
    for line in layer_table(run.rows, run.jobs_timed):
        log("  " + line)
    return {k: (v, unit_of(k)) for k, v in layer.items()}


def unit_of(metric):
    """The unit of a per-layer metric, from its name."""
    for suffix, unit in (("_ms", "ms"), ("_bytes", "bytes"), ("_share", "ratio"),
                         ("_payoff", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def layer_of(row):
    """The layer a traced row belongs to."""
    if row.startswith("store") or row == "fingerprint":
        return "store"
    return row.split(".")[0]


def layer_table(rows, jobs):
    """The traced per-job time table: one row per span name, ordered by
    time, then the time per layer and the dominant layer."""
    total = sum(rows.values())
    out = [f"traced replay, mean per job over {jobs} jobs: {total:.3f} ms",
           "| row | ms per job | share |", "|---|---:|---:|"]
    for name, v in sorted(rows.items(), key=lambda kv: -kv[1]):
        out.append(f"| {name} | {v:.3f} | {100 * v / total:.1f}% |")
    layers = defaultdict(float)
    for name, v in rows.items():
        layers[layer_of(name)] += v
    ranked = sorted(((v, k) for k, v in layers.items() if k != "unattributed"), reverse=True)
    out.append("layers: " + ", ".join(f"{k} {100 * v / total:.1f}%" for v, k in ranked)
               + f"; unattributed {100 * layers['unattributed'] / total:.1f}%; dominant: {ranked[0][1]}")
    return out


def baseline(bins, seconds):
    """Runs the traced replay of every workload and writes BASELINE.md."""
    parts = []
    for w in WORKLOADS:
        run, metrics = run_once(w, 1, seconds, True, bins)
        if run.failed:
            raise BenchError(f"{w}: {run.failed} of {run.attempted} jobs failed")
        parts.append(f"## {w}\n")
        parts.extend(layer_table(run.rows, run.jobs_timed))
        parts.append("\n| per-layer metric | value | unit |\n|---|---:|---|")
        parts.extend(f"| `{k}` | {v:.4g} | {u} |" for k, (v, u) in metrics.items())
        parts.append("")
    with open(os.path.join(BENCH, "BASELINE.md"), "w") as f:
        f.write("# Traced-run baseline\n\n"
                f"`python3 perfbench/run.py --baseline` (seed 1, {seconds:g} s per workload: "
                "half on the binaries, half on the in-process replay). "
                "Rows are mean self time per job; see README.md for what each row covers.\n\n")
        f.write("\n".join(parts))


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def pin(bins):
    """Re-pins expected.json from the in-process whole-run reference."""
    jobs = {}
    tmp = os.path.join(ROOT, ".bench_run", "pin")
    for w in WORKLOADS:
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        lines = None
        if w == "serve-pairs":
            helper(bins, "gen", w, "0", tmp)
            with open(os.path.join(tmp, "requests.jsonl")) as f:
                lines = [json.loads(l) for l in f]
        for raw in helper(bins, "pin", w, tmp).splitlines():
            r = json.loads(raw)
            if lines is not None:
                req = lines[r["line"]]
                key = pin_key(r["mode"], req["program"], req["seed"])
            else:
                with open(os.path.join(tmp, r["file"])) as f:
                    key = pin_key(r["mode"], f.read(), r["seed"])
            jobs[key] = f"{r['exit']}:{r['verdicts']}"
        log(f"pinned {w}")
    shutil.rmtree(tmp, ignore_errors=True)
    remove_if_empty(os.path.dirname(tmp))
    with open(os.path.join(BENCH, "expected.json"), "w") as f:
        json.dump({"about": "exit:verdicts per (mode, sha256 of program text, seed), "
                            "from the in-process whole-run reference",
                   "jobs": dict(sorted(jobs.items()))}, f, indent=0)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    try:
        bins = build()
        if args.pin:
            pin(bins)
            return 0
        if args.baseline:
            baseline(bins, args.seconds or 20)
            return 0
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        run, metrics = run_once(args.workload, args.seed, args.seconds, args.trace == 1, bins)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
