#!/usr/bin/env python3
"""nvmcache benchmark: builds the simulator from the checkout it runs in,
runs one named workload from a seed, checks every output, and prints the
metrics as the last line of standard output.

    python3 perfbench/run.py --workload core-scaling --seed 1 \
        --seconds 10 --trace 0

Run it from the root of a checkout. Workloads, metrics and how to read
a traced run are described in perfbench/README.md.
"""

import argparse
import ctypes
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
import time

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = ".bench_out"  # relative to ROOT: keeps Unix socket paths short
NVM_BUILD = os.path.join(BUILD, "nvmcache")
DRV_BUILD = os.path.join(BUILD, "driver")
CLI = os.path.join(NVM_BUILD, "tools", "nvmcache")
DRIVER = os.path.join(DRV_BUILD, "perfbench_driver")
BUILD_TYPE = "Release"

NPROC = os.cpu_count() or 1
JOBS = min(4, NPROC)            # engine threads of the study workloads
STUDY_SETUPS = 21               # launch-to-ready samples per study run
SERVICE_SETUPS = 5              # daemon start-to-healthy samples per run
# Memo-served repeats after a cold study, per --seconds: 8-13 s of
# repeats at 20 s (a core-sweep repeat costs about 8.5 ms, a reliability
# one 2-2.8 ms). The driver makes them one at a time at one engine
# thread, each on the next CPU in turn.
STUDY_WARM_PER_S = {"core-scaling": 75, "reliability-writes": 180}
TAIL_BEYOND = 10                # samples required beyond a tail percentile
# Short requests are summarized per block of BLOCK consecutive requests.
# On a shared host, outside load slows a millisecond request by up to 2x
# for seconds at a time, so a tail over a whole run of study repeats, or
# the median of all daemon hits, measured mostly how much of the run was
# disturbed. The study workloads' req_tail_ms is the 10th percentile of
# the block tails (p90 of 100), and service-mix's req_hit_p50_ms the 10th
# percentile of the block medians: the latency of the run's steadier
# stretches. See perfbench/README.md, "Why blocks".
BLOCK = 100

# service-mix shape: one client process with two persistent connections
# (cold and warm blocks in turn, see the driver's client mode); two workers
# with two execution threads of one engine thread each. With as many
# front execution threads as connections, a request never queues at the
# front behind the other connection's simulation.
SVC_CONNECTIONS = 2
SVC_WORKERS = 2
SVC_EXEC_THREADS = 2
SVC_SCALE = "0.5"
SECONDS_PER_ROUND = 20   # explorer rounds over the workloads per --seconds
SWEEP_EVERY = 2          # compares between two sharded core-sweeps
WARM_PER_S = 200         # warm repeats per connection per --seconds
# Table V workloads whose cold compare at SVC_SCALE costs about what the
# reduced sweep costs, so the misses form one population; exchange2
# costs several times more and is left out.
TABLE_V = ["GemsFDTD", "bzip2", "cg", "deepsjeng", "ep", "ft", "gamess",
           "gobmk", "is", "leela", "lu", "mg", "milc", "perlbench", "sp",
           "tonto", "ua", "vips", "x264"]
MODELS = ["Oh", "Chen", "Kang", "Close", "Chung", "Jan", "Umeki", "Xue",
          "Hayakawa", "Zhang", "SRAM"]

END_TO_END = {
    "setup_s": "s", "study_s": "s", "sim_mips": "Minstr/s",
    "peak_rss_mb": "MB", "req_per_s": "1/s", "req_hit_p50_ms": "ms",
    "req_miss_p50_ms": "ms", "req_tail_ms": "ms",
}
PER_LAYER = {
    "workload.record.s": "s", "workload.record.count": "count",
    "workload.record.builds_per_key": "ratio",
    "workload.record.maccess_per_s": "Maccess/s", "workload.trace_mb": "MB",
    "sim.private.s": "s", "sim.private.count": "count",
    "sim.private.maccess_per_s": "Maccess/s", "sim.private_mb": "MB",
    "sim.replay1.s": "s", "sim.replay1.runs": "count",
    "sim.replay1.maccess_per_s": "Maccess/s",
    "sim.replayN.s": "s", "sim.replayN.runs": "count",
    "sim.replayN.maccess_per_s": "Maccess/s",
    "core.fanout.efficiency": "ratio", "core.memo.hit_ratio": "ratio",
    "core.assemble.s": "s",
    "store.put.s": "s", "store.put.count": "count",
    "store.load.s": "s", "store.load.count": "count",
    "store.hit_ratio": "ratio", "store.mb": "MB",
    "service.queue_ms": "ms", "service.run_ms": "ms",
    "service.overhead_ms": "ms", "service.coalesced": "count",
    "service.rejected": "count",
    "trace.overhead_s": "s", "trace.unattributed_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself cannot run (no sources, build failed)."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def child_env():
    # The program's own knobs must not leak in from the caller.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("NVMCACHE_")}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """Highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(xs)
    if len(xs) <= TAIL_BEYOND:
        return (xs[-1] if xs else 0.0), 100.0, len(xs)
    idx = len(xs) - TAIL_BEYOND - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs)


def blocks(xs):
    """xs in consecutive blocks of BLOCK; a last partial block is folded
    into the one before it."""
    n = max(1, len(xs) // BLOCK)
    return [xs[k * BLOCK:(k + 1) * BLOCK if k + 1 < n else None]
            for k in range(n)]


def low_block(xs, stat):
    """10th percentile over the blocks of xs of stat(block)."""
    if not xs:
        return 0.0
    vals = sorted(stat(b) for b in blocks(xs))
    return vals[len(vals) // 10]


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# --- build ---------------------------------------------------------------

def run_logged(cmd, logf):
    with open(logf, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        r = subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT,
                           env=child_env())
    if r.returncode != 0:
        with open(logf) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        raise BenchError("command failed: " + " ".join(cmd))


def build():
    """Release build of the unchanged sources plus the driver."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no nvmcache sources in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(NVM_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", NVM_BUILD, *gen,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], logf)
    run_logged(["cmake", "--build", NVM_BUILD, "--target", "nvmcache_cli",
                "-j", str(NPROC)], logf)
    if not os.path.exists(os.path.join(DRV_BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(BENCH, "driver"),
                    "-B", DRV_BUILD, *gen, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                    "-DNVMCACHE_SOURCE_DIR=" + ROOT,
                    "-DNVMCACHE_BUILD_DIR=" + NVM_BUILD], logf)
    run_logged(["cmake", "--build", DRV_BUILD, "-j", str(NPROC)], logf)


def cmake_cache(key):
    with open(os.path.join(NVM_BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_id():
    """Git SHA when the checkout has one, else a hash of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for p in sorted(files):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()


def host_record(load_at_start):
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type != BUILD_TYPE:
        raise BenchError("build type is %r, not %s" % (build_type,
                                                       BUILD_TYPE))
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": NPROC, "build_type": build_type, "compiler": version,
            "load_avg_at_start": load_at_start, "sha": source_id()}


# --- seeded inputs -------------------------------------------------------

def study_request(workload, seed):
    if workload == "core-scaling":
        return {"study": "core-sweep",
                "params": {"workloads": "ft,cg,mg,sp,lu,tenants:seed=%d" % seed}}
    return {"study": "reliability",
            "params": {"workload": "kv:seed=%d,readRatio=0.5" % seed}}


def explorer_stream(seed, seconds):
    """Seeded requests of the service-mix explorer connection.

    Every request is new to the daemon: one compare per workload and
    round, dealt in a seeded order with a seeded model, and after every
    SWEEP_EVERY compares a sharded core-sweep over a new seeded tenants
    spec, so the worker fleet writes the store and the front reads it
    back. The sweep is reduced to one core count, which makes it cost
    about what a first compare costs, so the misses form one population.
    A warm block of memo-served repeats follows each sweep. The shape
    depends on --seconds only, so every seed asks for the same work.
    About half the requests are sent again at once by the other
    connection, which coalesces with the in-flight execution.
    """
    rng = random.Random(seed)
    specs = list(TABLE_V)
    specs += ["kv:seed=%d,readRatio=%s" % (rng.randrange(1, 1 << 30), rr)
              for rr in ("0.95", "0.5")]
    specs += ["tenants:seed=%d" % rng.randrange(1, 1 << 30)]
    rounds = max(1, round(seconds / SECONDS_PER_ROUND))
    techs = {w: rng.sample(MODELS, rounds) for w in specs}

    items = []
    for r in range(rounds):
        for k, w in enumerate(rng.sample(specs, len(specs))):
            items.append(({"study": "compare",
                           "params": {"workload": w, "tech": techs[w][r],
                                      "scale": SVC_SCALE}}, False))
            if k % SWEEP_EVERY == SWEEP_EVERY - 1:
                items.append(({"study": "core-sweep",
                               "params": {"workloads": "tenants:seed=%d"
                                          % rng.randrange(1, 1 << 30),
                                          "techs": "Jan,SRAM",
                                          "cores": "1"}}, True))
    return [{"request": q, "warm": warm, "coalesce": rng.random() < 0.5}
            for q, warm in items]


def warm_repeats(explorer, seconds):
    """Repeats per connection in each warm block."""
    blocks = sum(1 for x in explorer if x["warm"])
    return max(1, int(WARM_PER_S * seconds / max(1, blocks)))


def canonical(req):
    return json.dumps(req, sort_keys=True)


# --- checks --------------------------------------------------------------

def close(a, b):
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def energy_breaks(result):
    """LLC energy identity on every stats block of a study result."""
    broken = 0
    stack = [result]
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            if "llcEnergy" in v and not close(
                    v["llcEnergy"], v["llcLeakageEnergy"]
                    + v["llcDynamicEnergy"]):
                broken += 1
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
    return broken


def pinned_digest(workload, seed):
    with open(os.path.join(BENCH, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


# --- study workloads -----------------------------------------------------

def run_driver(args, timeout=170):
    r = subprocess.run([DRIVER, *args], cwd=ROOT, capture_output=True,
                       text=True, timeout=timeout, env=child_env())
    if r.returncode != 0:
        log("driver %s failed: %s" % (args[0], r.stderr.strip()[-500:]))
    return r.returncode == 0


def setup_seconds(reqfile):
    """Launch-to-ready of a study process: registry, runner, models."""
    samples = []
    for _ in range(STUDY_SETUPS):
        t0 = time.perf_counter()
        p = subprocess.Popen([DRIVER, "setup", "--request", reqfile],
                             cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             env=child_env())
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.close()
        if p.wait() != 0 or not line.startswith("ready"):
            raise BenchError("driver setup failed")
        samples.append(t1 - t0)
    return median(samples)


def run_study(workload, seed, seconds, trace, rundir):
    reqfile = os.path.join(rundir, "request.json")
    with open(reqfile, "w") as f:
        json.dump(study_request(workload, seed), f)
    failures = []
    attempted = 0

    setup_s = setup_seconds(reqfile)
    out, rep = os.path.join(rundir, "untraced.json"), \
        os.path.join(rundir, "report.json")
    repeats = max(BLOCK, int(STUDY_WARM_PER_S[workload] * seconds))
    ok = run_driver(["study", "--request", reqfile, "--jobs", str(JOBS),
                     "--warm", str(repeats),
                     "--out", out, "--report", rep])
    if not ok:
        return None, ["untraced study failed"], 1
    with open(out) as f:
        u = json.load(f)
    digest = sha256_file(rep)
    with open(rep) as f:
        result = json.load(f)
    study_s, warm = u["studySeconds"], u["warmSeconds"]
    # requests, identity checks per run, pinned digest, energy identity
    attempted += 1 + len(warm) + int(u["runsChecked"]) + 2
    failures += u["failures"]
    if energy_breaks(result):
        failures.append("LLC energy identity broken in %d report blocks"
                        % energy_breaks(result))
    pin = pinned_digest(workload, seed)
    if pin and pin != digest:
        failures.append("report digest %s != pinned %s" % (digest, pin))
    log("%s seed %d report sha256 %s" % (workload, seed, digest))

    lat = [study_s] + warm
    log("req_tail_ms is p10 over %d blocks of %d requests of each block's "
        "p%.1f" % (len(blocks(lat)), BLOCK, tail(blocks(lat)[0])[1]))
    m = {
        "setup_s": setup_s,
        "study_s": study_s,
        "sim_mips": u["instructions"] / study_s / 1e6,
        "peak_rss_mb": u["peakRssMb"],
        "req_per_s": len(lat) / sum(lat),
        "req_hit_p50_ms": 1e3 * median(warm),
        "req_miss_p50_ms": 1e3 * study_s,
        "req_tail_ms": 1e3 * low_block(lat, lambda b: tail(b)[0]),
    }
    if not trace:
        return m, failures, attempted

    tout, trep = os.path.join(rundir, "traced.json"), \
        os.path.join(rundir, "traced_report.json")
    attempted += 1
    if not run_driver(["study", "--request", reqfile, "--jobs", str(JOBS),
                       "--traced", "1", "--out", tout, "--report", trep]):
        return None, failures + ["traced study failed"], attempted
    with open(tout) as f:
        t = json.load(f)
    failures += t["failures"]
    if sha256_file(trep) != digest:
        failures.append("traced report differs from the untraced one")
    return study_layers(t, u, study_s), failures, attempted


def span_stats(spans, layer):
    sel = [s for s in spans if s["layer"] == layer]
    busy = sum(s["t1"] - s["t0"] for s in sel)
    acc = sum(s["accesses"] for s in sel)
    return busy, len(sel), (acc / busy / 1e6 if busy > 0 else 0.0)


def study_layers(t, u, untraced_s):
    spans, phases = t["spans"], t["phases"]
    m = dict.fromkeys(PER_LAYER, 0.0)
    for layer, count in (("workload.record", "count"),
                         ("sim.private", "count"),
                         ("sim.replay1", "runs"), ("sim.replayN", "runs")):
        busy, n, rate = span_stats(spans, layer)
        m[layer + ".s"], m[layer + "." + count] = busy, n
        m[layer + ".maccess_per_s"] = rate
    m["workload.record.builds_per_key"] = \
        t["traceBuilds"] / t["distinctTraceKeys"]
    m["workload.trace_mb"] = t["traceBytes"] / 1e6
    m["sim.private_mb"] = t["privateBytes"] / 1e6
    fan_wall = sum(p["t1"] - p["t0"] for p in phases
                   if p["name"] != "core.assemble")
    busy = sum(s["t1"] - s["t0"] for s in spans)
    m["core.fanout.efficiency"] = busy / (fan_wall * t["jobs"])
    looked_up = u["memoHits"] + u["simulations"]
    m["core.memo.hit_ratio"] = u["memoHits"] / looked_up if looked_up else 0.0
    m["core.assemble.s"] = sum(p["t1"] - p["t0"] for p in phases
                               if p["name"] == "core.assemble")
    m["trace.overhead_s"] = t["wallSeconds"] - untraced_s
    attributed = sum(p["t1"] - p["t0"] for p in phases)
    m["trace.unattributed_frac"] = 1.0 - attributed / t["wallSeconds"]
    return m


# --- service-mix ---------------------------------------------------------

def become_subreaper():
    """Orphaned worker daemons get re-parented here, so we can reap them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def ask(sock_path, op, timeout=5.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall((json.dumps({"op": op}) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
    return json.loads(buf)


class Daemon:
    """One `nvmcache serve` front with its worker fleet, fresh store and
    socket; stop() reaps the front and every worker, also on failure."""

    def __init__(self, rundir):
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        self.sock = os.path.join(rundir, "s.sock")
        self.store = os.path.join(rundir, "store")
        self.logf = open(os.path.join(rundir, "daemon.log"), "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--socket", self.sock, "--store-dir", self.store,
             "--workers", str(SVC_WORKERS), "--exec-threads",
             str(SVC_EXEC_THREADS), "--jobs", "1"],
            cwd=ROOT, stdout=self.logf, stderr=subprocess.STDOUT,
            start_new_session=True, env=child_env())

    def wait_ready(self, timeout=30.0):
        """Seconds from launch until health is ok with every worker up."""
        while time.perf_counter() - self.t0 < timeout:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited during start-up")
            try:
                h = ask(self.sock, "health")["health"]
                if h["state"] == "ok" and h.get("workersAlive") == \
                        SVC_WORKERS:
                    return time.perf_counter() - self.t0
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.005)
        raise BenchError("daemon not healthy after %.0f s" % timeout)

    def pids(self):
        pids, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            try:
                for tid in os.listdir("/proc/%d/task" % pid):
                    with open("/proc/%d/task/%s/children" % (pid, tid)) as f:
                        todo += [int(c) for c in f.read().split()]
            except OSError:
                pass
        return pids

    def peak_rss_mb(self):
        total = 0.0
        for pid in self.pids():
            try:
                with open("/proc/%d/status" % pid) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def stop(self):
        pids = self.pids()
        try:
            if self.proc.poll() is None:
                ask(self.sock, "shutdown")
                self.proc.wait(timeout=20)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        for pid in pids:  # whatever the drain left behind
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()
        while True:  # workers re-parented to us by the subreaper flag
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                time.sleep(0.01)
        self.logf.close()


def run_service(seed, seconds, trace, rundir):
    become_subreaper()
    explorer = explorer_stream(seed, seconds)
    stream = [x["request"] for x in explorer]
    qfile = os.path.join(rundir, "explorer.jsonl")
    with open(qfile, "w") as f:
        for x in explorer:
            f.write(json.dumps(x) + "\n")

    setups, daemon = [], None
    try:
        for k in range(SERVICE_SETUPS):
            daemon = Daemon(os.path.join(OUT, "d%d" % k))
            setups.append(daemon.wait_ready())
            if k + 1 < SERVICE_SETUPS:
                daemon.stop()
        out = os.path.join(rundir, "client.jsonl")
        if not run_driver(["client", "--socket", daemon.sock, "--explorer",
                           qfile, "--seed", str(seed), "--repeats",
                           str(warm_repeats(explorer, seconds)),
                           "--max-seconds",
                           # one round of the explorer takes about 30 s
                           str(max(3 * seconds, 90)), "--out", out]):
            return None, ["service client failed"], 1
        rss = daemon.peak_rss_mb()
        t_probe = time.perf_counter()
        counters = []
        if trace:
            for i in range(-1, SVC_WORKERS):
                sock = daemon.sock + ("" if i < 0 else ".w%d" % i)
                counters.append(ask(sock, "metrics")["metrics"])
    finally:
        if daemon:
            daemon.stop()
    with open(out) as f:
        recs = [json.loads(line) for line in f]
    elapsed = max(r["t0"] + r["rt"] for r in recs)
    m, failures = service_metrics(stream, recs, elapsed)
    sent = sum(1 for r in recs if r["role"] == "explorer")
    if sent < len(stream):
        failures.append("explorer cut at %d of %d requests by the time cap"
                        % (sent, len(stream)))
    m["setup_s"] = median(setups)
    m["peak_rss_mb"] = rss
    if not trace:
        shutil.rmtree(os.path.dirname(daemon.store))
        return m, failures, len(recs)

    probe = os.path.join(rundir, "store_probe.json")
    scratch = os.path.join(rundir, "probe_store")
    shutil.rmtree(scratch, ignore_errors=True)
    probed = run_driver(["store-probe", "--store", daemon.store, "--scratch",
                         scratch, "--out", probe])
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.rmtree(os.path.dirname(daemon.store))
    if not probed:
        return None, failures + ["store probe failed"], len(recs) + 1
    with open(probe) as f:
        p = json.load(f)
    if p["loadedIntact"] != p["records"]:
        failures.append("store probe: %d of %d records did not round-trip"
                        % (p["records"] - p["loadedIntact"], p["records"]))
    layers = service_layers(stream, recs, counters, p, elapsed)
    layers["trace.overhead_s"] = time.perf_counter() - t_probe
    return layers, failures, len(recs) + 1


def classify(rec, repeat):
    """'fail', 'hit' (memo, store or coalesced) or 'miss' (simulated).

    The daemon's per-response metrics are deltas of process-wide
    counters, so they also count executions running at the same time;
    they only decide requests sent before any identical request was
    answered, where a zero delta proves the answer came without
    simulating. Repeats of answered requests and coalesced waiters are
    hits by construction.
    """
    resp = rec.get("response")
    if not resp or not resp.get("ok"):
        return "fail"
    if repeat or resp.get("coalesced"):
        return "hit"
    mt = resp.get("metrics", {})
    # The front reads worker-simulated runs back from the store, so a
    # store hit on a fresh store means this request was simulated.
    sims = mt.get("runner.memo.simulations", 0) + mt.get("runner.store.hits",
                                                         0)
    return "miss" if sims > 0 else "hit"


def classified(stream, recs):
    """(record, class) in send order."""
    answered, out = {}, []
    for rec in sorted(recs, key=lambda r: r["t0"]):
        key = canonical(stream[rec["i"]])
        repeat = answered.get(key, float("inf")) <= rec["t0"]
        out.append((rec, classify(rec, repeat)))
        answered[key] = min(answered.get(key, float("inf")),
                            rec["t0"] + rec["rt"])
    return out


def service_metrics(stream, recs, elapsed):
    failures, first = [], {}
    hits, misses, lat, cold_sweeps = [], [], [], []
    for rec, cls in classified(stream, recs):
        lat.append(rec["rt"])
        if cls == "fail":
            failures.append("request %d failed: %s" % (
                rec["i"], rec.get("error") or rec["response"].get("error")))
            continue
        (hits if cls == "hit" else misses).append(rec["rt"])
        req = stream[rec["i"]]
        key = canonical(req)
        result = rec["result"]
        if key in first and first[key] != result:
            failures.append("request %d: answer differs from the first "
                            "answer to the same request" % rec["i"])
        first.setdefault(key, result)
        if energy_breaks(json.loads(result)):
            failures.append("request %d: LLC energy identity broken"
                            % rec["i"])
        if req["study"] == "core-sweep" and cls == "miss":
            instr = sum(p["stats"]["instructions"]
                        for p in json.loads(result)["points"])
            cold_sweeps.append((rec["rt"], instr))
    ok = len(hits) + len(misses)
    tail_v, tail_p, tail_n = tail(lat)
    log("req_tail_ms is p%.1f of %d requests; %d hits, %d misses, "
        "%d cold sweeps; req_hit_p50_ms is p10 of the medians of %d blocks"
        % (tail_p, tail_n, len(hits), len(misses), len(cold_sweeps),
           len(blocks(hits))))
    if not cold_sweeps:
        failures.append("no cold sharded study completed")
        cold_sweeps = [(1.0, 0)]
    m = {
        "study_s": median([s for s, _ in cold_sweeps]),
        "sim_mips": median([i / s / 1e6 for s, i in cold_sweeps]),
        "req_per_s": ok / elapsed,
        "req_hit_p50_ms": 1e3 * low_block(hits, median),
        "req_miss_p50_ms": 1e3 * median(misses),
        "req_tail_ms": 1e3 * tail_v,
    }
    return m, failures


def service_layers(stream, recs, counters, probe, elapsed):
    m = dict.fromkeys(PER_LAYER, 0.0)

    # Simulation layers run inside the daemon processes; their own
    # counters (front + workers) give the recording time and volume.
    def total(path, field=None):
        vals = [c.get(path, 0) for c in counters]
        return sum(v.get(field, 0) if isinstance(v, dict) else v
                   for v in vals)

    m["workload.record.s"] = total("runner.recordSeconds", "sum")
    m["workload.record.count"] = total("runner.traceStore.builds")
    m["sim.private.s"] = total("runner.recordPrivateSeconds", "sum")
    m["sim.private.count"] = total("runner.privateStore.builds")
    m["workload.trace_mb"] = total("runner.traceStore.bytes") / 1e6
    m["sim.private_mb"] = total("runner.privateStore.bytes") / 1e6
    # One trace key per (workload, threads) the explorer asked for.
    keys = set()
    for rec in recs:
        if rec["role"] == "explorer":
            params = stream[rec["i"]]["params"]
            keys.add((params.get("workload") or params["workloads"],
                      params.get("cores")))
    if keys:
        m["workload.record.builds_per_key"] = \
            m["workload.record.count"] / len(keys)

    ok = [r for r, cls in classified(stream, recs) if cls != "fail"]
    own = [r["response"] for r in ok if not r["response"].get("coalesced")]
    mt = [r.get("metrics", {}) for r in own]
    memo = sum(x.get("runner.memo.hits", 0) for x in mt)
    sims = sum(x.get("runner.memo.simulations", 0) for x in mt)
    store_hits = sum(x.get("runner.store.hits", 0) for x in mt)
    if memo + sims + store_hits:
        m["core.memo.hit_ratio"] = memo / (memo + sims + store_hits)
    if sims + store_hits:
        m["store.hit_ratio"] = store_hits / (sims + store_hits)
    m["store.put.s"], m["store.load.s"] = probe["putSeconds"], \
        probe["loadSeconds"]
    m["store.put.count"] = m["store.load.count"] = probe["records"]
    m["store.mb"] = probe["bytes"] / 1e6
    # queueSeconds runs from enqueue to response, so it includes the run.
    m["service.queue_ms"] = 1e3 * median(
        [r["queueSeconds"] - r["runSeconds"] for r in own])
    m["service.run_ms"] = 1e3 * median([r["runSeconds"] for r in own])
    m["service.overhead_ms"] = 1e3 * median(
        [r["rt"] - r["response"]["queueSeconds"] for r in ok])
    m["service.coalesced"] = sum(1 for r in ok
                                 if r["response"].get("coalesced"))
    m["service.rejected"] = sum(1 for r in recs if r.get("response", {})
                                .get("rejected"))
    busy = sum(r["rt"] for r in recs)
    m["trace.unattributed_frac"] = 1.0 - busy / (elapsed * SVC_CONNECTIONS)
    return m


# --- main ----------------------------------------------------------------

WORKLOADS = ("core-scaling", "reliability-writes", "service-mix")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    load = os.getloadavg()[0]

    try:
        build()
        host = host_record(load)
        rundir = os.path.join(OUT, "%s-%d-%d" % (a.workload, a.seed,
                                                 a.trace))
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        if a.workload == "service-mix":
            m, failures, attempted = run_service(a.seed, a.seconds, a.trace,
                                                 rundir)
        else:
            m, failures, attempted = run_study(a.workload, a.seed,
                                               a.seconds, a.trace, rundir)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    if m is None:  # a run crashed: every metric is missing
        m = {}
    for f in failures:
        log("FAILED: " + f)
    units = PER_LAYER if a.trace else END_TO_END
    metrics = {k: {"value": m.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    print(json.dumps({"host": host, "workload": a.workload,
                      "seed": a.seed}))
    print(json.dumps({"correct": not failures and len(m) > 0,
                      "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
