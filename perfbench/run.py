#!/usr/bin/env python3
"""Benchmark of the SkelCL reproduction: end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload osem|skeletons|cluster \
        --seed N --seconds S --trace 0|1 [--threads T]

(--workload all runs every workload with --trace 0 and then 1.)

It builds perfbench/ (and the library sources it links) into
.bench_build/perfbench as an optimized build, then runs the workload program
(perfbench/workload.cpp) as a child process under a wall-clock limit.  The
child sets the workload up several times and runs a timed window; with
--trace 1 it runs an untraced and a traced window of half the length each
(skeletons: 40% each, and 20% for the traced multi-tenant service phase).

Output: one line per metric ("name value unit"), an "env" line, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see BENCHMARK.json and perfbench/README.md).

A child that crashes, or prints nothing for HANG_SECONDS, is killed: its
in-flight operations count as failed, its stderr tail is printed, and a
new child measures what is left of the window.  The child runs with every
SKELCL_* variable of the caller removed from its environment and with
SKELCL_THREADS=T (default 1: the library's documented deterministic mode;
--threads 0 leaves the pool at its hardware-sized default, whose
parallelFor defects crash, hang or miscount runs, see README.md).
"""

import argparse
import hashlib
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_workload"
REPORT = BUILD_DIR / "last_run.json"

WORKLOADS = ("osem", "skeletons", "cluster")
SETUPS = 5                  # set-ups per child at least ...
SETUP_SECONDS = 2.0         # ... and more while they took less than this
HANG_SECONDS = 8.0          # no output for this long: the child hangs
EXIT_GRACE_SECONDS = 5.0    # after "done", the child must exit within this
RUN_BUDGET_SECONDS = 165.0  # after the build; a run must end within 180 s
MIN_WINDOW_SECONDS = 1.0    # do not start a replacement child for less
MAX_CHILDREN = 25
STDERR_TAIL_BYTES = 2000
# Operations a lost child may have had in flight: a whole OSEM pass (its
# image is checked once per pass), or every outstanding service job.
IN_FLIGHT = {"osem": 3, "skeletons": 1, "cluster": 1}
SERVICE_IN_FLIGHT = 2 * 8
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# CPU times are reported at a fixed host speed: the workload program runs
# slices of a fixed reference computation between its set-ups and between
# its iterations, and a CPU time is divided by the CPU time of one slice,
# measured in the same process over the same stretch, and multiplied by
# REFERENCE_SLICE_MS (a slice took about this long on the 4-vCPU machine
# the benchmark was written on).  See README.md.
REFERENCE_SLICE_MS = 1.0
# Kernel work-items run on one thread by default: on the default pool,
# ThreadPool::parallelFor loses counts and crashes at random, and float
# atomics round in thread order, so no two runs would fail alike.
POOL_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "iter_cpu_ms": "ms",
    "iter_sim_ms": "ms",
    "peak_rss_mb": "MiB",
}

CALLS = ("map", "zip", "reduce", "scan", "pipeline", "mapoverlap")
OCL_KINDS = ("write", "read", "copy", "fill", "kernel")
PER_LAYER = dict(
    [
        ("iter_wall_ms_p50", "ms"),
        ("iter_wall_ms_p90", "ms"),
        ("items_per_s", "1/s"),
        ("setup_wall_s", "s"),
        ("host.ref_slice_ms", "ms"),
    ]
    + [("core.%s.call_wall_us_p50" % c, "us") for c in CALLS]
    + [
        ("core.host_access_wall_us_p50", "us"),
        ("core.cold_call_ms", "ms"),
        ("core.sim_overhead_vs_opencl", "ratio"),
        ("kernelc.retired_insns_per_iter", "count"),
        ("kernelc.vm_minsn_per_s", "Minsn/s"),
    ]
    + [("ocl.%s.commands_per_iter" % k, "count") for k in OCL_KINDS]
    + [("ocl.%s.bytes_per_iter" % k, "B") for k in OCL_KINDS if k != "kernel"]
    + [
        ("sim.device_busy_ms", "ms"),
        ("sim.pcie_busy_ms", "ms"),
        ("sim.host_busy_ms", "ms"),
        ("sim.host_share", "ratio"),
        ("docl.nic_bytes_per_iter", "B"),
        ("docl.nic_busy_ms", "ms"),
        ("service.job_sim_ms_p50", "ms"),
        ("service.job_sim_ms_p99", "ms"),
        ("service.jobs_per_batch", "ratio"),
        ("service.submit_wall_us_p50", "us"),
        ("trace.overhead_pct", "%"),
        ("fail_ratio", "ratio"),
    ]
)


class BenchError(Exception):
    """The benchmark cannot produce a result (no sources, build failed, ...)."""


# --- statistics ---------------------------------------------------------------


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 1]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no values")
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def samples_beyond(values, q):
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for x in values if x > cut)


def median(values):
    return statistics.median(values) if values else 0.0


# --- child process ------------------------------------------------------------


def parse_line(line):
    """One child output line as a dict, or None for anything else."""
    line = line.strip()
    if not line.startswith("{"):
        return None
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) and "ev" in obj else None


class ChildRun:
    """Outcome of one child process."""

    def __init__(self):
        self.events = []
        self.returncode = None
        self.lost = None  # None, "crash", "hang" or "error" (reported, then exited)
        self.stderr_tail = ""
        self.max_rss_kib = 0
        self.last_phase = None
        self.done = False  # printed its last line; a loss after it is at exit


def _pump(stream, sink):
    for raw in iter(stream.readline, b""):
        sink.put(raw)
    sink.put(None)


def run_child(cmd, env, wall_limit, hang_seconds):
    """Run cmd, collecting its JSON lines; kill it on a hang or the limit."""
    result = ChildRun()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=str(ROOT))
    lines = queue.Queue()
    tail = bytearray()
    tail_lock = threading.Lock()

    def pump_stderr():
        for chunk in iter(lambda: proc.stderr.read1(4096), b""):
            with tail_lock:
                tail.extend(chunk)
                del tail[:-STDERR_TAIL_BYTES]

    readers = [threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True),
               threading.Thread(target=pump_stderr, daemon=True)]
    for t in readers:
        t.start()
    start = time.monotonic()
    last_progress = start
    killed = None
    while True:
        now = time.monotonic()
        quiet = EXIT_GRACE_SECONDS if result.done else hang_seconds
        if now - last_progress > quiet or now - start > wall_limit:
            killed = "hang"
            proc.kill()
            break
        try:
            raw = lines.get(timeout=0.2)
        except queue.Empty:
            continue
        if raw is None:
            break
        last_progress = time.monotonic()
        event = parse_line(raw.decode("utf-8", "replace"))
        if event is not None:
            result.events.append(event)
            if event["ev"] == "phase":
                result.last_phase = event["phase"]
            elif event["ev"] == "done":
                result.done = True
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join(timeout=5)
    proc.stdout.close()
    proc.stderr.close()
    result.returncode = proc.returncode
    result.max_rss_kib = usage.ru_maxrss
    with tail_lock:
        result.stderr_tail = tail.decode("utf-8", "replace")
    if killed:
        result.lost = killed
    elif result.returncode != 0 and any(e["ev"] == "error" for e in result.events):
        result.lost = "error"
    elif result.returncode != 0 or not result.done:
        result.lost = "crash"
    return result


# --- failure accounting -------------------------------------------------------


def account(children, in_flight, unrun_ops):
    """(attempted, failed, reasons) over all children of one run.

    Every iteration a child reported is attempted; it failed when an
    exception, an output, a retired count or bitwise reproducibility check
    failed.  A child lost while working adds `in_flight` failed operations;
    one lost after its last line (hung or crashed at exit) adds one, its
    teardown.  `unrun_ops` are operations of the window no child got to run
    (the run's time was up)."""
    attempted = failed = 0
    reasons = []
    kinds = {}
    for child in children:
        for e in child.events:
            if e["ev"] == "iter":
                attempted += 1
                if not e.get("ok"):
                    failed += 1
                    kind = e.get("fail", "exception")
                    kinds[kind] = kinds.get(kind, 0) + 1
                    if kinds[kind] <= 3:
                        reasons.append("%s: %s" % (kind, e.get("err", "")))
            elif e["ev"] == "error":
                attempted += 1
                failed += 1
                reasons.append("set-up failed: %s" % e.get("err", ""))
            elif e["ev"] == "service" and e.get("count_failures"):
                failed += e["count_failures"]
                reasons.append("service window retired %d instructions, reference %d"
                               % (e["insns"], e["ref_insns"]))
        if child.lost and child.lost != "error":
            if child.done:
                lost = 1
            elif child.last_phase == "service":
                lost = SERVICE_IN_FLIGHT
            else:
                lost = in_flight
            attempted += lost
            failed += lost
            reasons.append("child %s%s (exit %s): %d operations failed"
                           % (child.lost, " at exit" if child.done else "",
                              child.returncode, lost))
    for kind, count in sorted(kinds.items()):
        reasons.append("%d iterations failed the %s check" % (count, kind))
    attempted += unrun_ops
    failed += unrun_ops
    failed = min(failed, attempted)
    return attempted, failed, reasons


# --- build and environment ----------------------------------------------------


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    tmp = BUILD_DIR / "tmp"  # keep the compiler's temporary files in the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    steps = [configure, ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                         "--target", "perfbench_workload"]]
    for step in steps:
        proc = subprocess.run(step, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode("utf-8", "replace")[-4000:])
            raise BenchError("build step failed: " + " ".join(step[:3]))
    return BINARY


def source_fingerprint():
    """sha256 over src/ and perfbench/ (the checkout need not be a git repo)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def capture_env():
    commit = "unknown"  # a plain source checkout: source_sha256 identifies it
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.decode().strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cache = BUILD_DIR / "CMakeCache.txt"
    build_type = ""
    if cache.is_file():
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    return {
        "commit": commit,
        "source_sha256": source_fingerprint(),
        "nproc": os.cpu_count(),
        "cmake_build_type": build_type,
        "skelcl_env_removed": {k: v for k, v in os.environ.items() if k.startswith("SKELCL_")},
    }


def child_env(threads=POOL_THREADS):
    """The caller's environment without its SKELCL_* variables, and with
    SKELCL_THREADS=threads unless threads is 0 (the pool's default size)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SKELCL_")}
    if threads:
        env["SKELCL_THREADS"] = str(threads)
    return env


# --- metrics ------------------------------------------------------------------


def phase_iters(children, phase):
    return [e for c in children for e in c.events
            if e["ev"] == "iter" and e.get("phase") == phase]


def phase_events(children, kind, phase=None):
    return [e for c in children for e in c.events
            if e["ev"] == kind and (phase is None or e.get("phase") == phase)]


def window_seconds(child, phase):
    """Wall seconds `child` spent in `phase`: to its phase end, or for a lost
    child to the end of its last reported iteration."""
    for e in child.events:
        if e["ev"] == "phase_end" and e["phase"] == phase:
            return e["wall_s"]
    ends = [e["t_ms"] for e in phase_iters([child], phase)]
    return max(ends) / 1e3 if ends else 0.0


def completed(iters):
    """Iterations that ran to the end: timings count even when a check of
    their outputs failed (the failure shows in attempted/failed)."""
    return [e for e in iters if e.get("fail") != "exception"]


def slice_ms(events):
    """CPU ms of one reference slice, from the event (setup or iteration
    line) that had counted the most slices; None before the first slice."""
    last = max(events, key=lambda e: e.get("ref_slices", 0), default=None)
    if last is None or not last.get("ref_slices"):
        return None
    return last["ref_cpu_ms"] / last["ref_slices"]


def cpu_per_iter(children, phase):
    """Process CPU ms per iteration of `phase` over every child, each child's
    CPU time at the reference host speed."""
    cpu = iters = 0
    for c in children:
        mine = phase_iters([c], phase)
        ref = slice_ms(mine)
        if ref:
            cpu += max(e["cpu_ms"] for e in mine) * REFERENCE_SLICE_MS / ref
            iters += len(mine)
    if not iters:
        raise BenchError("no reference slice was measured in the %s window" % phase)
    return cpu / iters


def setup_seconds(children):
    """Median process CPU seconds of one set-up, at the reference host speed."""
    values = []
    for c in children:
        setups = phase_events([c], "setup")
        ref = slice_ms(setups)
        if ref:
            values += [e["cpu_s"] * REFERENCE_SLICE_MS / ref for e in setups]
    if not values:
        raise BenchError("no reference slice was measured during the set-ups")
    return median(values)


def end_to_end(children, phase):
    """The gated metrics.  Host cost is CPU time at the reference host speed,
    not wall time: on a shared host the wall and the CPU time of the same
    work vary by tens of percent with the load of other tenants, while its
    cost in reference slices stays put (see README.md)."""
    iters = completed(phase_iters(children, phase))
    if not iters:
        raise BenchError("no iteration completed")
    sims = [e["sim_ms"] for e in iters if e.get("sim_counted")]
    return {
        "setup_s": setup_seconds(children),
        "iter_cpu_ms": cpu_per_iter(children, phase),
        "iter_sim_ms": statistics.fmean(sims) if sims else 0.0,
        "peak_rss_mb": max(c.max_rss_kib for c in children) / 1024.0,
    }


def host_slice_ms(children, phase):
    """Median over children of the CPU ms of one reference slice in `phase`."""
    return median([x for x in (slice_ms(phase_iters([c], phase)) for c in children) if x])


def wall_metrics(children, phase):
    """Wall-clock figures of `phase`: reported, not gated."""
    iters = completed(phase_iters(children, phase))
    walls = [e["wall_ms"] for e in iters]
    window_s = sum(window_seconds(c, phase) for c in children)
    return {
        "iter_wall_ms_p50": median(walls),
        "iter_wall_ms_p90": percentile(walls, 0.9) if walls else 0.0,
        "items_per_s": sum(e["items"] for e in iters) / window_s if window_s else 0.0,
        "setup_wall_s": median([e["wall_s"] for e in phase_events(children, "setup")]),
        "samples": len(walls),
        "beyond_p90": samples_beyond(walls, 0.9) if walls else 0,
    }


def span_durations(children, phase):
    """{name: [duration_us, ...]} and {name: total retired insns}."""
    durations, insns = {}, {}
    for e in phase_events(children, "spans", phase):
        names = e["names"]
        for name_idx, _iter, start, end, n in e["rows"]:
            name = names[name_idx]
            durations.setdefault(name, []).append(end - start)
            insns[name] = insns.get(name, 0) + n
    return durations, insns


def per_layer(children, attempted, failed):
    iters = completed(phase_iters(children, "traced"))
    untraced = [e["wall_ms"] for e in completed(phase_iters(children, "untraced"))]
    if not iters or not untraced:
        raise BenchError("no iteration completed in one of the windows")
    n = len(iters)
    durations, span_insns = span_durations(children, "traced")
    m = wall_metrics(children, "untraced")
    m["host.ref_slice_ms"] = host_slice_ms(children, "untraced")
    for c in CALLS:
        m["core.%s.call_wall_us_p50" % c] = median(durations.get(c, []))
    m["core.host_access_wall_us_p50"] = median(durations.get("host_access", []))
    m["core.cold_call_ms"] = median([e["cold_ms"] for e in phase_events(children, "setup")])
    paper = phase_events(children, "paper")
    m["core.sim_overhead_vs_opencl"] = (
        paper[-1]["skelcl_ms"] / paper[-1]["opencl_ms"] if paper else 0.0)

    m["kernelc.retired_insns_per_iter"] = sum(e["insns"] for e in iters) / n
    map_us = sum(durations.get("map", []))
    m["kernelc.vm_minsn_per_s"] = span_insns.get("map", 0) / map_us if map_us else 0.0

    traces = phase_events(children, "trace", "traced")
    for k in OCL_KINDS:
        m["ocl.%s.commands_per_iter" % k] = sum(t["commands"][k][0] for t in traces) / n
        if k != "kernel":
            m["ocl.%s.bytes_per_iter" % k] = sum(t["commands"][k][1] for t in traces) / n
    busy = {r: sum(t["busy_ms"][r] for t in traces) / n
            for r in ("device", "pcie", "host", "nic")}
    m["sim.device_busy_ms"] = busy["device"]
    m["sim.pcie_busy_ms"] = busy["pcie"]
    m["sim.host_busy_ms"] = busy["host"]
    mean_sim = statistics.fmean(e["sim_ms"] for e in iters)
    m["sim.host_share"] = busy["host"] / mean_sim if mean_sim else 0.0
    m["docl.nic_bytes_per_iter"] = sum(t["nic_bytes"] for t in traces) / n
    m["docl.nic_busy_ms"] = busy["nic"]

    # The service layer, from the service phase (skeletons runs only).
    service = phase_events(children, "service", "service")
    lat = [x for e in service for t in e["tenants"] for x in t["latency_sim_ms"]]
    batches = sum(t["batches"] for e in service for t in e["tenants"])
    tenant_jobs = sum(t["jobs"] for e in service for t in e["tenants"])
    m["service.job_sim_ms_p50"] = median(lat)
    m["service.job_sim_ms_p99"] = percentile(lat, 0.99) if lat else 0.0
    m["service.jobs_per_batch"] = tenant_jobs / batches if batches else 0.0
    m["service.submit_wall_us_p50"] = median(span_durations(children, "service")[0].get(
        "submit", []))

    m["trace.overhead_pct"] = (median([e["wall_ms"] for e in iters]) / median(untraced)
                               - 1.0) * 100.0
    m["fail_ratio"] = failed / attempted if attempted else 0.0
    return m


# --- the run ------------------------------------------------------------------


def measure(workload, seed, seconds, traced, threads, binary, deadline):
    """Run children until the window is measured; returns (children, unrun)."""
    if traced and workload == "skeletons":
        # The service scenario shares the skeletons' map path; its traced
        # phase measures the service layer.
        plan = [["untraced", seconds * 0.4], ["traced", seconds * 0.4],
                ["service", seconds * 0.2]]
    elif traced:
        plan = [["untraced", seconds / 2.0], ["traced", seconds / 2.0]]
    else:
        plan = [["untraced", float(seconds)]]
    children = []
    unrun_seconds = 0.0
    while plan and len(children) < MAX_CHILDREN:
        left = deadline - time.monotonic()
        window = sum(s for _, s in plan)
        if left < window + 10.0 or (children and window < MIN_WINDOW_SECONDS):
            unrun_seconds = window
            break
        # A replacement child sets up once: its window is what matters.
        setups = ["1", "0"] if children else [str(SETUPS), str(SETUP_SECONDS)]
        cmd = [str(binary), "--workload", workload, "--seed", str(seed),
               "--setups", setups[0], "--setup-seconds", setups[1],
               "--phases", ",".join("%s:%r" % (p, s) for p, s in plan)]
        child = run_child(cmd, child_env(threads), wall_limit=left - 2.0,
                          hang_seconds=HANG_SECONDS)
        children.append(child)
        if child.lost in (None, "error"):  # an error would repeat
            break
        sys.stderr.write("perfbench: child %s (exit %s); stderr tail:\n%s\n"
                         % (child.lost, child.returncode, child.stderr_tail))
        # Re-measure only what the lost child did not finish.
        finished = {e["phase"]: e["wall_s"] for e in child.events if e["ev"] == "phase_end"}
        spent = window_seconds(child, child.last_phase)
        new_plan = []
        for name, secs in plan:
            if name in finished:
                continue
            if name == child.last_phase:
                secs = max(0.0, secs - spent)
            new_plan.append([name, secs])
        plan = [p for p in new_plan if p[1] >= MIN_WINDOW_SECONDS]
    unrun = 0
    if unrun_seconds > 0:
        walls = [e["wall_ms"] for e in phase_iters(children, "untraced")]
        rate = len(walls) / (sum(walls) / 1e3) if walls and sum(walls) > 0 else 1.0
        unrun = max(1, int(math.ceil(rate * unrun_seconds)))
    return children, unrun


def check_build(children):
    envs = phase_events(children, "env")
    if not envs:
        return
    env = envs[0]
    if (env["build_type"] not in OPTIMIZED_BUILD_TYPES or not env["optimized"]
            or env["sanitized"]):
        raise BenchError("refusing to report metrics from a %s%s build"
                         % (env["build_type"], " sanitizer" if env["sanitized"] else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=POOL_THREADS,
                    help="SKELCL_THREADS of the workload (0: the pool's default size)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.threads < 0:
        ap.error("--seed and --threads must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        # Every workload, untraced (end-to-end) and traced (per-layer).
        codes = [main(["--workload", w, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(t), "--threads", str(args.threads)])
                 for w in WORKLOADS for t in (0, 1)]
        return max(codes)

    try:
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_SECONDS
        env = capture_env()
        env["pool_threads"] = args.threads
        children, unrun = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.threads, binary, deadline)
        check_build(children)
        envs = phase_events(children, "env")
        if envs:
            env.update({k: v for k, v in envs[0].items() if k != "ev"})
        attempted, failed, reasons = account(children, IN_FLIGHT[args.workload], unrun)
        # Correct: no output differed from its reference and no call threw.
        # Count, reproducibility and crash/hang failures show in `failed`.
        correct = not any(e["ev"] == "error" or (e["ev"] == "iter" and e.get("fail") in
                                                  ("output", "exception"))
                          for c in children for e in c.events)
        paper = phase_events(children, "paper")
        if paper and abs(paper[-1]["bench_ms"] - paper[-1]["skelcl_ms"]) > 1e-9:
            correct = False
            reasons.append("osem loop %.7f ms != runOsemSkelCL cell %.7f ms"
                           % (paper[-1]["bench_ms"], paper[-1]["skelcl_ms"]))
        if args.trace:
            values = per_layer(children, attempted, failed)
            units = PER_LAYER
            wall = values
        else:
            values = end_to_end(children, "untraced")
            units = END_TO_END
            wall = wall_metrics(children, "untraced")
            print("wall (not gated): p50 %.4f ms, p90 %.4f ms, %.6g items/s, set-up %.4f s"
                  % (wall["iter_wall_ms_p50"], wall["iter_wall_ms_p90"], wall["items_per_s"],
                     wall["setup_wall_s"]))
            print("reference slice: %.4f ms of CPU (nominal %.4f ms)"
                  % (host_slice_ms(children, "untraced"), REFERENCE_SLICE_MS))
            print("fail_ratio %.6g" % (failed / attempted if attempted else 0.0))
        print("iteration samples %d, beyond p90 %d" % (wall["samples"], wall["beyond_p90"]))
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2

    for p in paper:
        print("paper fig4b (seed 42): SkelCL %.7f ms, OpenCL %.7f ms, ratio %.5f, "
              "benchmark loop %.7f ms"
              % (p["skelcl_ms"], p["opencl_ms"], p["skelcl_ms"] / p["opencl_ms"],
                 p["bench_ms"]))
    for r in reasons:
        print("failure: %s" % r)
    for c in children:
        if c.lost:
            print("lost child (%s, exit %s), stderr tail:\n%s" % (c.lost, c.returncode,
                                                                   c.stderr_tail.strip()))
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print("%-36s %16.6f %s" % (name, values[name], unit))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = dict(result, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, reasons=reasons,
                  lost=[{"how": c.lost, "exit": c.returncode, "stderr_tail": c.stderr_tail}
                        for c in children if c.lost])
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
