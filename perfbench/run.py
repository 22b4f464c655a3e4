#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Workloads: fleet_100k, paper_campaign, dist_plan, serve_replay (see
perfbench/README.md for what each runs and why). The script first builds
perfbench/CMakeLists.txt (the simulator sources plus the benchmark
program) into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when
that is set, then runs the workload in fresh processes and prints, as
the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The line before it is a JSON record of the run: host
CPUs, compiler, build type, sizes, every output check and its result.
--smoke runs every workload at a tiny size in seconds.
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20080301

# name -> unit. Every name is printed on every run of its kind.
END_TO_END = {
    "setup_s": "s",
    "server_tick_ns": "ns",
    "tick_us_p50": "us",
    "tick_us_p99": "us",
    "peak_rss_mb": "MB",
    "ckpt_write_s": "s",
    "ckpt_restore_s": "s",
}
LEVELS = ("ec", "sm", "em", "gm", "vmc")
PER_LAYER = {
    "sim.topology_ms": "ms",
    "sim.traces_ms": "ms",
    "core.wiring_ms": "ms",
    "sim.actors": "count",
    **{f"controllers.{lvl}.{m}": u for lvl in LEVELS
       for m, u in (("observe_ms", "ms"), ("step_ms", "ms"),
                    ("steps", "count"))},
    "sim.evaluate_record_ms": "ms",
    "ckpt.serialize_ms": "ms",
    "ckpt.write_ms": "ms",
    "ckpt.read_ms": "ms",
    "ckpt.load_state_ms": "ms",
    "ckpt.snapshot_mb": "MB",
    "dist.join_ms": "ms",
    "dist.replication_us_per_tick": "us",
    "dist.tree_cpu_s": "s",
    "stream.decode_ns_per_frame": "ns",
    "stream.bytes_per_sample": "B",
    "stream.ingest_overhead_ns": "ns",
    "obs.trace_overhead_pct": "%",
    "obs.profile_overhead_pct": "%",
}

# Per-layer metrics of layers a workload does not run; a traced run
# prints them as 0. Every other per-layer metric must be non-zero.
_DIST = ("dist.join_ms", "dist.replication_us_per_tick", "dist.tree_cpu_s")
_STREAM = ("stream.decode_ns_per_frame", "stream.bytes_per_sample",
           "stream.ingest_overhead_ns")
NOT_EXERCISED = {
    "fleet_100k": (tuple(f"controllers.vmc.{m}"  # fleetConfig has no VMC
                         for m in ("observe_ms", "step_ms", "steps"))
                   + _DIST + _STREAM),
    "paper_campaign": _DIST + _STREAM,
    "dist_plan": _STREAM,
    "serve_replay": _DIST[:2],
}

# Sizes: (full, smoke).
SIZES = {
    "fleet_100k": ({"servers": 100000}, {"servers": 1000}),
    "paper_campaign": ({"ticks": 2880}, {"ticks": 600}),
    "dist_plan": ({"ticks": 2000}, {"ticks": 600}),
    "serve_replay": ({"ticks": 2000}, {"ticks": 600}),
}
PAPER_SERVERS = 180  # the 180-trace mix on the paper180 topology
RECORD_STRIDE = 10   # recorder CSV row every 10 ticks, both sides of a cmp
SUBPROCESS_TIMEOUT_S = 150


class Run:
    """Metrics, output checks and run facts of one invocation."""

    def __init__(self):
        self.metrics = {}
        self.checks = []  # (name, ok)
        self.info = {}

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))
        if not ok:
            print(f"perfbench: check failed: {name}", file=sys.stderr)

    def merge(self, child, prefix):
        """Fold one nps_perfbench result into this run."""
        self.metrics.update(child["metrics"])
        for name, ok in child["checks"].items():
            self.check(f"{prefix}.{name}", ok)
        for k, v in child["info"].items():
            self.info[f"{prefix}.{k}"] = v


# ---------------------------------------------------------------------------
# Processes


def become_subreaper():
    """Adopt orphaned grandchildren, so every process started is reaped."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_orphans(timeout_s=30.0):
    """Wait for every adopted orphan to end."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def tree_pids(root):
    """root and every live descendant of it."""
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except OSError:
            pass
    return out


def cpu_ns(pid):
    """CPU time of every thread of pid so far (schedstat), in ns."""
    total = 0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
    except OSError:
        pass
    return total


def hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Proc:
    """One timed subprocess tree, measured only from outside.

    Records wall time, the time each stderr line arrived, the peak RSS
    and the CPU time from wait4 (which cover the children the root
    reaped). marks maps a name to (text, count): when the count-th stderr
    line containing text arrives, its time goes to mark_t[name] and the
    tree's CPU time so far (in s) to mark_cpu[name]. stdin_bytes, if
    given, are written only once the "ready" mark has arrived, so the
    process idles on its input until then and the CPU sampled at the
    mark is its setup alone. With tree=True it also polls the summed
    per-process peak RSS (VmHWM) of the tree; that poll shares the
    interpreter with the stdin writer, so a single-process run fed
    through stdin skips it.
    """

    def __init__(self, argv, cwd, stdin_bytes=None, tree=False, marks=None):
        self.argv = argv
        self.lines = []  # (seconds since spawn, text)
        self.marks = marks or {}
        self.mark_t, self.mark_cpu = {}, {}
        self.ready = threading.Event()
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd,
            stdin=subprocess.PIPE if stdin_bytes is not None
            else subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            process_group=0)
        self.hwm = {}
        self.done = threading.Event()
        self.threads = [threading.Thread(target=self._read_stderr)]
        if tree:
            self.threads.append(threading.Thread(target=self._poll_rss))
        if stdin_bytes is not None:
            self.threads.append(threading.Thread(
                target=self._write_stdin, args=(stdin_bytes,)))
        for t in self.threads:
            t.start()

    def _read_stderr(self):
        seen = dict.fromkeys(self.marks, 0)
        for raw in self.proc.stderr:
            t = time.perf_counter() - self.t0
            line = raw.decode(errors="replace").rstrip()
            self.lines.append((t, line))
            for name, (text, count) in self.marks.items():
                if text not in line:
                    continue
                seen[name] += 1
                if seen[name] == count:
                    self.mark_cpu[name] = 1e-9 * sum(
                        cpu_ns(p) for p in tree_pids(self.proc.pid))
                    self.mark_t[name] = t
                    if name == "ready":
                        self.ready.set()
        self.ready.set()  # stderr closed: the process has ended

    def _write_stdin(self, data):
        self.ready.wait()
        try:
            self.proc.stdin.write(data)
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass

    def _poll_rss(self):
        while not self.done.is_set():
            for pid in tree_pids(self.proc.pid):
                self.hwm[pid] = max(self.hwm.get(pid, 0), hwm_kb(pid))
            self.done.wait(0.02)

    def wait(self):
        timer = threading.Timer(SUBPROCESS_TIMEOUT_S, self.kill)
        timer.start()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.wall = time.perf_counter() - self.t0
        timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.done.set()
        self.kill()  # anything of the tree still alive
        for t in self.threads:
            t.join()
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.rss_mb = max(sum(self.hwm.values()), ru.ru_maxrss) / 1024.0
        if self.proc.returncode != 0:
            print(f"perfbench: {' '.join(self.argv)} exited "
                  f"{self.proc.returncode}", file=sys.stderr)
            for _, line in self.lines[-20:]:
                print(f"  {line}", file=sys.stderr)
        return self.proc.returncode == 0

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def perfbench_json(bin_dir, args):
    """Run nps_perfbench, return (ok, parsed last stdout line)."""
    try:
        cp = subprocess.run([os.path.join(bin_dir, "nps_perfbench")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE,
                            timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, None
    lines = cp.stdout.decode().strip().splitlines()
    if cp.returncode != 0 or not lines:
        return False, None
    return True, json.loads(lines[-1])


def in_process(bin_dir, run, prefix, args):
    ok, result = perfbench_json(bin_dir, args)
    run.check(f"{prefix}.exit_0", ok)
    if ok:
        run.merge(result, prefix)


def same_file(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


# ---------------------------------------------------------------------------
# Workloads


def fleet_100k(ctx, run):
    in_process(ctx.bin, run, "fleet", [
        "fleet", "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
        "--trace", str(ctx.trace), "--servers", str(ctx.size["servers"]),
        "--work", ctx.work])


def paper_campaign(ctx, run):
    in_process(ctx.bin, run, "campaign", [
        "campaign", "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
        "--trace", str(ctx.trace), "--ticks", str(ctx.size["ticks"]),
        "--work", ctx.work])


class Twin:
    """The in-process replay of a subprocess workload's oracle run.

    Called after every unit, so its samples are spread over the whole run
    like the subprocess ones; each metric is the median over calls.
    """

    PASSES = 2  # twin passes per unit

    def __init__(self, ctx, run, kind):
        self.ctx, self.run, self.kind = ctx, run, kind
        self.values = {}

    def __call__(self, i, csv):
        ctx = self.ctx
        ok, result = perfbench_json(ctx.bin, [
            "twin", "--kind", self.kind, "--seed", str(ctx.seed),
            "--ticks", str(ctx.size["ticks"]),
            "--passes", "1" if ctx.trace else str(self.PASSES),
            "--csv", csv, "--trace", str(ctx.trace), "--work", ctx.work])
        prefix = f"twin_{self.kind}[{i}]"
        self.run.check(f"{prefix}.exit_0", ok)
        if not ok:
            return
        for name, value in result["metrics"].items():
            self.values.setdefault(name, []).append(value)
        for name, passed in result["checks"].items():
            self.run.check(f"{prefix}.{name}", passed)

    def report(self):
        for name, values in self.values.items():
            self.run.metrics[name] = statistics.median(values)


def units(ctx):
    """Yield unit indices until the time budget is spent; at least 3,
    and exactly 3 in a traced run."""
    t0 = time.perf_counter()
    i = 0
    while i < 3 or (not ctx.trace and
                    time.perf_counter() - t0 < ctx.seconds):
        yield i
        i += 1


DIST_PLAN = """[dist]
socket = dist.sock
timeout_ms = 60000

[run]
scenario = coordinated
machine = BladeA
mix = 180
ticks = {ticks}
seed = {seed}
threads = 1
record_stride = {stride}

[node group]
levels = gm:*

[node enclosures]
levels = em:*

[node vms]
levels = vmc
"""
DIST_RANKS = 3


def dist_plan(ctx, run):
    ticks = ctx.size["ticks"]
    plan = os.path.join(ctx.work, "dist.plan")
    with open(plan, "w") as f:
        f.write(DIST_PLAN.format(ticks=ticks, seed=ctx.seed,
                                 stride=RECORD_STRIDE))
    npsim = os.path.join(ctx.bin, "npsim")
    twin = Twin(ctx, run, "plan")
    join_s, setup_cpu, tick_ns, rss, repl_us, cpu = [], [], [], [], [], []
    for i in units(ctx):
        ref = Proc([npsim, "--plan", "dist.plan", "--record", "plan.csv",
                    "--threads", "1"], cwd=ctx.work)
        ok_ref = ref.wait()
        run.check(f"plan[{i}].exit_0", ok_ref)
        dist = Proc([npsim, "--distributed", "dist.plan",
                     "--record", "dist.csv", "--threads", "1"],
                    cwd=ctx.work, tree=True,
                    marks={"joined": (") joined", DIST_RANKS)})
        ok = dist.wait()
        run.check(f"distributed[{i}].exit_0", ok)
        joined = "joined" in dist.mark_t
        run.check(f"distributed[{i}].all_ranks_joined", joined)
        if not (ok and ok_ref and joined):
            continue
        run.check(f"distributed[{i}].csv_equals_plan_csv",
                  same_file(os.path.join(ctx.work, "plan.csv"),
                            os.path.join(ctx.work, "dist.csv")))
        join_s.append(dist.mark_t["joined"])
        setup_cpu.append(dist.mark_cpu["joined"])
        tick_ns.append((dist.cpu_s - dist.mark_cpu["joined"]) * 1e9 /
                       (PAPER_SERVERS * ticks))
        rss.append(dist.rss_mb)
        repl_us.append((dist.wall - ref.wall) * 1e6 / ticks)
        cpu.append(dist.cpu_s)
        if not ctx.trace or i == 0:
            twin(i, os.path.join(ctx.work, "plan.csv"))
    run.info["units"] = len(join_s)
    run.info["unit_server_tick_ns"] = [round(x, 1) for x in tick_ns]
    twin.report()
    if not join_s:
        return
    if ctx.trace:
        run.metrics["dist.join_ms"] = statistics.median(join_s) * 1e3
        run.metrics["dist.replication_us_per_tick"] = \
            statistics.median(repl_us)
        run.metrics["dist.tree_cpu_s"] = statistics.median(cpu)
    else:
        run.metrics["setup_s"] = statistics.median(setup_cpu)
        run.metrics["server_tick_ns"] = statistics.median(tick_ns)
        run.metrics["peak_rss_mb"] = statistics.median(rss)


def serve_replay(ctx, run):
    ticks = ctx.size["ticks"]
    feed = os.path.join(ctx.work, "feed.npsf")
    with open(feed, "wb") as out:
        cp = subprocess.run(
            [os.path.join(ctx.bin, "npsfeed"), "--mix", "180",
             "--seed", str(ctx.seed), "--ticks", str(ticks)],
            stdout=out, stderr=subprocess.DEVNULL,
            timeout=SUBPROCESS_TIMEOUT_S)
    run.check("npsfeed.exit_0", cp.returncode == 0)
    with open(feed, "rb") as f:
        stream = f.read()
    npsim = os.path.join(ctx.bin, "npsim")
    twin = Twin(ctx, run, "batch")
    common = ["--scenario", "coordinated", "--machine", "BladeA",
              "--mix", "180", "--seed", str(ctx.seed),
              "--ticks", str(ticks), "--threads", "1",
              "--record-stride", str(RECORD_STRIDE), "--log-level", "warn"]
    setup_s, tick_ns, rss, ingest_ns, cpu = [], [], [], [], []
    for i in units(ctx):
        batch = Proc([npsim] + common + ["--record", "batch.csv"],
                     cwd=ctx.work)
        ok_batch = batch.wait()
        run.check(f"batch[{i}].exit_0", ok_batch)
        # The daemon writes one checkpoint once its last tick has run and
        # before its end-of-run baseline replay; that line ends the timed
        # part, so the replay (which the stream layer does not touch)
        # stays out of server_tick_ns.
        serve = Proc([npsim] + common + [
            "--record", "serve.csv", "--serve", "stdin",
            "--checkpoint-every", str(ticks), "--checkpoint-dir", "ckpt"],
            cwd=ctx.work, stdin_bytes=stream,
            marks={"ready": ("waiting for the feeder", 1),
                   "ticked": (f"(tick {ticks})", 1)})
        ok = serve.wait()
        shutil.rmtree(os.path.join(ctx.work, "ckpt"), ignore_errors=True)
        run.check(f"serve[{i}].exit_0", ok)
        marked = {"ready", "ticked"} <= serve.mark_t.keys()
        run.check(f"serve[{i}].announced_ready_and_last_tick", marked)
        if not (ok and ok_batch and marked):
            continue
        run.check(f"serve[{i}].csv_equals_batch_csv",
                  same_file(os.path.join(ctx.work, "batch.csv"),
                            os.path.join(ctx.work, "serve.csv")))
        server_ticks = PAPER_SERVERS * ticks
        setup_s.append(serve.mark_cpu["ready"])
        tick_ns.append((serve.mark_cpu["ticked"] - serve.mark_cpu["ready"])
                       * 1e9 / server_ticks)
        rss.append(serve.rss_mb)
        ingest_ns.append((serve.wall - batch.wall) * 1e9 / server_ticks)
        cpu.append(serve.cpu_s)
        if not ctx.trace or i == 0:
            twin(i, os.path.join(ctx.work, "batch.csv"))
    run.info["units"] = len(setup_s)
    run.info["unit_server_tick_ns"] = [round(x, 1) for x in tick_ns]
    twin.report()
    if ctx.trace:
        in_process(ctx.bin, run, "decode", [
            "decode", "--file", feed, "--ticks", str(ticks)])
    if not setup_s:
        return
    if ctx.trace:
        run.metrics["stream.ingest_overhead_ns"] = \
            statistics.median(ingest_ns)
        run.metrics["dist.tree_cpu_s"] = statistics.median(cpu)
    else:
        run.metrics["setup_s"] = statistics.median(setup_s)
        run.metrics["server_tick_ns"] = statistics.median(tick_ns)
        run.metrics["peak_rss_mb"] = statistics.median(rss)


WORKLOADS = {
    "fleet_100k": fleet_100k,
    "paper_campaign": paper_campaign,
    "dist_plan": dist_plan,
    "serve_replay": serve_replay,
}


# ---------------------------------------------------------------------------
# Build and main


def build():
    """Configure and build perfbench/CMakeLists.txt; return the bin dir."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir] + gen,
                       stdout=log, stderr=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=log, stderr=log, check=True)
    return os.path.join(bdir, "bin"), os.path.join(ROOT, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every workload in seconds")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        bin_dir, target = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    become_subreaper()

    ctx = types.SimpleNamespace(
        bin=bin_dir, seed=args.seed, seconds=args.seconds, trace=args.trace,
        size=SIZES[args.workload][1 if args.smoke else 0],
        work=os.path.join(target, "work", args.workload))
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)

    run = Run()
    _, host = perfbench_json(bin_dir, ["info"])
    WORKLOADS[args.workload](ctx, run)
    reap_orphans()
    for name in os.listdir(ctx.work):  # keep only the span files
        if not name.startswith("spans-"):
            os.remove(os.path.join(ctx.work, name))

    names = PER_LAYER if args.trace else END_TO_END
    idle = NOT_EXERCISED[args.workload] if args.trace else ()
    metrics = {}
    for name, unit in names.items():
        value = run.metrics.get(name)
        if name in idle:
            # A layer this workload does not run: nothing was timed.
            ok = not value
            value = 0.0
        else:
            ok = value is not None and math.isfinite(value) and value != 0
        run.check(f"metric.{name}.reported", ok)
        if ok:
            metrics[name] = {"value": value, "unit": unit}

    failed = sum(1 for _, ok in run.checks if not ok)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "sizes": ctx.size, **(host or {}),
        "checks": {name: ok for name, ok in run.checks},
        "not_exercised": list(idle),
        "info": run.info,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
