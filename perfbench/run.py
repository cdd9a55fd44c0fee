#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a source tree. The first call configures and builds
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build);
later calls rebuild incrementally. Workloads:

  butterfly      ncfn-run on the Fig. 6 butterfly (one session, g=4, no loss)
  relay_g32      source -> recode CodingVnf -> decode CodingVnf, g=32
  shards_traced  ncfn-run, 4 butterflies on 2 workers, loss, event trace on
  ctrl_churn     ctrl::Controller decisions under session churn

--trace 0 times the untouched binaries and prints the end-to-end metrics;
--trace 1 runs the same unit of work untraced and then with the span
recorder linked in (perfbench/trace), and prints the per-layer metrics.
Every run checks the program's outputs outside the timed spans; the last
stdout line is {"correct", "attempted", "failed", "metrics"}. The line
before it stamps the host, build and seed. --smoke runs every workload at
a tiny size in both modes and checks the printed metric names against
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("butterfly", "relay_g32", "shards_traced", "ctrl_churn")
SETUP_REPEATS = 25

# Work per unit. A timed run repeats units until --seconds have passed.
BUTTERFLY = ["tools/scenarios/butterfly.ncfn", "--duration", "1"]
SHARDS = ["tools/scenarios/butterfly_shards.ncfn", "--workers", "2",
          "--duration", "1", "--loss", "0.01", "--redundancy", "1"]
SHARDS_DETERMINISM_DURATION = "1"
RELAY_MIN_ROUNDS = 50
TRACED_RELAY_ROUNDS = 2000
CTRL_DECISIONS_PER_PASS = 120  # perf_ctrl repeats whole passes
TRACED_CTRL_DECISIONS = 240  # p95 with 12 samples beyond it
SMOKE = {"duration": "0.5", "rounds": 20}

# Layers that must record calls on a workload (trace soundness): a
# renamed entry point fails loudly instead of reporting 0 s.
EXPECTED_LAYERS = {
    "butterfly": ["netsim.dispatch", "netsim.link", "vnf", "coding",
                  "coding.recover", "gf", "app.provider", "app.endpoint",
                  "app.parse", "app.wire", "ctrl.solve", "lp.solve",
                  "graph.paths", "obs.write"],
    "shards_traced": ["netsim.dispatch", "netsim.link", "netsim.worker",
                      "vnf", "coding", "coding.recover", "gf",
                      "app.provider", "app.endpoint", "app.parse",
                      "app.wire", "ctrl.solve", "lp.solve", "graph.paths",
                      "obs.trace", "obs.merge", "obs.write"],
    "relay_g32": ["netsim.dispatch", "netsim.link", "vnf", "coding",
                  "coding.recover", "gf", "app.provider", "app.endpoint",
                  "app.wire", "harness"],
    "ctrl_churn": ["ctrl.decide", "ctrl.solve", "lp.solve", "graph.paths",
                   "app.wire", "harness"],
}
MAX_UNATTRIBUTED_SHARE = 0.05


class BenchError(Exception):
    """The benchmark itself cannot run: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    for need in ("src/CMakeLists.txt", "tools/ncfn-run.cpp",
                 "tools/scenarios/butterfly.ncfn"):
        if not (ROOT / need).is_file():
            raise BenchError(f"not a source tree: {need} is missing")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if _which("ninja") else []
        _check_call(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    _check_call(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])


def _which(prog):
    return any((Path(p) / prog).is_file()
               for p in os.environ.get("PATH", "").split(os.pathsep) if p)


def _check_call(argv):
    # Build output goes to stderr: stdout carries only the result.
    if subprocess.call(argv, stdout=sys.stderr, stderr=sys.stderr) != 0:
        raise BenchError("command failed: " + " ".join(argv))


def binary(name):
    return str(build_dir() / name)


class Proc:
    """One finished child process: wall time, peak RSS and its output."""

    def __init__(self, argv, env_extra=None, timeout=170):
        env = dict(os.environ)
        env.update(env_extra or {})
        with tempfile.TemporaryFile(dir=build_dir()) as out, \
                tempfile.TemporaryFile(dir=build_dir()) as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                 stderr=err)
            timer = threading.Timer(timeout, p.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
            self.rc = p.returncode
            if self.rc == -signal.SIGKILL:
                raise BenchError("killed after %ds: %s" % (timeout, argv))
            self.rss_mb = usage.ru_maxrss / 1024.0
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode(errors="replace")
            self.stderr = err.read().decode(errors="replace")


def unit_seed(seed, i):
    """Seed of the i-th unit of a run: a pure function of the run seed."""
    return str((seed * 7919 + i * 104729 + 1) % (2 ** 32))


class Tally:
    """Operations attempted and failed, with the first reason for failing."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failed, reason=None):
        self.attempted += attempted
        self.failed += failed
        if reason and len(self.reasons) < 5:
            self.reasons.append(reason)

    def problem(self, reason):
        """A failed check that is not tied to a counted operation."""
        self.add(0, 0, reason)


def fast(values):
    """The 10th percentile: the time of a unit that no neighbour slowed.

    On a shared host the same unit's wall time varies by up to 2x from
    second to second while other tenants contend for the core's caches;
    a low quantile over many short units tracks the program, a median the
    neighbours' load.
    """
    return statistics.quantiles(values, n=10)[0] if len(values) >= 2 \
        else values[0]


def median_setup(argv_for):
    walls = []
    for i in range(SETUP_REPEATS):
        p = Proc(argv_for(i))
        if p.rc != 0:
            raise BenchError(f"setup run failed ({p.rc}): {p.stderr[-300:]}")
        walls.append(p.wall_s)
    return statistics.median(walls)


# ---- ncfn-run workloads (butterfly, shards_traced) ----

ROW = re.compile(r"^(\d+)\s+(\S+)\s+([\d.]+) Mbps\s+([\d.]+) Mbps\s+(\d+)\s+(\d+)$")


def check_cli(p, metrics_path, tally, label):
    """Checks of one ncfn-run: exit 0, corrupt = 0 and at least one
    decoded generation for every receiver. Returns generations decoded."""
    metrics = {}
    if metrics_path.is_file():
        metrics = json.loads(metrics_path.read_text())["counters"]
    decoded = int(metrics.get("app.generations_decoded", 0))
    if p.rc != 0:
        tally.add(max(decoded, 1), max(decoded, 1),
                  f"{label}: exit code {p.rc}: {p.stderr.strip()[-200:]}")
        return 0, metrics
    rows = [ROW.match(line.strip()) for line in p.stdout.splitlines()[1:]]
    bad = [m.group(2) for m in rows if m and (int(m.group(6)) != 0 or
                                              float(m.group(4)) <= 0)]
    corrupt = int(metrics.get("app.verify_failures", 0))
    if not rows or None in rows or bad or decoded == 0:
        tally.add(max(decoded, 1), max(corrupt, 1),
                  f"{label}: receivers {bad or '?'} corrupt or idle")
    else:
        tally.add(decoded, corrupt,
                  f"{label}: {corrupt} verify failures" if corrupt else None)
    return decoded, metrics


def cli_argv(exe, base, seed, metrics_path=None, trace_path=None,
             duration=None):
    argv = [binary(exe)] + list(base)
    if duration is not None:
        argv[argv.index("--duration") + 1] = duration
    argv += ["--seed", seed]
    if metrics_path:
        argv += ["--metrics-out", str(metrics_path)]
    if trace_path:
        argv += ["--trace-out", str(trace_path)]
    return argv


def shards_determinism(seed, tally, scratch):
    """The merged metrics at 2 workers are byte-identical to 1 worker."""
    outs = []
    for workers in ("1", "2"):
        base = list(SHARDS)
        base[base.index("--workers") + 1] = workers
        path = scratch / f"det_w{workers}.json"
        p = Proc(cli_argv("ncfn-run", base, seed, path,
                          duration=SHARDS_DETERMINISM_DURATION))
        outs.append(path.read_bytes() if p.rc == 0 and path.is_file() else b"")
    if not outs[0] or outs[0] != outs[1]:
        tally.problem("shards: metrics at 2 workers differ from 1 worker")


def run_cli_timed(name, base, seed, seconds, tally, scratch, smoke):
    traced = name == "shards_traced"
    duration = SMOKE["duration"] if smoke else None
    setup = median_setup(lambda i: cli_argv(
        "ncfn-run", base, unit_seed(seed, 1000 + i), duration="0"))
    walls, rss, ops = [], [], []
    t_begin = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - t_begin < seconds:
        mpath, tpath = scratch / "m.json", scratch / "t.jsonl"
        for f in (mpath, tpath):
            f.unlink(missing_ok=True)
        p = Proc(cli_argv("ncfn-run", base, unit_seed(seed, i), mpath,
                          tpath if traced else None, duration))
        decoded, _ = check_cli(p, mpath, tally, f"{name} unit {i}")
        if traced and p.rc == 0 and not (tpath.is_file() and
                                         tpath.stat().st_size > 0):
            tally.problem(f"{name} unit {i}: no event trace written")
        tpath.unlink(missing_ok=True)
        walls.append(p.wall_s)
        rss.append(p.rss_mb)
        ops.append(decoded / max(p.wall_s - setup, 1e-9))
        i += 1
    if traced:
        shards_determinism(unit_seed(seed, 0), tally, scratch)
    return {
        "setup_s": setup,
        "ops_per_s": -fast([-x for x in ops]),  # the 90th percentile rate
        "step_p10_ms": fast(walls) * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }


# ---- API harness workloads (relay_g32, ctrl_churn) ----

def harness_json(p, tally, label):
    if p.rc != 0:
        tally.add(1, 1, f"{label}: exit code {p.rc}: {p.stderr[-200:]}")
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def relay_argv(exe, seed, seconds, rounds):
    return [binary(exe), "--seed", seed, "--seconds", str(seconds),
            "--min-rounds", str(rounds)]


def ctrl_argv(exe, seed, seconds, decisions=1):
    return [binary(exe), "--seed", seed, "--seconds", str(seconds),
            "--min-decisions", str(decisions)]


def tally_harness(name, out, tally):
    if out is None:
        return
    if name == "relay_g32":
        tally.add(out["generations"], out["failed"],
                  out["first_failure"] or None)
    else:
        tally.add(out["decisions"], out["failed"],
                  out["first_failure"] or None)


def run_harness_timed(name, seed, seconds, tally, smoke):
    exe = "perf_relay" if name == "relay_g32" else "perf_ctrl"
    setup = median_setup(lambda i: [binary(exe), "--seed",
                                    unit_seed(seed, 1000 + i),
                                    "--setup-only", "1"])
    if name == "relay_g32":
        argv = relay_argv(exe, unit_seed(seed, 0), seconds,
                          SMOKE["rounds"] if smoke else RELAY_MIN_ROUNDS)
    else:
        argv = ctrl_argv(exe, unit_seed(seed, 0), seconds)
    p = Proc(argv)
    out = harness_json(p, tally, name)
    tally_harness(name, out, tally)
    if out is None:
        return {"setup_s": setup, "ops_per_s": 1e-9, "step_p10_ms": 1e9,
                "peak_rss_mb": p.rss_mb}
    if name == "relay_g32":
        # Every round offers the same generations: one step is one round.
        steps = out["round_s"]
        step = fast(steps)
        ops_per_s = out["packets"] / len(steps) / step
    else:
        # A pass repeats the same 120 decisions; each decision's step is
        # its fast time over the passes, then the median over decisions.
        steps = out["decide_s"]
        per_decision = [fast(steps[k::CTRL_DECISIONS_PER_PASS])
                        for k in range(min(len(steps),
                                           CTRL_DECISIONS_PER_PASS))]
        step = statistics.median(per_decision)
        ops_per_s = len(per_decision) / sum(per_decision)
    return {
        "setup_s": setup,
        "ops_per_s": ops_per_s,
        "step_p10_ms": step * 1e3,
        "peak_rss_mb": p.rss_mb,
    }


# ---- traced runs ----

def registry_ratios(reg):
    c = reg.get("counters", {}) if reg else {}

    def total(suffix, prefix):
        return sum(v for k, v in c.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "netsim.queue_drop_ratio": ratio(
            total(".dropped_queue", "netsim.link."),
            total(".enqueued", "netsim.link.")),
        "vnf.batch_mean": ratio(total(".received", "vnf.node."),
                                total(".batches", "vnf.node.")),
        "coding.innovative_ratio": ratio(
            c.get("coding.packets_innovative", 0),
            c.get("coding.packets_seen", 0)),
    }


def layer_metrics(report, registry, plain_wall, traced_wall, decide_s):
    s, n, cnt = report["all"]["self_s"], report["all"]["calls"], \
        report["counters"]
    main_self = sum(report["main"]["self_s"].values())
    gf_bytes = cnt["gf_bytes"]
    m = {
        "netsim.dispatch.self_s": s["netsim.dispatch"],
        "netsim.events": cnt["events"],
        "netsim.link.self_s": s["netsim.link"],
        "netsim.link.calls": n["netsim.link"],
        "netsim.worker.busy_s": cnt["worker_busy_ns"] * 1e-9,
        "netsim.worker.wait_s": cnt["worker_wait_ns"] * 1e-9,
        "vnf.self_s": s["vnf"],
        "vnf.calls": n["vnf"],
        "coding.self_s": s["coding"] + s["coding.recover"],
        "coding.calls": n["coding"] + n["coding.recover"],
        "coding.recover.self_s": s["coding.recover"],
        "gf.self_s": s["gf"],
        "gf.calls": n["gf"],
        "gf.bytes": gf_bytes,
        "gf.gbps": gf_bytes * 8 / s["gf"] / 1e9 if s["gf"] > 0 else 0.0,
        "gf.tail_calls": cnt["gf_tail_calls"],
        "app.provider.self_s": s["app.provider"],
        "app.provider.bytes": cnt["provider_bytes"],
        "app.endpoint.self_s": s["app.endpoint"],
        "app.parse_s": s["app.parse"],
        "app.wire_s": s["app.wire"],
        "app.teardown_s": s["app.teardown"],
        "ctrl.decide.self_s": s["ctrl.decide"],
        "ctrl.decide.calls": n["ctrl.decide"],
        "ctrl.decide.p95_ms": (statistics.quantiles(decide_s, n=20)[-1] * 1e3
                               if len(decide_s) >= 2 else 0.0),
        "ctrl.solve.self_s": s["ctrl.solve"],
        "ctrl.solve.calls": n["ctrl.solve"],
        "lp.solve.self_s": s["lp.solve"],
        "lp.solve.calls": n["lp.solve"],
        "lp.nonoptimal": cnt["lp_nonoptimal"],
        "graph.paths.self_s": s["graph.paths"],
        "graph.paths.calls": n["graph.paths"],
        "obs.trace.self_s": s["obs.trace"],
        "obs.trace.records": cnt["trace_records"],
        "obs.trace.bytes": cnt["trace_bytes"],
        "obs.merge.self_s": s["obs.merge"],
        "obs.write.self_s": s["obs.write"],
        "harness.self_s": s["harness"],
        "traced_wall_s": report["wall_s"],
        "unattributed_s": report["wall_s"] - main_self,
        "trace_overhead": traced_wall / plain_wall,
    }
    m.update(registry_ratios(registry))
    return m


def check_trace(name, report, tally):
    calls = report["all"]["calls"]
    silent = [k for k in EXPECTED_LAYERS[name] if calls.get(k, 0) == 0]
    if silent:
        tally.problem(f"{name}: no calls recorded for {silent}")
    if report["counters"]["untagged_binds"]:
        tally.problem(f"{name}: handlers bound on a network of unknown kinds")
    share = (report["wall_s"] - sum(report["main"]["self_s"].values())) \
        / report["wall_s"]
    if share > MAX_UNATTRIBUTED_SHARE:
        tally.problem(f"{name}: {share:.1%} of the traced wall unattributed")


def run_traced(name, seed, tally, scratch, smoke):
    p = Proc([binary("span_selftest")])
    if p.rc != 0:
        tally.problem("span self-test failed: " + p.stderr.strip()[-200:])
    report_path = scratch / "spans.json"
    report_path.unlink(missing_ok=True)
    env = {"PERFBENCH_TRACE_OUT": str(report_path)}
    s0 = unit_seed(seed, 0)
    registry, decide_s = None, []
    if name in ("butterfly", "shards_traced"):
        base = BUTTERFLY if name == "butterfly" else SHARDS
        duration = SMOKE["duration"] if smoke else None
        mpath, tpath = scratch / "m.json", scratch / "t.jsonl"
        walls = []
        for exe, extra in (("ncfn-run", None), ("ncfn-run_traced", env)):
            for f in (mpath, tpath):
                f.unlink(missing_ok=True)
            p = Proc(cli_argv(exe, base, s0, mpath,
                              tpath if name == "shards_traced" else None,
                              duration), extra)
            _, counters = check_cli(p, mpath, tally, f"{name} {exe}")
            walls.append(p.wall_s)
        registry = {"counters": counters}
        tpath.unlink(missing_ok=True)
        if name == "shards_traced":
            shards_determinism(s0, tally, scratch)
    else:
        relay = name == "relay_g32"
        size = (SMOKE["rounds"] if relay else 1) if smoke else \
            (TRACED_RELAY_ROUNDS if relay else TRACED_CTRL_DECISIONS)
        stem = "perf_relay" if relay else "perf_ctrl"
        walls = []
        for exe, extra in ((stem, None), (stem + "_traced", env)):
            argv = (relay_argv if relay else ctrl_argv)(exe, s0, 0, size)
            p = Proc(argv, extra)
            out = harness_json(p, tally, f"{name} {exe}")
            tally_harness(name, out, tally)
            walls.append(p.wall_s)
            if out is not None and extra is None:
                registry = out.get("metrics")
                decide_s = out.get("decide_s", [])
    if not report_path.is_file():
        raise BenchError("the traced binary wrote no span report")
    report = json.loads(report_path.read_text())
    check_trace(name, report, tally)
    return layer_metrics(report, registry, walls[0], walls[1], decide_s)


# ---- stamps, output, smoke ----

def stamp(seed, workload):
    cache = (build_dir() / "CMakeCache.txt").read_text()

    def cached(key):
        m = re.search(rf"^{key}:\w+=(.*)$", cache, re.M)
        return m.group(1) if m else "unknown"

    compiler = cached("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    tier = Proc([binary("perf_relay"), "--setup-only", "1", "--print-tier",
                 "1"]).stdout.strip()
    digest = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for f in sorted((ROOT / sub).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    sha = "none"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() or "none"
    return {"workload": workload, "seed": seed, "host_cores": os.cpu_count(),
            "gf_tier": tier, "build_type": cached("CMAKE_BUILD_TYPE"),
            "compiler": compiler, "git_sha": sha,
            "source_sha256": digest.hexdigest()}


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "calls": "count",
         "events": "count", "records": "count", "bytes": "bytes",
         "tail_calls": "count", "nonoptimal": "count", "ratio": "ratio",
         "overhead": "ratio", "gbps": "Gbit/s", "batch_mean": "packets",
         "ops_per_s": "1/s"}


def unit_of(metric):
    for suffix, unit in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if metric.endswith(suffix):
            return unit
    raise BenchError(f"no unit for {metric}")


def run_workload(name, seed, seconds, trace, smoke=False):
    tally = Tally()
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=build_dir()))
    try:
        if trace:
            values = run_traced(name, seed, tally, scratch, smoke)
        elif name in ("butterfly", "shards_traced"):
            base = BUTTERFLY if name == "butterfly" else SHARDS
            values = run_cli_timed(name, base, seed, seconds, tally, scratch,
                                   smoke)
        else:
            values = run_harness_timed(name, seed, seconds, tally, smoke)
    finally:
        for f in scratch.iterdir():
            f.unlink()
        scratch.rmdir()
    for reason in tally.reasons:
        log("check failed: " + reason)
    return {
        "correct": not tally.reasons and tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)}
                    for k, v in sorted(values.items())},
    }


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    names = {w["name"] for w in spec["workloads"]}
    ok = names <= set(WORKLOADS)
    if not ok:
        log(f"smoke: BENCHMARK.json names unknown workloads "
            f"{sorted(names - set(WORKLOADS))}")
    for name in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(name, 1, 0.2, trace, smoke=True)
            got = set(r["metrics"])
            good = r["correct"] and got == want[trace]
            ok = ok and good
            log(f"smoke: {name} trace={trace}: "
                f"{'ok' if good else 'FAILED'}"
                + ("" if got == want[trace] else
                   f" missing {sorted(want[trace] - got)}"
                   f" extra {sorted(got - want[trace])}"))
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if args.smoke:
            return smoke()
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        print(json.dumps({"stamp": stamp(args.seed, args.workload)}))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
