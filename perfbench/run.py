#!/usr/bin/env python3
"""msgroof benchmark: host time and memory of the production configuration.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

The script builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload's passes as child processes of perfbench_driver, checks their
simulated outputs, and prints one JSON object as the last line of stdout:
with --trace 0 every end-to-end metric, with --trace 1 every per-layer
metric. perfbench/README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = {
    "roofline_sweep": "default 8 B-4 MiB x 1-1e4 msgs/sync grids at 2 ranks: "
                      "MPI p2p matching, the fabric cost model and SHMEM "
                      "world set-up do the work",
    "stencil_100k": "one-sided stencil at 100,000 ranks: topology build, "
                    "dispatch, fibers and fence waves dominate",
    "paper_apps": "verified SpTRSV, HashTable and embedding serving at 4-256 "
                  "ranks: gets, CAS retries and wait_until beside puts",
    "observed_4096": "one-sided stencil at 4096 ranks with metrics, spans and "
                     "the checker on, as --metrics --profile --check runs it",
}

# (name, unit, better) -- the bounds live in BENCHMARK.json.
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("sim_ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
]

SWEEP_KINDS = ("two_sided", "one_sided", "shmem", "cas")
APPS = ("stencil_one_sided", "sptrsv_two_sided", "sptrsv_one_sided",
        "sptrsv_shmem", "hashtable_one_sided", "hashtable_shmem",
        "embedding_mpi", "embedding_shmem")
LAYERS = ("bench", "simnet", "runtime", "mpi", "shmem", "core", "workloads")

PER_LAYER = (
    [("simnet.platform_build_s", "s", "lower"),
     ("simnet.platform_build_mb", "MB", "lower"),
     ("simnet.route_ns", "ns", "lower"),
     ("simnet.transfer_ns", "ns", "lower"),
     ("simnet.msgs", "count", "lower"),
     ("simnet.link_queue_us", "virtual_us", "lower"),
     ("runtime.sim_ops", "count", "lower"),
     ("runtime.engine_build_s", "s", "lower"),
     ("runtime.dispatch_ns", "ns", "lower"),
     ("mpi.p2p_msg_ns.m10", "ns", "lower"),
     ("mpi.p2p_msg_ns.m10000", "ns", "lower"),
     ("mpi.put_flush_ns", "ns", "lower"),
     ("mpi.fence_wave_ms", "ms", "lower"),
     ("shmem.world_setup_ms.pe2", "ms", "lower"),
     ("shmem.world_setup_ms.pe4", "ms", "lower"),
     ("shmem.put_signal_ns", "ns", "lower"),
     ("shmem.cas_ns", "ns", "lower"),
     ("shmem.cas_win_ratio", "ratio", "higher")]
    + [("core.sweep_point_ms.%s.%s" % (k, q), "ms", "lower")
       for k in SWEEP_KINDS for q in ("p50", "p90")]
    + [("workloads.%s_s" % a, "s", "lower") for a in APPS]
    + [("workloads.embedding.combine_ratio", "ratio", "lower"),
       ("obs.metrics_x", "x", "lower"),
       ("obs.spans_x", "x", "lower"),
       ("obs.check_x", "x", "lower"),
       ("obs.metrics_rss_x", "x", "lower"),
       ("trace.overhead_x", "x", "lower")]
    + [("self_s.%s" % layer, "s", "lower") for layer in LAYERS]
)

# The seed whose simulated-output digests are pinned in goldens.json.
DEFAULT_SEED = 1
# Every child pass together must end well inside the run's 180 s limit.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--list", action="store_true",
                   help="print every workload and metric, then exit")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.list:
        if args.workload is None or args.seed is None:
            p.error("--workload and --seed are required")
        if args.seed < 0 or not args.seconds > 0:
            p.error("--seed must be >= 0 and --seconds > 0")
    return args


def print_list():
    print("workloads:")
    for name, why in WORKLOADS.items():
        print("  %-16s %s" % (name, why))
    for title, rows in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        print("%s:" % title)
        for name, unit, better in rows:
            print("  %-40s %-10s %s is better" % (name, unit, better))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join("perfbench", "CMakeLists.txt")):
        raise BenchError("run from the root of a checkout (perfbench/ missing)")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "perfbench_driver")


class Children:
    """Runs driver passes one at a time under a shared deadline."""

    def __init__(self, binary, workload, seed, results):
        self.binary = binary
        self.base = ["--workload", workload, "--seed", str(seed),
                     "--out-dir", results]
        self.deadline = time.monotonic() + DEADLINE_S

    def run(self, *extra):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before pass %s" % " ".join(extra))
        cmd = [self.binary] + self.base + list(extra)
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                               text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("pass timed out: %s" % " ".join(extra))
        lines = r.stdout.strip().splitlines()
        try:
            if r.returncode == 0 and lines:
                return json.loads(lines[-1])
        except ValueError:
            pass
        raise BenchError("pass failed (rc %d): %s"
                         % (r.returncode, " ".join(extra)))


def read_first(path, key):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def manifest(seed, timed):
    comparable = (timed["build_type"] in ("Release", "RelWithDebInfo")
                  and timed["sanitizer"] == "none" and timed["optimized"] == 1)
    return {
        "nproc": os.cpu_count(),
        "mem_total": read_first("/proc/meminfo", "MemTotal"),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "build_type": timed["build_type"],
        "compiler": timed["compiler"],
        "sanitizer": timed["sanitizer"],
        "optimized": bool(timed["optimized"]),
        "backend": timed["backend"],
        "scheduler": timed["scheduler"],
        "git_commit": git_commit(),
        "seed": seed,
        "comparable": comparable,
    }


class Verdict:
    """Attempted/failed operations plus the reasons for every failure."""

    def __init__(self, timed):
        self.attempted = int(timed["attempted"])
        self.failed = int(timed["failed"])
        self.reps = len(timed["wall_s"])
        self.errors = [timed["errors"]] if timed["errors"] else []

    def fail_rep(self, why):
        """A digest mismatch fails one repetition's worth of operations."""
        self.failed = min(self.attempted,
                          self.failed + max(1, self.attempted // self.reps))
        self.errors.append(why)

    def child(self, name, out, want_digest):
        if int(out["failed"]) > 0:
            self.fail_rep("%s pass: %s" % (name, out["errors"]))
        if want_digest is not None and out["digest"] != want_digest:
            self.fail_rep("%s pass digest %s != timed digest %s"
                          % (name, out["digest"], want_digest))


def end_to_end(timed):
    wall = statistics.median(timed["wall_s"])
    return {
        "wall_s": wall,
        "setup_s": statistics.median(timed["setup_s"]),
        "sim_ops_per_s": timed["sim_ops"] / wall,
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def per_layer(timed, traced, probes, obs):
    m = {}
    m.update({k: v for k, v in probes.items() if "." in k})
    m.update({k: v for k, v in traced.items() if "." in k})
    for layer in LAYERS:
        key = "self_s." + layer
        m[key] = traced.get(key, 0.0) + probes.get(key, 0.0)
    m["simnet.msgs"] = timed["msgs"]
    m["simnet.link_queue_us"] = timed["link_queue_us"]
    m["runtime.sim_ops"] = timed["sim_ops"]
    atomics = timed["atomics"]
    m["shmem.cas_win_ratio"] = (1.0 - timed["cas_failures"] / atomics
                                if atomics else 1.0)
    off = obs["off"]
    for layer in ("metrics", "spans", "check"):
        m["obs.%s_x" % layer] = obs[layer]["wall_s"] / off["wall_s"]
    m["obs.metrics_rss_x"] = obs["metrics"]["peak_rss_mb"] / off["peak_rss_mb"]
    # Both passes are the first in a fresh process: compare like with like.
    untraced = timed["wall_s"][0] + timed["setup_s"][0]
    m["trace.overhead_x"] = traced["trace.pass_s"] / untraced
    missing = [name for name, _, _ in PER_LAYER if name not in m]
    if missing:
        raise BenchError("no value for " + ", ".join(missing))
    return m


def load_goldens():
    with open(os.path.join(HERE, "goldens.json")) as f:
        return json.load(f)


def print_table(title, rows, values):
    print("%s:" % title)
    for name, unit, better in rows:
        print("  %-40s %16.6g %-10s (%s is better)"
              % (name, values[name], unit, better))


def main(argv):
    args = parse_args(argv)
    if args.list:
        print_list()
        return 0
    try:
        goldens = load_goldens()
        binary = build()
        results = os.path.join(build_dir(), "results")
        os.makedirs(results, exist_ok=True)
        kids = Children(binary, args.workload, args.seed, results)

        timed = kids.run("--mode", "timed", "--seconds", str(args.seconds))
        verdict = Verdict(timed)
        if int(timed["count_failed"]) > 0:
            verdict.fail_rep("count pass failed")
        if timed["count_digest"] != timed["digest"]:
            verdict.fail_rep("metrics-on digest %s != timed digest %s"
                             % (timed["count_digest"], timed["digest"]))
        if args.seed == DEFAULT_SEED and timed["digest"] != goldens[args.workload]:
            verdict.fail_rep("digest %s != golden %s"
                             % (timed["digest"], goldens[args.workload]))
        e2e = end_to_end(timed)

        layer = None
        children = {"timed": timed}
        if args.trace:
            traced = kids.run("--mode", "traced")
            probes = kids.run("--mode", "probes")
            obs = {o: kids.run("--mode", "obs", "--obs", o)
                   for o in ("off", "metrics", "spans", "check")}
            verdict.child("traced", traced, timed["digest"])
            verdict.child("probes", probes, None)
            for o in ("metrics", "spans", "check"):
                verdict.child("obs " + o, obs[o], obs["off"]["digest"])
            layer = per_layer(timed, traced, probes, obs)
            children.update(traced=traced, probes=probes, obs=obs)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    e2e["ok_frac"] = 1.0 - verdict.failed / verdict.attempted
    man = manifest(args.seed, timed)
    if not man["comparable"]:
        print("perfbench: WARNING: %s build (sanitizer: %s); do not compare "
              "its numbers with an optimised build's"
              % (man["build_type"], man["sanitizer"]), file=sys.stderr)
    print("manifest: " + json.dumps(man, sort_keys=True))
    for e in verdict.errors:
        print("failure: " + e)
    print("fail_frac: %.6g (%d of %d operations)"
          % (verdict.failed / verdict.attempted, verdict.failed,
             verdict.attempted))
    print_table("end_to_end", END_TO_END, e2e)
    if layer is not None:
        print_table("per_layer", PER_LAYER, layer)

    chosen, values = ((PER_LAYER, layer) if args.trace else (END_TO_END, e2e))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in chosen}
    record = {"manifest": man, "metrics": metrics, "children": children}
    path = os.path.join(results, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": verdict.failed == 0,
                      "attempted": verdict.attempted,
                      "failed": verdict.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
