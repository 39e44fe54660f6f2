#!/usr/bin/env python3
"""Self-tests for the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that bad flags exit with rc 2; that --list names every workload and
metric of BENCHMARK.json with its unit and direction; that a corrupted golden
digest (in a temporary copy of the benchmark scripts) turns a passing run
into reported failures; and that a directory holding only BENCHMARK.json and
perfbench/ exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, HERE)
import run  # noqa: E402

FAILURES = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def bench(script, *args, cwd=None, env=None):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          env=env, capture_output=True, text=True)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def test_bad_flags():
    script = os.path.join(HERE, "run.py")
    for args in (["--bogus"], ["--workload", "nope", "--seed", "1"],
                 ["--workload", "paper_apps"],
                 ["--workload", "paper_apps", "--seed", "-1"],
                 ["--workload", "paper_apps", "--seed", "1", "--trace", "2"],
                 ["--workload", "paper_apps", "--seed", "x"]):
        p = bench(script, *args)
        check(p.returncode == 2 and not p.stdout,
              "rc 2 and no result for %s" % " ".join(args))


def test_listing():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    p = bench(os.path.join(HERE, "run.py"), "--list")
    check(p.returncode == 0, "--list exits 0")
    words = [line.split() for line in p.stdout.splitlines()]
    for w in spec["workloads"]:
        check([w["name"]] in [ws[:1] for ws in words],
              "--list names workload %s" % w["name"])
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            row = [m["name"], m["unit"], m["better"], "is", "better"]
            check(row in words, "--list names %s %s (%s, %s is better)"
                  % (kind, m["name"], m["unit"], m["better"]))
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    for kind, rows in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
        check(listed == list(rows), "BENCHMARK.json %s matches run.py" % kind)


def test_corrupted_golden(scratch):
    args = ["--workload", "paper_apps", "--seed", str(run.DEFAULT_SEED),
            "--seconds", "1", "--trace", "0"]
    good = result_of(bench(os.path.join(HERE, "run.py"), *args))
    check(good is not None and good["correct"] and good["failed"] == 0,
          "pinned golden passes at the default seed")

    copy = os.path.join(scratch, "corrupt")
    os.makedirs(copy)
    shutil.copy(os.path.join(HERE, "run.py"), copy)
    with open(os.path.join(HERE, "goldens.json")) as f:
        goldens = json.load(f)
    goldens["paper_apps"] = "0" * 16
    with open(os.path.join(copy, "goldens.json"), "w") as f:
        json.dump(goldens, f)
    bad = result_of(bench(os.path.join(copy, "run.py"), *args))
    check(bad is not None and not bad["correct"] and bad["failed"] > 0,
          "corrupted golden reports failures")
    check(bad is not None and bad["metrics"]["ok_frac"]["value"] < 1.0,
          "corrupted golden lowers ok_frac")


def test_missing_sources(scratch):
    lone = os.path.join(scratch, "lone")
    os.makedirs(lone)
    shutil.copy("BENCHMARK.json", lone)
    shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = bench(os.path.join("perfbench", "run.py"), "--workload", "paper_apps",
              "--seed", "1", "--seconds", "1", "--trace", "0", cwd=lone,
              env=env)
    check(p.returncode != 0 and result_of(p) is None,
          "without src/ the run fails and prints no result")


def main():
    if not os.path.exists(os.path.join("perfbench", "run.py")):
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    root = run.build_dir()
    os.makedirs(root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=root)
    try:
        test_bad_flags()
        test_listing()
        test_corrupted_golden(scratch)
        test_missing_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
