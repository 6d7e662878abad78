#!/usr/bin/env python3
"""Builds the engine from this checkout's src/ and runs one benchmark workload.

    python3 perfbench/run.py --workload paper-online --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build output and the run's files go under
.bench_build/ at the repository root. Exits non-zero, printing no result,
when the program's sources are missing or any step fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("paper-online", "big-catalog", "shared-reads")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; waits for it to end."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    if code != 0:
        fail("failed (%d): %s" % (code, " ".join(cmd)))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "bandit_server.cpp")):
        fail("program sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 300)
    call(["cmake", "--build", BUILD, "--target", target, "-j", "4"], 850)
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        call([build("bwbench_tests")], 170)
        return
    if args.workload is None:
        fail("--workload is required")
    exe = build("bwbench")
    os.makedirs(WORK, exist_ok=True)
    tag = "%s-%d" % (args.workload, args.seed)
    history = os.path.join(WORK, "history-%s.bwt" % tag)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--history", history]
    call([exe, "gen"] + common, 60)
    cmd = [exe, "run"] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(WORK, "spans-%s.csv" % tag)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))
    os.remove(history)
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    print(lines[-1])


if __name__ == "__main__":
    main()
