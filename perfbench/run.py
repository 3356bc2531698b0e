#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune into .bench_build/, runs it, and
prints its JSON result as the last line of stdout. With --trace 0 the
result carries the end-to-end metrics plus peak_rss_mb, the benchmark
process's peak resident set as the kernel reports it on exit; with
--trace 1 it carries the per-layer metrics. Exits non-zero, printing no
result, when the build, the run or the result fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("conn-pl", "serve-wal")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root; nothing to build")
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet",
           "perfbench/perfbench.exe"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def run(args):
    scratch = os.path.join(BUILD_DIR, "perfbench-%d" % os.getpid())
    os.makedirs(os.path.join(ROOT, scratch))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        killer = threading.Timer(RUN_TIMEOUT_S, p.kill)
        killer.daemon = True
        killer.start()
        out = p.stdout.read().decode()
        _, status, usage = os.wait4(p.pid, 0)
        killer.cancel()
        code = os.waitstatus_to_exitcode(status)
    finally:
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
    if code != 0:
        fail("perfbench.exe exited with %d" % code)
    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench.exe printed no result")
    result = json.loads(lines[-1])
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
