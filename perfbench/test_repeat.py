#!/usr/bin/env python3
"""Exact-repeat test for the benchmark's counted per-layer metrics.

    python3 perfbench/test_repeat.py

Runs each workload twice with --trace 1 at seed 1 for 1 s and fails
unless both runs are correct and the counts below are identical. They
come from one-domain runs, so for a fixed seed they are a function of
the inputs alone.
"""

import json
import os
import subprocess
import sys

EXACT = ("core.find_iters_per_op", "core.compaction_cas_per_op",
         "graphs.skip_share", "graphs.sample_unites")
WORKLOADS = ("conn-pl", "serve-wal")
SEED = 1
SECONDS = 1
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_run(workload):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for w in WORKLOADS:
        a = traced_run(w)
        b = traced_run(w)
        for r in (a, b):
            if not r["correct"]:
                print("FAIL %s: run not correct" % w)
                ok = False
        for m in EXACT:
            x, y = a["metrics"][m]["value"], b["metrics"][m]["value"]
            same = x == y
            ok = ok and same
            print("%s %s %s: %r vs %r" % ("ok  " if same else "FAIL", w, m, x, y))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
