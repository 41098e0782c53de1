#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/selftest.py [--workload tune|paper|serve ...]

For each workload: the printed metric names and units match
BENCHMARK.json (end-to-end untraced, per-layer traced), a clean run
reports correct with no failures, a corrupted output (--fault pixel;
--fault claim on paper) is counted as failed, and the deterministic
figures are identical between the traced and the untraced run.
Exits non-zero if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
FAULT = {"tune": "pixel", "paper": "claim", "serve": "pixel"}


def bench(workload, trace, fault=None, seed=7):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=900)
    if p.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), p.returncode,
                                                  p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    det = [json.loads(l[len("deterministic: "):]) for l in lines
           if l.startswith("deterministic: ")]
    return json.loads(lines[-1]), det[-1]


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=names)
    workloads = ap.parse_args(argv).workload or names
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(what, ok):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for w in workloads:
        det = {}
        for trace in (0, 1):
            result, det[trace] = bench(w, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check("%s --trace %d: metric names and units match BENCHMARK.json" % (w, trace),
                  printed == expected[trace])
            check("%s --trace %d: correct, no failures" % (w, trace),
                  result["correct"] and result["failed"] == 0 and result["attempted"] >= 1)
        check("%s: deterministic figures equal traced and untraced" % w, det[0] == det[1])
        if det[0] != det[1]:
            print("  untraced %s\n  traced   %s" % (json.dumps(det[0], sort_keys=True),
                                                  json.dumps(det[1], sort_keys=True)))
        result, _ = bench(w, 0, fault=FAULT[w])
        check("%s --fault %s: counted as failed" % (w, FAULT[w]),
              not result["correct"] and result["failed"] >= 1)
    print("%d check(s) failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
