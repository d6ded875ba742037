#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (a minute or less).

    python3 perfbench/smoke_test.py

For every workload it checks that
  - two runs with the same seed print identical schedule digests,
  - every metric BENCHMARK.json names is emitted, with its unit, both
    untraced (end-to-end metrics) and traced (per-layer metrics),
  - a clean run reports correct with no failed operation, and
  - the correctness checker fires when the oracle's answers are
    perturbed, so a passing run is not vacuous.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert out.returncode == 0, "%s seed %d exited %d" % (workload, seed, out.returncode)
    lines = out.stdout.rstrip("\n").split("\n")
    digests = [l for l in lines if l.startswith("digest ")]
    return digests, json.loads(lines[-1])


def check_metrics(result, declared, what):
    got = result["metrics"]
    for m in declared:
        assert m["name"] in got, "%s: metric %s missing" % (what, m["name"])
        assert got[m["name"]]["unit"] == m["unit"], "%s: unit of %s" % (what, m["name"])
        assert isinstance(got[m["name"]]["value"], (int, float))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (wl["name"] for wl in spec["workloads"]):
        d1, r1 = run(w, 7, 0)
        d2, r2 = run(w, 7, 0)
        assert d1 and d1 == d2, "%s: same seed, different digests:\n%s\n%s" % (w, d1, d2)
        d3, _ = run(w, 8, 0)
        assert d3 != d1, "%s: the seed does not change the schedule" % w
        for r in (r1, r2):
            assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, "%s: %s" % (w, r)
        check_metrics(r1, spec["end_to_end"], w + " untraced")
        for m in spec["end_to_end"]:
            assert r1["metrics"][m["name"]]["value"] > 0, "%s: %s is 0" % (w, m["name"])
        dt, rt = run(w, 7, 1)
        assert rt["correct"], "%s traced: %s" % (w, rt)
        assert dt[0] == d1[0] == dt[-1], \
            "%s: traced pass diverged from the untraced schedule" % w
        check_metrics(rt, spec["per_layer"], w + " traced")
        _, bad = run(w, 7, 0, "--wrong-reference")
        assert not bad["correct"] and bad["failed"] > 0, \
            "%s: checker did not fire on a wrong reference: %s" % (w, bad)
        print("ok %s: digest %s" % (w, d1[0].split(": ", 1)[1]))
    print("smoke test passed")


if __name__ == "__main__":
    main()
