#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench.exe from the sources next to
this directory and runs one workload of it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The program's output is passed
through; its last line is the JSON result.  Exits non-zero, printing no
result, when the tree holds no program to build, the build fails or the
run fails.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("xmark_read", "churn_durable", "paged_beyond_ram")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Program knobs read from the environment.  Each workload sets the ones
# it needs itself; none may leak in from the caller's environment.
PROGRAM_KNOBS = ("LXU_STORAGE", "LXU_PLAN", "LXU_CACHE_BYTES", "LXU_POOL_BYTES", "LXU_TAGSORT")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="tiny sizes (smoke_test.py)")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="perturb the oracle's answers (smoke_test.py)")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        return fail("no program sources beside the benchmark (need dune-project and lib/)")
    if shutil.which("dune") is None:
        return fail("dune is not on PATH")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0:
        return fail("build failed")

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    work = os.path.join(ROOT, ".perfbench_work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_KNOBS}
    env["LXU_DOMAINS"] = "1"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work]
    if args.smoke:
        cmd.append("--smoke")
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return fail("run failed with exit code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(run.stdout)
        return fail("the run printed no result line")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
