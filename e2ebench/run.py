#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from a source checkout.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_chain, hot_keys, publish_while_serving (see README.md).
The first run configures and builds e2ebench/ (and the library from src/)
into $CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench; later runs
only rebuild what changed. Every run starts with the statistics self-check.
The last line of stdout is the benchmark's JSON result; build output goes to
stderr. Exits non-zero on a build failure, a self-check failure, or any
answer that differs from the seminaive reference.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_chain", "hot_keys", "publish_while_serving")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "query_service.h")):
        fail("no library sources under %s/src" % ROOT)
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "e2e_bench", "e2e_selfcheck"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    build(build_dir)

    check = subprocess.run([os.path.join(build_dir, "e2e_selfcheck")],
                           stdout=sys.stderr, stderr=sys.stderr)
    if check.returncode:
        fail("statistics self-check failed")

    workdir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--trace-out", os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 124
        print("run.py: benchmark timed out", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
