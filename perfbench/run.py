#!/usr/bin/env python3
"""Builds and runs the serving benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload t91_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --test

The first form builds the harness from ../src if needed and runs one
workload; its last stdout line is the result JSON. --test builds and runs
the harness's own arithmetic tests. Builds go to .bench_build/perfbench under
the repository root; traced runs also write their spans there.
"""
import argparse
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# BENCHMARK.json lists t91_cold and zipf_fleet; t91_faulty runs by name only,
# because a third workload does not fit the benchmark's time budget at a
# steady run length (README.md, "Steadiness decisions").
WORKLOADS = ("t91_cold", "zipf_fleet", "t91_faulty")
# A 25 s run takes about 50 s on a 4-vCPU VM, and a traced one about 75 s;
# stop a hung one before the benchmark's 180 s limit.
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no pythia sources at %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target", target]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return os.path.join(BUILD, target)


def no_aslr_prefix():
    """Runs the harness with address-space randomisation off when the host
    allows it, which narrows run-to-run spread of the wall metrics."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    ok = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL).returncode == 0
    return prefix if ok else []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness's tests")
    args = parser.parse_args()
    if args.test:
        return subprocess.run([build("perfbench_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    harness = build("perfbench_harness")
    cmd = no_aslr_prefix() + [
        harness, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
