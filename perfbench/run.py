#!/usr/bin/env python3
"""Run the splitwise benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the benchmark
package (perfbench/CMakeLists.txt, which compiles the repository's
src/ tree) into .bench_build/perfbench; later runs rebuild only what
changed. Every run first executes the benchmark's statistics tests,
then the benchmark itself, passes its report through, and checks that
the last line is the result object with exactly the metrics that
BENCHMARK.json names for the mode (end_to_end for --trace 0,
per_layer for --trace 1). Exits non-zero, without a result line, when
the build, the tests, a correctness check or that contract fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                   "perfbench", "perfbench_stats_test"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: %r" % line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    if result["correct"] is not True:
        fail("a correctness check failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number >= 0")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            fail("%s: unit %r, BENCHMARK.json says %r" % (name, metrics[name].get("unit"), unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: value %r is not a finite number" % (name, value))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = expected_metrics(args.trace)
    build()
    test = subprocess.run([os.path.join(BUILD_DIR, "perfbench_stats_test")],
                          stdout=sys.stderr)
    if test.returncode != 0:
        fail("statistics tests failed")

    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(lines[-1], file=sys.stderr)
        fail("benchmark exited with code %d" % proc.returncode)
    result = check_result(lines[-1], expected)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
