#!/usr/bin/env python3
"""HemoCloud benchmark: build the library and the benchmark from source, run
one workload, check its output against BENCHMARK.json and print it.

    python3 hemobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hemobench/run.py --self-test      # the benchmark's own tests

`--workload` takes a workload of BENCHMARK.json. Run from anywhere inside
a checkout; everything is built under <checkout>/.bench_build/hemobench.
Stdout ends with the result object {"correct", "attempted", "failed",
"metrics"}; untraced runs report the end_to_end metrics of BENCHMARK.json,
traced runs the per_layer ones.
Build logs and diagnostics go to stderr. Exits non-zero, printing no
result, when the build, the run or the result check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hemobench")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"hemobench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources missing under {ROOT}/src; nothing to build")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def check_result(line, defs):
    """The result object has exactly the contract's keys and every metric
    of `defs`, with its unit, and nothing else."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        raise ValueError("attempted/failed are not integers")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = {d["name"]: d["unit"] for d in defs}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            raise ValueError(f"metric {name} is malformed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.self_test:
        tests = build("hemobench_tests")
        sys.exit(subprocess.run([tests]).returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}", 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    binary = build("hemobench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}")

    lines = run.stdout.rstrip("\n").splitlines()
    defs = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    try:
        check_result(lines[-1], defs)
    except (IndexError, ValueError) as e:
        fail(f"bad result line: {e}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
