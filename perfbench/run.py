#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload app_flow --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script builds perfbench/ (the
rissp library from src/ plus the perfbench program) under .bench_build/perfbench,
times the benchmark's set-up in several separate processes, runs the
workload, and prints the result object as the last line of stdout.
It exits non-zero, without a result, when the sources are missing or
the build fails, and non-zero with a result when an output check
failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(BUILD, "run")
BINARY = os.path.join(BUILD, "perfbench")

# setup_s is the median over this many fresh processes, half of them
# started before the measured run and half after it. A probe's time
# follows the load other tenants put on the host's cores, which shifts
# over seconds, so probes taken at two times ~35 s apart give a
# steadier median than probes taken back to back.
SETUP_PROBES = 12


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "flow", "flow.hh")):
        die(f"no rissp sources under {ROOT}/src; run from a checkout root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def program_args(args):
    return [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", RUN_DIR]


def time_setup(args, probes):
    """Wall times from process start to "ready" of @p probes fresh
    processes: start-up, seeded inputs, singletons, serve fixture."""
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.Popen(program_args(args) + ["--setup-only"],
                                 stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        if child.wait() != 0 or line != "ready":
            die("set-up failed")
        samples.append(elapsed)
    return samples


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["app_flow", "explore_sweep", "serve_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        die(f"build failed: {error}")
    os.makedirs(RUN_DIR, exist_ok=True)

    setup = [] if args.trace else time_setup(args, SETUP_PROBES // 2)

    child = subprocess.Popen(program_args(args), stdout=subprocess.PIPE,
                             text=True, cwd=ROOT)
    last = None
    for line in child.stdout:
        if last is not None:
            print(last, flush=True)
        last = line.rstrip("\n")
    code = child.wait()
    try:
        result = json.loads(last or "")
    except json.JSONDecodeError:
        if last is not None:
            print(last)
        die(f"perfbench printed no result (exit code {code})")

    if not args.trace:
        setup += time_setup(args, SETUP_PROBES - len(setup))
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        die("metrics differ from BENCHMARK.json: missing "
            f"{sorted(want - set(result['metrics']))}, extra "
            f"{sorted(set(result['metrics']) - want)}")
    print(json.dumps(result), flush=True)
    sys.exit(code if code != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
