#!/usr/bin/env python3
"""Repository benchmark: builds locus_perfbench from source and runs a workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (which compiles the library from src/) into
.bench_build/, runs locus_perfbench, echoes its report, and prints as the last
line one JSON object {"correct", "attempted", "failed", "metrics"} holding
exactly the metrics BENCHMARK.json lists for the mode: its end_to_end
metrics with --trace 0, its per_layer metrics with --trace 1. The traced run
also writes its spans to .bench_build/traces/<workload>-seed<n>.jsonl.

--workload all runs every workload, one after another, with
the given --trace, and ends with one combined JSON object whose metric names
are prefixed with "<workload>/".

Exit status: 0 when the benchmark ran (correctness failures of the simulated
system are reported through "correct" and "failed", not the exit status);
nonzero, with no result line, when the benchmark itself could not run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "locus_perfbench")
WORKLOADS = ["dc_spread16", "dc_hot_local", "pages_open_mixed"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; fails the benchmark on error."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/; run from a full checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    run_quiet(["cmake", "--build", BUILD, "-j", "4"], timeout=850)


def listed_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload, seed, seconds, trace, extra):
    """Runs locus_perfbench once; returns (exit code, echoed lines, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + extra
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    # locus_perfbench forks one process per simulation; a new session lets a
    # timeout stop all of them.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s ended without a result (exit %d)" % (workload, proc.returncode))
    return proc.returncode, lines[:-1], result


def select(result, listed, workload):
    """Keeps exactly the listed metrics, checking name and unit."""
    metrics = {}
    for m in listed:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("%s did not report %s" % (workload, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s reported %s in %s, BENCHMARK.json says %s"
                 % (workload, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="|".join(WORKLOADS + ["all"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--inject", default="none",
                        help="self-test damage: none|corrupt_balance|restamp_chunk")
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail("unknown workload " + args.workload)

    listed = listed_metrics(args.trace)
    build()
    extra = ["--inject", args.inject]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, lines, result = run_workload(workload, args.seed, args.seconds, args.trace, extra)
        print("\n".join(lines))
        metrics = select(result, listed, workload)
        status = status or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if args.workload == "all":
            for name, value in metrics.items():
                combined["metrics"][workload + "/" + name] = value
        else:
            combined["metrics"] = metrics
    if status != 0:
        fail("locus_perfbench reported a benchmark failure (exit %d)" % status)
    sys.stdout.flush()
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
