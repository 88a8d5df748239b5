#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulated system).

    python3 perfbench/selftest.py

Run from the root of a checkout; builds through run.py. Checks that:
  - the same seed repeats every virtual metric exactly, and another seed
    changes them;
  - the traced and checked runs agree with the plain run on every virtual
    end-to-end metric;
  - a balance corrupted by a non-transactional write fails the conservation
    check;
  - a restamped chunk fails the page check;
  - every metric prints with a name, a unit and a clock, and BENCHMARK.json
    describes each listed metric with the same name and unit.
Exits nonzero if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLOCKS = ("virtual", "host")

failures = []


def run(workload, seed, trace=0, inject="none"):
    """Runs one short benchmark run; returns (printed metrics, checks, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit("selftest: %s failed (exit %d):\n%s" % (" ".join(cmd), proc.returncode,
                                                          proc.stderr[-2000:]))
    lines = proc.stdout.rstrip("\n").split("\n")
    printed = {}
    checks = {}
    for line in lines[:-1]:
        fields = line.split()
        if fields[:1] == ["metric"]:
            printed[fields[1]] = {"value": fields[2], "unit": fields[3],
                                  "clock": fields[4] if len(fields) > 4 else ""}
        elif fields[:1] == ["check"]:
            checks.update(kv.split("=", 1) for kv in fields[1:] if "=" in kv)
    return printed, checks, json.loads(lines[-1])


def expect(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def virtual(printed):
    return {k: v["value"] for k, v in printed.items() if v["clock"] == "virtual"}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    # Determinism: virtual metrics are exact functions of the seed.
    a, _, ra = run("dc_hot_local", 7)
    b, _, _ = run("dc_hot_local", 7)
    c, _, _ = run("dc_hot_local", 8)
    expect(virtual(a) == virtual(b) and virtual(a), "same seed repeats every virtual metric")
    changed = [k for k in virtual(a) if virtual(a)[k] != virtual(c).get(k)]
    expect(len(changed) >= 3, "another seed changes the virtual metrics (%s)" % ", ".join(changed))
    expect(ra["correct"] and ra["failed"] == 0, "clean dc_hot_local run is correct")

    # Metric naming: every printed metric has a unit and a clock; every
    # listed metric is printed and reported with BENCHMARK.json's unit.
    t, _, rt = run("dc_hot_local", 7, trace=1)
    for mode, printed, result, listed in (("end_to_end", a, ra, bench["end_to_end"]),
                                          ("per_layer", t, rt, bench["per_layer"])):
        bad = [k for k, v in printed.items() if v["clock"] not in CLOCKS or not v["unit"]]
        expect(not bad, "%s: every printed metric has a unit and a clock %s" % (mode, bad))
        wrong = [m["name"] for m in listed
                 if printed.get(m["name"], {}).get("unit") != m["unit"] or
                 result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
        expect(not wrong, "%s: BENCHMARK.json names and units match the output %s"
               % (mode, wrong))
        expect(sorted(result["metrics"]) == sorted(m["name"] for m in listed),
               "%s: the result holds exactly the listed metrics" % mode)
    expect(t.get("check.virtual_identical", {}).get("value") == "1",
           "traced and checked runs repeat the plain run's virtual metrics")
    same = [k for k in virtual(a) if k in t and t[k]["value"] != a[k]["value"]]
    expect(not same, "traced mode's end-to-end table equals the plain run %s" % same)

    # Conservation check catches a corrupted balance.
    _, checks, r = run("dc_hot_local", 7, inject="corrupt_balance")
    expect(not r["correct"] and r["failed"] > 0 and int(checks.get("unconserved_sims", 0)) > 0,
           "a corrupted balance fails the conservation check")

    # Page check catches a restamped chunk (on top of whatever torn reads the
    # run already has).
    _, clean_checks, _ = run("pages_open_mixed", 7)
    _, checks, r = run("pages_open_mixed", 7, inject="restamp_chunk")
    expect(not r["correct"] and
           int(checks.get("torn_reads", 0)) > int(clean_checks.get("torn_reads", 0)),
           "a restamped chunk fails the page check (torn_reads %s -> %s)"
           % (clean_checks.get("torn_reads"), checks.get("torn_reads")))

    if failures:
        sys.exit("selftest: %d check(s) failed" % len(failures))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
