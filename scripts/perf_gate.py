#!/usr/bin/env python3
"""Benchmark regression gate over the scale-throughput snapshot.

Compares a freshly generated bench JSON against the checked-in baseline,
per (bench, config) row, on the simulated txn_per_s metric and on the
transaction message cost form_messages_per_txn. The simulation is
deterministic, so the tolerance is not run-to-run noise — it absorbs the
rounding of the two-decimal snapshot format and deliberate small calibration
drift. Anything past it is a real regression and fails CI.

Host wall-clock (wall_ms) and form_log_forces_per_txn are informational
only: wall time depends on the CI machine, and the forces gauge has its own
acceptance tests.

Rules:
  - A baseline row missing from the new results fails (a benchmark silently
    disappearing is itself a regression).
  - New rows absent from the baseline pass (refresh the baseline to pin them).
  - txn_per_s below baseline by more than --tolerance (default 5%) fails.
  - form_messages_per_txn above baseline * (1 + --tolerance) + MSG_SLACK
    fails, for every baseline row that has the column (a fresh row without
    it fails too). The absolute slack covers the snapshot rounding on rows
    whose baseline is 0 or near it (the one-site row sends no messages).
  - The REQUIRED_ROWS must be present in BOTH files. They anchor the gate:
    the certifier-off sites=16 scale row is the overhead reference the
    serializability certifier (src/serial) is measured against, so neither a
    pruned baseline nor a filtered fresh run may silently drop it.

Usage: scripts/perf_gate.py <baseline.json> <new.json> [--tolerance=0.05]
Exits nonzero on any failure.
"""

import json
import sys

# (bench, config) rows that must exist in both baseline and fresh results.
REQUIRED_ROWS = [
    ("scale_throughput", "sites=16,tellers=48,local=0.0"),
]

# Absolute allowance, in messages per transaction, on top of the relative
# tolerance for form_messages_per_txn.
MSG_SLACK = 0.05
MSG_KEY = "form_messages_per_txn"


def load(path):
    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    return {(r["bench"], r["config"]): r for r in rows}


def main(argv):
    tolerance = 0.05
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load(paths[0])
    fresh = load(paths[1])

    failures = []
    checked = 0
    for key in REQUIRED_ROWS:
        for name, rows in (("baseline", baseline), ("new results", fresh)):
            if key not in rows:
                failures.append(
                    f"{key[0]} [{key[1]}]: required row missing from {name}")
    for key, base_row in sorted(baseline.items()):
        bench, config = key
        if key not in fresh:
            failures.append(f"{bench} [{config}]: missing from new results")
            continue
        checked += 1
        base = base_row["txn_per_s"]
        new = fresh[key]["txn_per_s"]
        floor = base * (1.0 - tolerance)
        verdict = "ok"
        if new < floor:
            verdict = "REGRESSED"
            failures.append(
                f"{bench} [{config}]: txn_per_s {new:.2f} < {floor:.2f} "
                f"(baseline {base:.2f} - {tolerance:.0%})")
        print(f"  {bench} [{config}]: {base:.2f} -> {new:.2f} txn/s {verdict}")
        if MSG_KEY in base_row:
            base_msgs = base_row[MSG_KEY]
            new_msgs = fresh[key].get(MSG_KEY)
            ceiling = base_msgs * (1.0 + tolerance) + MSG_SLACK
            verdict = "ok"
            if new_msgs is None:
                verdict = "MISSING"
                failures.append(f"{bench} [{config}]: {MSG_KEY} missing from new results")
            elif new_msgs > ceiling:
                verdict = "REGRESSED"
                failures.append(
                    f"{bench} [{config}]: {MSG_KEY} {new_msgs:.2f} > {ceiling:.2f} "
                    f"(baseline {base_msgs:.2f} + {tolerance:.0%} + {MSG_SLACK})")
            shown = "-" if new_msgs is None else f"{new_msgs:.2f}"
            print(f"  {bench} [{config}]: {base_msgs:.2f} -> {shown} msg/txn {verdict}")
    for key in sorted(fresh.keys() - baseline.keys()):
        print(f"  {key[0]} [{key[1]}]: new row (not in baseline)")

    for failure in failures:
        print(f"perf_gate: FAIL {failure}", file=sys.stderr)
    print(f"perf_gate: {checked} rows compared, {len(failures)} failures",
          file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
