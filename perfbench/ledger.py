#!/usr/bin/env python3
"""Per-layer ledger: one traced run of every workload, printed side by side.

    python3 perfbench/ledger.py

Run from the root of a checkout. Each workload runs once with --trace 1
and seed 1, in its own process. The table lists every per-layer metric in
BENCHMARK.json for each workload; trace.overhead_pct is the throughput
the traced rounds lost against the untraced rounds of the same run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    columns = {}
    for w in workloads:
        cmd = spec["command"] + ["--workload", w, "--seed", "1",
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "1"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("traced run failed: %s" % " ".join(cmd))
        for line in lines[:-1]:
            print("%s %s" % (w, line))
        columns[w] = json.loads(lines[-1])["metrics"]
    print("%-30s %-6s" % ("metric", "unit") +
          "".join(" %14s" % w for w in workloads))
    for m in spec["per_layer"]:
        row = "%-30s %-6s" % (m["name"], m["unit"])
        for w in workloads:
            row += " %14.6g" % columns[w][m["name"]]["value"]
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
