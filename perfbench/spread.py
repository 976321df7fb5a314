#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and whether two sets of
runs of the same build agree within the bounds in BENCHMARK.json.

    python3 perfbench/spread.py

Run from the root of a checkout. Each of two sets makes ten runs of
every workload in BENCHMARK.json, interleaving the workloads; the runs
take seeds 1, 2, 3, ... in order. For every metric and workload it
prints each set's median and quartiles (statistics.quantiles, n=4) and
the quartile spread as a share of the median. The two sets agree when
every spread except that of setup_s is within the metric's bound, the
two medians of every metric differ by no more than the bound (either
way), and no operation failed. setup_s is held to its median only: a
set-up is a one-off of well under a second, so its spread follows the
host's speed of the moment more than the program.
Exits 0 when the two sets agree.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
RUNS = 10


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect run: %s" % " ".join(cmd))
    return result


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # results[set][workload] -> list of run results
    results = [{w: [] for w in workloads} for _ in range(SETS)]
    seed = 1
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                results[s][w].append(run_once(spec, w, seed))
                seed += 1
                print("set %d run %d %s done" % (s + 1, i + 1, w),
                      file=sys.stderr)

    agree = True
    header = "%-10s %-22s" % ("workload", "metric")
    for s in range(SETS):
        header += " | set%d median   q1        q3        spread" % (s + 1)
    print(header + " | bound  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = "%-10s %-22s" % (w, name)
            meds = []
            ok = True
            for s in range(SETS):
                vals = [r["metrics"][name]["value"] for r in results[s][w]]
                med, q1, q3, spread = describe(vals)
                meds.append(med)
                row += " | %-11.5g %-9.5g %-9.5g %6.2f%%" % (
                    med, q1, q3, spread * 100)
                if name != "setup_s" and spread > bound:
                    ok = False
            if abs(meds[1] - meds[0]) / meds[0] > bound:
                ok = False
            agree = agree and ok
            print(row + " | %5.1f%% %s" % (bound * 100,
                                           "ok" if ok else "OUT OF BOUND"))
        failed = [sum(r["failed"] for r in results[s][w]) for s in
                  range(SETS)]
        attempted = [sum(r["attempted"] for r in results[s][w]) for s in
                     range(SETS)]
        print("%-10s failed/attempted per set: %s" % (
            w, ", ".join("%d/%d" % fa for fa in zip(failed, attempted))))
        # No operation of these workloads is expected to fail.
        if any(f != 0 for f in failed):
            agree = False
    print("sets agree within bounds" if agree else "sets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
