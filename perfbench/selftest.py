#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
the benchmark at --tiny sizes, untraced and traced, twice each, and checks:

- the run is correct, with no failed simulation;
- every metric BENCHMARK.json names for that mode is printed, with its
  unit, and no other;
- every exact metric (simulated counts and ratios of them) repeats
  bit-for-bit across the two runs;
- synth_bus with a second seed prints the same metric set.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.2"

# Metrics measured in host time (or derived from it); all others are exact.
HOST_UNITS = {"s", "ns", "1/s", "MiB"}
HOST_RATIOS = {"sim.access_bus_time_frac", "trace.overhead_frac",
               "trace.accounted_frac"}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("selftest: %s exited %d" % (" ".join(cmd),
                                                     proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    runs = 0

    def check(label, result, trace):
        if not result["correct"] or result["failed"] != 0:
            errors.append("%s: correct=%s failed=%d" %
                          (label, result["correct"], result["failed"]))
        if result["attempted"] < 1:
            errors.append("%s: attempted=%d" % (label, result["attempted"]))
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected[trace]:
            errors.append("%s: metrics or units differ from BENCHMARK.json: "
                          "%s" % (label, sorted(set(got.items()) ^
                                                set(expected[trace].items()))))

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            first = run(workload, 1, trace)
            second = run(workload, 1, trace)
            runs += 2
            check(label, first, trace)
            check(label + " (repeat)", second, trace)
            for name, unit in expected[trace].items():
                if unit in HOST_UNITS or name in HOST_RATIOS:
                    continue
                a = first["metrics"].get(name, {}).get("value")
                b = second["metrics"].get(name, {}).get("value")
                if a != b:
                    errors.append("%s: exact metric %s differs across runs: "
                                  "%r vs %r" % (label, name, a, b))
            if workload == "synth_bus":
                other = run(workload, 2, trace)
                runs += 1
                check(label + " seed=2", other, trace)

    for e in errors:
        print("FAIL " + e)
    if errors:
        return 1
    print("selftest: ok (%d runs)" % runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
