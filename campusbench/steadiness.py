#!/usr/bin/env python3
"""Checks that the campus benchmark is steady enough to gate changes.

    python3 campusbench/steadiness.py [--runs 10] [--seconds N] [--workload W ...]

For every workload it makes two sets of untraced runs, each run on its own
seed: set A on seeds 1..runs, set B on a second range of seeds. Per
end-to-end metric it prints each set's median and quartiles, and checks,
with the bounds in BENCHMARK.json, that

  * within each set the quartile distance is at most the bound, as a share
    of the median;
  * set B's median differs from set A's by at most the bound, as a share of
    set A's median;
  * both sets fail exactly the same share of their operations: a check that
    fails on some seeds only would make the gate compare noise.

It also prints each set's median probe rate (machine_speed), so the probe
can be seen to read the same on every workload.

Exits 1 if any check fails. Run it from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECOND_SEED_BASE = 1001


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("metric machine_speed"):
            result["machine_speed"] = float(line.split()[2])
        if line.startswith("check FAILED"):
            print(f"  {workload} seed {seed}: {line}", flush=True)
    return result


def run_set(command, workload, seeds, seconds):
    results = []
    for seed in seeds:
        res = run_once(command, workload, seed, seconds)
        shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
        print(f"  seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {shown}", flush=True)
        results.append(res)
    return results


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in workloads:
        print(f"== {workload}", flush=True)
        sets = []
        for label, base in (("A", 1), ("B", SECOND_SEED_BASE)):
            print(f" set {label}", flush=True)
            sets.append(run_set(bench["command"], workload, range(base, base + args.runs),
                                args.seconds))
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        if any(not r["correct"] for s in sets for r in s):
            print("  FAIL some run reported correct=false")
            ok = False
        if shares[0] != shares[1]:
            print(f"  FAIL failed share differs: {shares[0]} vs {shares[1]}")
            ok = False
        speeds = [statistics.median(r["machine_speed"] for r in s) for s in sets]
        print(f"  machine_speed median A {speeds[0]:.4g}  B {speeds[1]:.4g} accesses/s")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            drift = (stats[1][1] - stats[0][1]) / stats[0][1]
            verdict = []
            if max(spreads) > bound:
                verdict.append("spread over bound")
            if abs(drift) > bound:
                verdict.append("median drift over bound")
            ok = ok and not verdict
            print(f"  {name:<14} A q1/med/q3 {stats[0][0]:.5g}/{stats[0][1]:.5g}/{stats[0][2]:.5g}"
                  f"  B {stats[1][0]:.5g}/{stats[1][1]:.5g}/{stats[1][2]:.5g}"
                  f"  spread {spreads[0]:.3f}/{spreads[1]:.3f}  B vs A {drift:+.3f}"
                  f"  bound {bound}  {'FAIL ' + ', '.join(verdict) if verdict else 'ok'}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
