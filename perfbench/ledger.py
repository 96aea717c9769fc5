#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and prints a ledger.

Run from the checkout root:

    python3 perfbench/ledger.py --seeds 1-10 [--seconds N] [--trace-seed 1] > ledger.json

For every workload and end-to-end metric it reports the ten values, their
median, quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median that the bounds in BENCHMARK.json are checked against.
With --trace-seed it also records one traced run's per-layer metrics.
Each run's host CPU steal share is recorded beside the metrics, so runs
the hypervisor took the CPUs away from can be recognised and re-run.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    for line in out.stdout.splitlines():
        if "host CPU steal during the window:" in line:
            res["steal_pct"] = float(line.split(":")[1].split("%")[0])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)} reported a failure:\n{out.stdout}")
    print(f"{workload} seed={seed} trace={trace} attempted={res['attempted']}", file=sys.stderr)
    return res


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace-seed", type=int, default=None)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    ledger = {"seconds": seconds, "seeds": seeds(args.seeds), "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values, steal = {}, []
        for s in ledger["seeds"]:
            res = run(name, s, seconds, 0)
            steal.append(res.get("steal_pct"))
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        entry = {"end_to_end": {}, "host_steal_pct": steal}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "values": v,
            }
        if args.trace_seed is not None:
            traced = run(name, args.trace_seed, seconds, 1)["metrics"]
            entry["per_layer"] = {k: traced[k] for k in sorted(traced)}
        ledger["workloads"][name] = entry
    json.dump(ledger, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
