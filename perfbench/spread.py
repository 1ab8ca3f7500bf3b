#!/usr/bin/env python3
"""Run benchmark workloads on several seeds and report each metric's spread.

From the root of a leosim checkout:

    python3 perfbench/spread.py --workload serve-zipf --runs 5
    python3 perfbench/spread.py --all --runs 10 --traced --out perfbench/baseline.json

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median over the runs, next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged. The
serving metrics of each run's stderr summary and its error rate
(failed / attempted) are summarised the same way, without a bound. With
--traced it also makes one traced run per workload (on the first seed), and
--out writes everything, with the machine each run reported, as JSON.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

# The serving metrics have no bound; run.sh prints them in the stderr summary.
UNGATED = re.compile(r"^  (single_p50_ms|single_p99_ms|batch_p50_ms|batch_p99_ms|max_rate_rps) +(\S+) ")


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    machine = next((l.split("machine: ", 1)[1] for l in proc.stderr.splitlines()
                    if l.startswith("perfbench: machine: ")), "unknown")
    ungated = {"error_rate": result["failed"] / result["attempted"]}
    for line in proc.stderr.splitlines():
        m = UNGATED.match(line)
        if m:
            ungated[m.group(1)] = float(m.group(2))
    return result, machine, ungated


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="write the summaries as JSON to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    seconds = bench["run_seconds"]
    out = {"run_seconds": seconds, "seeds": [args.seed0, args.seed0 + args.runs - 1],
           "machines": [], "workloads": {}}
    flagged = 0
    for w in workloads:
        values, ungated = {}, {}
        for seed in range(args.seed0, args.seed0 + args.runs):
            res, machine, extra = run_once(w, seed, seconds, 0)
            if machine not in out["machines"]:
                out["machines"].append(machine)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in extra.items():
                ungated.setdefault(name, []).append(v)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        entry = out["workloads"][w] = {"end_to_end": {}}
        for name, vals in sorted(values.items()):
            s = entry["end_to_end"][name] = summarize(vals)
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <-- above bound/3"
                flagged += 1
            print(f"  {w:14s} {name:16s} median {s['median']:11.5g}  q1 {s['q1']:11.5g}  "
                  f"q3 {s['q3']:11.5g}  spread {s['spread']:7.4f}  bound {bound}{flag}", flush=True)
        entry["ungated"] = {}
        for name, vals in sorted(ungated.items()):
            s = entry["ungated"][name] = summarize(vals)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:7.4f}"
            print(f"  {w:14s} {name:16s} median {s['median']:11.5g}  q1 {s['q1']:11.5g}  "
                  f"q3 {s['q3']:11.5g}  spread {spread}  (no bound)", flush=True)
        if args.traced:
            res, _, _ = run_once(w, args.seed0, seconds, 1)
            entry["traced"] = {"seed": args.seed0, "metrics": res["metrics"]}
            print(f"  {w}: traced run on seed {args.seed0} done", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=2, sort_keys=True)
            f.write("\n")
    print(f"{flagged} metric/workload spreads above a third of their bound")


if __name__ == "__main__":
    main()
