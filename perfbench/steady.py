#!/usr/bin/env python3
"""Steadiness report: runs workloads over several seeds (untraced) and prints,
per end-to-end metric, the median and the quartile spread as a share of the
median next to the metric's bound from BENCHMARK.json, and the same spread
for the work counters of the attribution line, so that a timing spread can be
told apart from a change in the work done (noise fact 2 in README.md).

    python3 perfbench/steady.py --seeds 1-10 --seconds 20 \\
        [--workloads edit_session,serve_explore] [--out steady.json] \\
        [--compare earlier.json]

Run from the root of a checkout. Fails when a metric's spread exceeds its
bound. --compare also fails when a median moved from the earlier file's by
more than the metric's bound, in either direction: a set that is much faster
does not agree with the earlier one either.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: FAILED (exit {out.returncode})\n"
              + "\n".join(l for l in lines if l.startswith("check failed")),
              flush=True)
        return None
    result = json.loads(lines[-1])
    attribution = {}
    for line in lines:
        if line.startswith("attribution "):
            attribution = json.loads(line[len("attribution "):])
    return {"seed": seed, "result": result, "attribution": attribution,
            "wall_s": time.monotonic() - start}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    runs = {}
    ok = True
    for w in workloads:
        runs[w] = []
        for s in seeds_of(args.seeds):
            run = run_once(w, s, seconds)
            if run is None:
                ok = False
                continue
            runs[w].append(run)
            m = run["result"]["metrics"]
            print(f"  {w} seed {s} ({runs[w][-1]['wall_s']:.0f} s): " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in m.items()),
                  flush=True)
        print(f"\n== {w}: {len(runs[w])} runs of {seconds:g} s")
        print(f"  {'metric':<36}{'median':>14}{'iqr/med':>10}{'bound':>8}"
              f"{'bound/3':>9}")
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs[w]]
            med, rel = spread(vals)
            verdict = ""
            if rel > bound:
                verdict, ok = "  TOO NOISY", False
            elif rel > bound / 3:
                verdict = "  above bound/3"
            if w in earlier:
                old = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in earlier[w])
                better = next(m["better"] for m in bench["end_to_end"]
                              if m["name"] == name)
                worse = (med - old) / old if better == "lower" else \
                    (old - med) / old
                verdict += f"  vs earlier {worse:+.3f}"
                if abs(worse) > bound:
                    verdict += " WORSE" if worse > 0 else " BETTER"
                    ok = False
            print(f"  {name:<36}{med:>14.6g}{rel:>10.4f}{bound:>8.3f}"
                  f"{bound / 3:>9.4f}{verdict}")
        print("  work counters (attribution line):")
        keys = [k for k, v in runs[w][0]["attribution"].items()
                if isinstance(v, (int, float))]
        for k in keys:
            vals = [r["attribution"].get(k, 0) for r in runs[w]]
            if min(vals) > 0 and len(vals) >= 2:
                med, rel = spread(vals)
                print(f"  {k:<36}{med:>14.6g}{rel:>10.4f}")
        fps = {r["attribution"].get("order_fingerprint") for r in runs[w]}
        if None not in fps:
            print(f"  distinct order fingerprints: {len(fps)}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
