#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Runs every workload at a tiny size (the
ones BENCHMARK.json names and edit_session, which it leaves out) and asserts
that

  * every metric BENCHMARK.json names is printed, with its unit (end-to-end
    metrics untraced, per-layer metrics traced);
  * every traced span nests inside its parent, with self time >= 0;
  * a corrupted expected output makes the command fail.

    python3 perfbench/smoke.py        # from the root of a checkout
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "2", "--tiny", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines[-1] if lines else "", out.stderr


def check_metrics(result, declared, what):
    errors = []
    got = result.get("metrics", {})
    for m in declared:
        if m["name"] not in got:
            errors.append(f"{what}: metric {m['name']} missing")
        elif got[m["name"]].get("unit") != m["unit"]:
            errors.append(f"{what}: metric {m['name']} has unit "
                          f"{got[m['name']].get('unit')}, want {m['unit']}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{what}: correct is {result.get('correct')}")
    return errors


def check_spans(path, what):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    if not spans:
        return [f"{what}: no spans recorded"]
    errors = []
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            errors.append(f"{what}: span {s['id']} {s['name']} ends early")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
                errors.append(f"{what}: span {s['id']} {s['name']} escapes "
                              f"its parent {p['name']}")
        covered, cursor = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], s["end_ns"])
            covered += max(0, hi - lo)
            cursor = max(cursor, hi)
        if s["end_ns"] - s["start_ns"] - covered < 0:
            errors.append(f"{what}: span {s['id']} {s['name']} has negative "
                          "self time")
    return errors[:10]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    spans_dir = os.path.join(".bench_build", "smoke")
    os.makedirs(spans_dir, exist_ok=True)
    errors = []
    for w in WORKLOADS:
        code, last, err = run(w, "--trace", "0")
        if code != 0 or not last.startswith("{"):
            errors.append(f"{w} untraced: exit {code}\n{err[-1500:]}")
        else:
            errors += check_metrics(json.loads(last), bench["end_to_end"],
                                    f"{w} untraced")

        spans = os.path.join(spans_dir, f"{w}.jsonl")
        code, last, err = run(w, "--trace", "1", "--spans-out", spans)
        if code != 0 or not last.startswith("{"):
            errors.append(f"{w} traced: exit {code}\n{err[-1500:]}")
        else:
            errors += check_metrics(json.loads(last), bench["per_layer"],
                                    f"{w} traced")
            errors += check_spans(spans, f"{w} traced")

        code, _, _ = run(w, "--trace", "0", "--corrupt-expected")
        if code == 0:
            errors.append(f"{w}: a corrupted expected output did not fail "
                          "the run")
        print(f"{w}: {'ok' if not errors else 'FAILED'}", flush=True)
    for e in errors:
        print(e)
    print("smoke test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
