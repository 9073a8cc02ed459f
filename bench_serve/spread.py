#!/usr/bin/env python3
"""Runs the benchmark of BENCHMARK.json on several seeds per workload and
reports, for each metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound.

Run from the repository root:

    python3 bench_serve/spread.py                 # 10 seeds, end-to-end
    python3 bench_serve/spread.py --trace 1       # per-layer metrics
    python3 bench_serve/spread.py --runs 5 --same-seed --out bench_serve/baseline.json
    python3 bench_serve/spread.py --runs 5 --same-seed --trace 1 --out bench_serve/baseline.json

Seeds run in turn across the workloads (seed 1 of each, then seed 2, ...),
so that drift of the host spreads over all of them. Exits 1 when a run
fails or reports a wrong output, or when an end-to-end spread other than
that of setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10, help="seeds per workload")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--same-seed", action="store_true", help="every run on --first-seed")
    p.add_argument("--workload", action="append", help="default: all")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--out", help="write medians and quartiles here")
    a = p.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    declared = bench["end_to_end"] if a.trace == "0" else bench["per_layer"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    values = {w: {m["name"]: [] for m in declared} for w in workloads}
    ok = True
    seeds = [a.first_seed + (0 if a.same_seed else i) for i in range(a.runs)]
    for seed in seeds:
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", a.trace,
            ]
            run = subprocess.run(cmd, env=env, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: wrong output\n{run.stderr}", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"{w} seed {seed}: {shown}", file=sys.stderr)

    summary = {}
    print(f"{'workload':<12} {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        summary[w] = {}
        for m in declared:
            v = values[w][m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound:
                flag, ok = " OVER", False
            elif bound is not None and spread > bound / 3:
                flag = " (> bound/3)"
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "runs": len(v)}
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{w:<12} {m['name']:<34} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>7.3f} {b:>6}{flag}")
    if a.out:
        # One file holds both metric sets: each --trace run replaces its own.
        doc = json.load(open(a.out)) if os.path.exists(a.out) else {}
        section = "end_to_end" if a.trace == "0" else "per_layer"
        doc[section] = {"seeds": seeds, "workloads": summary}
        with open(a.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
