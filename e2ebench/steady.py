#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload N times, alternating the workloads, each run with
another seed, and prints per workload and end-to-end metric the median,
the quartiles and the spread (Q3 - Q1) / median against the metric's
bound in BENCHMARK.json, plus the share of failed operations. A metric
fails when its spread exceeds its bound.

    python3 e2ebench/steady.py --runs 10 --out set-a.json
    python3 e2ebench/steady.py --runs 10 --out set-b.json --against set-a.json

`--against` compares the medians of this set with an earlier one: a
metric fails when its new median is worse than the old by more than
its bound, and the failed shares must be identical. Run from the root
of the repository. The exit code is 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload (default 10)")
    ap.add_argument("--seed-base", type=int, default=1000, help="first seed (default 1000)")
    ap.add_argument("--seconds", type=int, help="run length (default: run_seconds)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--out", help="write the raw results to this JSON file")
    ap.add_argument("--against", help="compare medians with an earlier --out file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            r = run_once(bench["command"], w, args.seed_base + i, seconds, 0)
            results[w].append(r)
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"[{i + 1}/{args.runs}] {w} seed {r['seed']}: {r['wall_s']:.1f}s "
                  f"correct={r['correct']} failed={r['failed']}/{r['attempted']} {shown}",
                  flush=True)

    ok = True
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    for w in workloads:
        runs = results[w]
        print(f"\n{w}: {len(runs)} runs")
        if not all(r["correct"] for r in runs):
            print("  some run reported correct=false")
            ok = False
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        fracs = {f / a for f, a in shares}
        print(f"  failed share: {sorted(fracs)}")
        if len(fracs) != 1:
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                print(f"  {name}: {values}")
                continue
            q1, med, q3, s = spread(values)
            held = s <= bound
            line = (f"  {name:12} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                    f"spread {s:6.1%} (bound {bound:.0%}, third {bound / 3:.1%})")
            if earlier and w in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[w])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f"  vs earlier {old:.6g}: {worse:+.1%} worse"
                held = held and worse <= bound
            if earlier and w in earlier:
                old_fracs = {r["failed"] / r["attempted"] for r in earlier[w]}
                if old_fracs != fracs:
                    held = False
            print(line + ("" if held else "  <-- FAIL"))
            ok = ok and held
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
