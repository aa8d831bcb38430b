#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one workload, compared metric by metric.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]

Each run is `perfbench/run.py` with its own seed; set 2 continues the seeds
of set 1. For every end-to-end metric the script prints each set's median
and quartiles (Python's statistics.quantiles with n=4), the spread
(q3 - q1) / median, and the drift of set 2's median from set 1's in the
metric's worse direction. A metric agrees when both spreads and the drift
stay within the bound BENCHMARK.json gives it; set-up time is judged by its
drift only, since a run sets up only a few times. The failed share must be
identical in both sets, and the metrics that depend only on the fixed
history (DATASET_FIXED) must read the same in every run of both sets.
The host's CPU steal time during each set is printed where /proc/stat
shows it. The raw results are kept in .bench_build/perfbench/steady-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# Layout-quality metrics: functions of the fixed history alone, whatever --seed is.
DATASET_FIXED = ["span_ratio", "stored_bytes_per_user_byte", "online_span_ratio"]


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"run {workload} seed {seed} failed with exit {p.returncode}")
    return json.loads(lines[-1])


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is missing."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    sets, steal = [], []
    for s in range(2):
        first = args.first_seed + s * args.runs
        runs = []
        t0 = cpu_ticks()
        for seed in range(first, first + args.runs):
            r = one_run(args.workload, seed, seconds)
            runs.append(r)
            print(f"set {s + 1} seed {seed}: correct {r['correct']} attempted {r['attempted']} "
                  f"failed {r['failed']}", file=sys.stderr, flush=True)
        t1 = cpu_ticks()
        steal.append((t1[0] - t0[0]) / max(1, t1[1] - t0[1]) if t0 and t1 else None)
        sets.append(runs)

    os.makedirs(os.path.join(REPO, ".bench_build", "perfbench"), exist_ok=True)
    with open(os.path.join(REPO, ".bench_build", "perfbench", f"steady-{args.workload}.json"), "w") as fh:
        json.dump(sets, fh)

    ok = True
    for s, runs in enumerate(sets):
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"set {s + 1}: a run reported correct=false")
        share = "n/a" if steal[s] is None else f"{steal[s]:.2%}"
        print(f"set {s + 1}: failed share {sorted({r['failed'] / r['attempted'] for r in runs})}, "
              f"CPU steal {share}")
    if {r["failed"] / r["attempted"] for r in sets[0]} != {r["failed"] / r["attempted"] for r in sets[1]}:
        ok = False
        print("failed share differs between the sets")

    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    print(f"{'metric':34s} {'bound':>6s} | {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s}"
          " | set 2 median  spread   drift  verdict")
    for name, m in spec.items():
        vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        bound = m["bound"]
        s1, s2 = summary(vals[0]), summary(vals[1])
        drift = (s2[0] - s1[0]) / s1[0] if s1[0] else 0.0
        worse = drift if m["better"] == "lower" else -drift
        spread_ok = name == "setup_s" or (s1[3] <= bound and s2[3] <= bound)
        agree = spread_ok and worse <= bound
        verdict = "agree" if agree else "DISAGREE"
        if name in DATASET_FIXED and len(set(vals[0] + vals[1])) != 1:
            agree, verdict = False, "NOT EXACT"
        ok &= agree
        print(f"{name:34s} {bound:>6} | " + " ".join(f"{x:11.5g}" for x in s1[:3]) + f" {s1[3]:7.2%}"
              + f" | {s2[0]:11.5g} {s2[3]:7.2%} {drift:+7.2%}  {verdict}")
    print("\nverdict:", "the two sets agree within the bounds" if ok else "the sets DISAGREE")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
