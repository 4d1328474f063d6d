#!/usr/bin/env python3
"""Self-check of the benchmark: does the same code agree with itself?

Default mode runs every workload twice with one seed, the second pass in
reverse order, prints both sets side by side, and fails unless

  * every end-to-end metric of the second pass is within its bound (from
    BENCHMARK.json) of the first pass,
  * virtual_s, pages_read and io_requests are bit-equal between the passes
    (same seed, same inputs, so the engine's counters must repeat exactly),
  * analytic_parallel reports the same three counters as analytic_serial
    (workers change who does the work, never what work is charged),
  * every run reports correct with nothing failed.

--spread N instead runs N seeds per workload and prints, per end-to-end
metric, the inter-quartile range as a share of the median next to a third of
the metric's bound: the steadiness target the benchmark is held to.

Run from the repository root:  python3 benchmark/check_repeat.py [--quick]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("virtual_s", "pages_read", "io_requests")


def run(workload, seed, seconds, extra):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def repeat(args, extra):
    names = [w["name"] for w in SPEC["workloads"]]
    first = {w: run(w, args.seed, args.seconds, extra) for w in names}
    second = {w: run(w, args.seed, args.seconds, extra) for w in reversed(names)}
    problems = []
    for w in names:
        a, b = values(first[w]), values(second[w])
        print(f"\n== {w}")
        print(f"{'metric':<20}{'first':>18}{'second':>18}{'change':>10}{'bound':>8}")
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            worse = (b[name] - a[name]) / a[name] * (1 if m["better"] == "lower" else -1)
            print(f"{name:<20}{a[name]:>18.6f}{b[name]:>18.6f}{worse:>+10.2%}{bound:>8.2%}")
            if name in EXACT:
                if a[name] != b[name]:
                    problems.append(f"{w}: {name} is not bit-equal between passes: {a[name]} vs {b[name]}")
            elif abs(worse) > bound:
                problems.append(f"{w}: {name} moved {worse:+.2%} between passes, bound {bound:.2%}")
        for r in (first[w], second[w]):
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w}: {r['failed']} of {r['attempted']} checks failed")
    serial, parallel = values(first["analytic_serial"]), values(first["analytic_parallel"])
    for name in EXACT:
        if serial[name] != parallel[name]:
            problems.append(f"analytic_parallel {name} {parallel[name]} != analytic_serial {serial[name]}")
    print()
    for p in problems:
        print("FAIL:", p)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def spread(args, extra):
    worst = 0.0
    for w in [w["name"] for w in SPEC["workloads"]]:
        runs = [values(run(w, args.seed + i, args.seconds, extra)) for i in range(args.spread)]
        print(f"\n== {w}: {args.spread} seeds from {args.seed}")
        print(f"{'metric':<20}{'median':>18}{'iqr/median':>12}{'bound/3':>10}")
        for m in SPEC["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / statistics.median(vals)
            flag = "" if share <= m["bound"] / 3 or m["name"] == "setup_s" else "  <-- above a third of the bound"
            print(f"{m['name']:<20}{statistics.median(vals):>18.6f}{share:>12.2%}{m['bound'] / 3:>10.2%}{flag}")
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
    print(f"\nworst spread is {worst:.0%} of its bound")
    return 1 if worst > 1 else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=2015)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--quick", action="store_true", help="smoke scale: checks the checks, not the numbers")
    ap.add_argument("--spread", type=int, metavar="N", help="run N seeds per workload and report IQR/median")
    args = ap.parse_args()
    extra = ["--quick"] if args.quick else []
    return spread(args, extra) if args.spread else repeat(args, extra)


if __name__ == "__main__":
    sys.exit(main())
