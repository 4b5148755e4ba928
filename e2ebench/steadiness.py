#!/usr/bin/env python3
"""Runs one workload N times and prints each metric's median and quartiles.

    python3 e2ebench/steadiness.py --workload refit-512d --runs 10
    python3 e2ebench/steadiness.py --workload refit-512d --runs 10 --sets 2
    python3 e2ebench/steadiness.py --workload refit-512d --runs 10 \\
        --other /path/to/parent/checkout

Run i of a set uses seed --first_seed + i. For each end-to-end metric the
spread is the distance between the first and the third quartile
(statistics.quantiles(values, n=4)) as a share of the median: across seeds,
so it holds dataset variation as well as noise.

What a regression gate compares is the median of one set against the median
of another set of the same seeds, so --sets 2 (or more) runs the same seeds
again, set after set as a gate would, and prints how far each later set's
median moved from the first set's, in the metric's worse direction, against
its bound. The bounds in BENCHMARK.json are set from both: each timing
spread below a third of its bound, and each drift of a median within it.

With --other, every run is made on both checkouts (each builds its own copy
under its own .bench_build), and the order alternates from pair to pair, so
drift in the host is shared evenly; the script prints the change of the
median against the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout, workload, seed, seconds, trace, log=None):
    cmd = ["python3", os.path.join("e2ebench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if log:
        with open(log, "w") as f:
            f.write(out.stdout)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{checkout}: seed {seed} exited {out.returncode}")
    return json.loads(lines[-1])


def summarize(label, results, bounds):
    print(f"== {label}: {len(results)} runs")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"   correct: {all(r['correct'] for r in results)}, "
          f"failed share(s): {sorted(shares)}")
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = (f" bound {bound:.2f}: "
                       + ("ok" if spread < bound / 3 else
                          "within" if spread <= bound else "TOO WIDE"))
        print(f"   {name:34s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} "
              f"q3 {q3:12.6g} spread {spread:7.4f}{verdict}")
        medians[name] = med
    return medians


def compare(label, base, change, bounds, better):
    """Prints how much worse `change`'s medians are than `base`'s."""
    print(f"== {label}")
    for name, med in change.items():
        if not base[name]:
            continue
        worse = (med - base[name]) / base[name]
        if better.get(name) == "higher":
            worse = -worse
        bound = bounds.get(name)
        note = "" if bound is None else (
            f"  bound {bound:.2f}: "
            + ("REGRESSION" if worse > bound else "ok"))
        print(f"   {name:34s} worse by {worse:+.4f}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1,
                        help="sets of the same seeds, run one after another")
    parser.add_argument("--first_seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--other", help="a second checkout to compare with")
    parser.add_argument("--log_dir",
                        help="keep each run's full output in this directory")
    args = parser.parse_args()
    if args.log_dir:
        os.makedirs(args.log_dir, exist_ok=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    checkouts = [ROOT] + ([os.path.abspath(args.other)] if args.other else [])
    medians = []
    for s in range(args.sets):
        results = {c: [] for c in checkouts}
        for i in range(args.runs):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for c in order:
                log = None
                if args.log_dir:
                    side = checkouts.index(c)
                    log = os.path.join(
                        args.log_dir, f"{args.workload}-set{s + 1}-"
                        f"side{side}-seed{args.first_seed + i}.txt")
                results[c].append(run_once(c, args.workload,
                                           args.first_seed + i, seconds,
                                           args.trace, log))
                print(f"set {s + 1} run {i + 1}/{args.runs} seed "
                      f"{args.first_seed + i} {c}: done", file=sys.stderr)
        medians.append({c: summarize(f"set {s + 1} {c}", results[c], bounds)
                        for c in checkouts})
        if args.other:
            compare(f"set {s + 1}: {checkouts[0]} against {checkouts[1]}",
                    medians[-1][checkouts[1]], medians[-1][checkouts[0]],
                    bounds, better)
        if s > 0:
            for c in checkouts:
                compare(f"set {s + 1} against set 1, {c}", medians[0][c],
                        medians[-1][c], bounds, better)


if __name__ == "__main__":
    main()
