#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement of rounds.

    python3 perfbench/spread.py --workload figures_sweep --runs 10 --round a
    python3 perfbench/spread.py --workload figures_sweep --runs 10 \
        --seeds 11 12 13 14 15 16 17 18 19 20 --round b
    python3 perfbench/spread.py --compare a b

The first form runs perfbench/run.py --runs times (seeds 1..N unless
--seeds is given), then prints for each end-to-end metric of
BENCHMARK.json its median and the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound.  Raw results, stamped with the run's host
fingerprint and the --round name, are appended as JSON lines to --log.
It exits non-zero if a spread other than setup_s exceeds a third of its
bound.

--compare A B reads --log and prints, for every workload with runs in
both rounds, each metric's median in round A and in round B and how
much worse B is than A as a share of A's median, next to the bound.  It
exits non-zero if any metric is worse by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    seeds = args.seeds or list(range(1, args.runs + 1))
    values = {m["name"]: [] for m in spec["end_to_end"]}
    os.makedirs(os.path.dirname(args.log), exist_ok=True)
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"]
        lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, check=True).stdout.splitlines()
        result = json.loads(lines[-1])
        host = next((json.loads(l[len("host: "):]) for l in lines
                     if l.startswith("host: ")), None)
        if not result["correct"]:
            sys.exit("seed %d: run not correct: %s" % (seed, result))
        with open(args.log, "a") as log:
            log.write(json.dumps({"round": args.round,
                                  "workload": args.workload, "seed": seed,
                                  "host": host, "result": result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % (k, v[-1]) for k, v in values.items())))

    steady = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        ok = spread <= m["bound"] / 3 or m["name"] == "setup_s"
        steady &= ok
        print("%-14s median %-12.6g spread %6.2f%%  bound %5.1f%%  %s"
              % (m["name"], med, 100 * spread, 100 * m["bound"],
                 "ok" if ok else "TOO WIDE"))
    return steady


def compare(args, spec):
    rounds = {}
    with open(args.log) as log:
        for line in log:
            row = json.loads(line)
            key = (row.get("round"), row["workload"])
            rounds.setdefault(key, []).append(row["result"]["metrics"])
    first, second = args.compare
    agree = True
    workloads = sorted({w for r, w in rounds if r == first} &
                       {w for r, w in rounds if r == second})
    for workload in workloads:
        a, b = rounds[(first, workload)], rounds[(second, workload)]
        print("%s (%d / %d runs)" % (workload, len(a), len(b)))
        for m in spec["end_to_end"]:
            ma = statistics.median(r[m["name"]]["value"] for r in a)
            mb = statistics.median(r[m["name"]]["value"] for r in b)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma if ma else float("inf")
            ok = worse <= m["bound"]
            agree &= ok
            print("  %-14s %-12.6g %-12.6g worse by %6.2f%%  bound %5.1f%%  %s"
                  % (m["name"], ma, mb, 100 * worse, 100 * m["bound"],
                     "ok" if ok else "DISAGREE"))
    return agree


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="*")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--round", default="")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--log", default=os.path.join(
        ROOT, ".bench_build", "spread.jsonl"))
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        ok = compare(args, spec)
    elif args.workload:
        ok = measure(args, spec)
    else:
        parser.error("give --workload or --compare")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
