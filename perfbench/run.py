#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload figures_sweep --seed 0 \
        --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (the simulator libraries plus the oscache-perfbench program)
in Release mode under .bench_build/ (or $CARGO_TARGET_DIR); later calls
only re-check the build.  The program's output is passed through, and
the last line printed is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; setup_s is the median over this run and SETUP_PROBES
extra processes that only set up.  With --trace 1 they are the
per-layer ones, and the spans are written to
<build>/spans/<workload>-seed<N>.json.

Other modes:
    --tiny              tiny inputs (seconds per workload; used by
                        perfbench/selftest.py)
    --expected FILE     digest file to check against (default
                        perfbench/expected.tsv)
    --record-digests    re-derive perfbench/expected.tsv from the
                        current program for every input set
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures_sweep", "numa_metrics", "sampled_long")
INPUT_SETS = 8  # Must match inputSets in main.cc.
SETUP_PROBES = 20
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build oscache-perfbench; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.call(cmd, stdout=log,
                                       stderr=subprocess.STDOUT, cwd=ROOT,
                                       timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (see %s)" % log_path)
    binary = os.path.join(out, "oscache-perfbench")
    if not os.access(binary, os.X_OK):
        fail("no oscache-perfbench binary at " + binary)
    return binary


def run(cmd, timeout=RUN_TIMEOUT_S):
    """Run @cmd from the root; returns its stdout, or exits on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        fail("oscache-perfbench exited with %d" % proc.returncode)
    return proc.stdout


def program_args(binary, args, workload, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--expected", args.expected]
    if args.tiny:
        cmd.append("--tiny")
    return cmd


def setup_seconds(binary, args):
    cmd = program_args(binary, args, args.workload, args.seed)
    values = []
    for _ in range(SETUP_PROBES):
        line = run(cmd + ["--setup-only"], timeout=60).strip()
        values.append(float(line.split()[-1]))
    return values


def record_digests(binary, args):
    lines = ["# Canonical-outcome digests: workload, input set, cell, "
             "digest.", "# Regenerate: python3 perfbench/run.py "
             "--record-digests"]
    seen = set()
    for workload in WORKLOADS:
        for tiny in (False, True):
            for index in range(INPUT_SETS):
                cmd = [binary, "--workload", workload, "--seed", str(index),
                       "--seconds", "0", "--record"]
                if tiny:
                    cmd.append("--tiny")
                out = run(cmd)
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"]:
                    sys.stdout.write(out)
                    fail("%s input %d: cells failed while recording"
                         % (workload, index))
                # A run may cover several input sets (sampled_long runs
                # whole cycles); keep each digest once.
                for line in out.splitlines():
                    if line.startswith("digest\t") and line not in seen:
                        seen.add(line)
                        lines.append(line[len("digest\t"):])
                print("recorded %s %s%d" % (workload, "tiny-" if tiny else "",
                                            index))
    with open(os.path.join(HERE, "expected.tsv"), "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.tsv"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.record_digests:
        record_digests(binary, args)
        return
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.exists(args.expected):
        fail("no digest file " + args.expected)

    cmd = program_args(binary, args, args.workload, args.seed)
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    out = run(cmd).splitlines()
    if not out:
        fail("oscache-perfbench printed nothing")
    result = json.loads(out[-1])
    for line in out[:-1]:
        print(line)

    if not args.trace:
        probes = setup_seconds(binary, args)
        own = result["metrics"]["setup_s"]["value"]
        result["metrics"]["setup_s"]["value"] = statistics.median(
            [own] + probes)
        print("setup_s samples = %s s" % ", ".join(
            "%.6f" % v for v in [own] + probes))
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
