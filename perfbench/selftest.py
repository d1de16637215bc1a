#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--tiny, untraced and traced, and asserts that:
  - the last line is a result object with exactly the keys correct,
    attempted, failed and metrics, and the run is correct;
  - every declared metric (end_to_end untraced, per_layer traced) is
    printed by name with its declared unit, and no other metric is;
  - a digest file with one corrupted digest makes the run report a
    failed cell instead of passing.
Takes about a minute.  Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def bench(workload, trace, expected=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    if expected:
        cmd += ["--expected", expected]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise AssertionError("%s trace=%d exited %d"
                             % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def corrupt_digests(workload, path):
    """Copy expected.tsv to @path with @workload's first tiny digest
    flipped; returns the corrupted cell id."""
    key = "tiny-%d" % SEED
    corrupted = None
    out = []
    with open(os.path.join(HERE, "expected.tsv")) as f:
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if (corrupted is None and len(fields) == 4
                    and fields[0] == workload and fields[1] == key):
                digest = fields[3]
                fields[3] = ("0" if digest[0] != "0" else "1") + digest[1:]
                corrupted = fields[2]
                line = "\t".join(fields) + "\n"
            out.append(line)
    assert corrupted is not None, "no %s digest for %s" % (key, workload)
    with open(path, "w") as f:
        f.writelines(out)
    return corrupted


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    scratch = os.path.join(ROOT, ".bench_build", "selftest")
    os.makedirs(scratch, exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            printed, result = bench(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            declared = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, (workload, trace, got, declared)
            for name, unit in declared.items():
                prefix = name + " = "
                assert any(l.startswith(prefix) and
                           l[len(prefix):].split()[1] == unit
                           for l in printed), (workload, name, unit)
            print("ok  %-14s trace=%d  %d metrics, %d cells"
                  % (workload, trace, len(got), result["attempted"]))

        path = os.path.join(scratch, "corrupt-%s.tsv" % workload)
        cell = corrupt_digests(workload, path)
        _, result = bench(workload, 0, expected=path)
        assert not result["correct"] and result["failed"] >= 1, result
        print("ok  %-14s corrupted digest of %s -> %d failed of %d"
              % (workload, cell, result["failed"], result["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
