#!/bin/sh
# Full verification sweep: build with ASan+UBSan, run the test suite,
# run the lint selftest, then generate and lint (and re-simulate with
# the invariant checker) a trace for every seed workload.
#
# Usage: tools/run_checks.sh [build-dir]
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-checks"}
jobs=$(nproc 2>/dev/null || echo 4)

echo "== configure ($build) =="
cmake -B "$build" -S "$repo" -DOSCACHE_SANITIZE=address,undefined

echo "== build =="
cmake --build "$build" -j "$jobs"

echo "== ctest =="
ctest --test-dir "$build" --output-on-failure -j "$jobs"


# Static-analysis stage: clang-tidy over the sources changed most
# often (the checker profile lives in .clang-tidy).  Skipped when the
# binary is not installed; any warning fails the sweep.
echo "== clang-tidy =="
if command -v clang-tidy > /dev/null 2>&1; then
    cmake -B "$build" -S "$repo" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
        > /dev/null
    find "$repo/src" "$repo/tools" -name '*.cc' -print0 |
        xargs -0 -P "$jobs" -n 8 clang-tidy -p "$build" \
            --warnings-as-errors='*' --quiet
else
    echo "clang-tidy not installed; skipping"
fi

echo "== lint selftest =="
"$build/tools/oscache-lint" selftest

# Two subsystems run threads: the shared loop (parallelFor in
# common/parallel.hh, which runs the experiment driver over the
# thread-safe trace cache and oscache-dft's commands), and the
# producer thread a synthesized source starts for a sampled replay,
# which generates quanta while the engine replays.  Build both with
# TSan and run the Exp*, Stream*, Sample* and SampledBatched* suites,
# end-to-end bench smokes (the last with several sampled producers at
# once) and a timed fuzz run, whose deadline stops every worker.
tsan_build="$build-tsan"
echo "== configure tsan ($tsan_build) =="
cmake -B "$tsan_build" -S "$repo" -DOSCACHE_SANITIZE=thread

echo "== build tsan =="
cmake --build "$tsan_build" -j "$jobs" --target test_exp test_stream \
    test_sample test_perf_equiv oscache_bench oscache_dft_cli

echo "== ctest tsan (Exp*, Stream*, Sample*, SampledBatched*) =="
ctest --test-dir "$tsan_build" --output-on-failure -j "$jobs" \
    -R '^Exp|^Stream|^Sample|^SampledBatched'

# --metrics: every cell's hub keeps plain single-writer state, which
# holds only while each run stays on one thread.
echo "== bench smoke (tsan, metrics on) =="
"$tsan_build/tools/oscache-bench" --smoke --jobs 4 --quiet --metrics \
    --cache-dir "$tsan_build/bench_smoke_cache" \
    --results "$tsan_build/bench_smoke_results" all

echo "== bench smoke streamed (tsan) =="
"$tsan_build/tools/oscache-bench" --smoke --jobs 4 --quiet --stream \
    --cache-dir "$tsan_build/bench_smoke_cache_stream" \
    --results "$tsan_build/bench_smoke_results_stream" all

echo "== bench smoke streamed and sampled (tsan, producer threads) =="
"$tsan_build/tools/oscache-bench" --smoke --jobs 4 --quiet --stream \
    --no-cache --sample period=20k,measure=1k,warmup=4k \
    --results "$tsan_build/bench_smoke_results_sampled" all

echo "== dft fuzz (tsan, deadline stops every worker) =="
"$tsan_build/tools/oscache-dft" fuzz --seconds 5 --jobs 4 --quiet

# Memory stage: a trace 10x the seed length must replay and lint under
# a fixed RSS ceiling.  The file is chunked, so its format alone makes
# both tools read it through bounded file cursors, never whole.  This
# runs against the ASan build, whose shadow memory and redzones add to
# the footprint: the Base replay peaks near 45 MB and the BCPref one
# near 70 MB, while holding the same 18.6M records in memory peaks
# near 770 MB.  The 256 MiB ceiling sits well above the cursor peaks
# and far below the whole trace, so a tool that regresses to reading
# the file whole fails.  BCPref replays the file twice, its second
# pass through the prefetch adapter, so the ceiling also bounds the
# adapter's buffers; the linter's one walk also keeps the lockset
# state of every written shared address.
echo "== memory ceiling (chunked long trace, packed trace cache) =="
memdir=$(mktemp -d)
rss_limit_kb=262144
"$build/tools/oscache" generate --workload shell --quanta 360 \
    --format chunked --out "$memdir/long.otc"
# Run "$@" (it must succeed) and fail the sweep unless its peak RSS,
# as the kernel accounts it for a waited-for child, is under the
# ceiling.
ceiling() {
    label=$1
    shift
    rss_kb=$(python3 -c 'import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' "$@") || {
        echo "memory check failed: $label did not run" >&2
        rm -rf "$memdir"
        exit 1
    }
    echo "$label peak RSS: ${rss_kb} KB (ceiling ${rss_limit_kb} KB)"
    [ "$rss_kb" -le "$rss_limit_kb" ] || {
        echo "memory check failed: $label RSS ${rss_kb} KB >" \
            "${rss_limit_kb} KB" >&2
        rm -rf "$memdir"
        exit 1
    }
}
for system in base bcpref; do
    ceiling "$system replay" "$build/tools/oscache" replay \
        --trace "$memdir/long.otc" --system "$system"
done
ceiling "lint" "$build/tools/oscache-lint" trace --trace "$memdir/long.otc"
# A default-mode registry run holds each trace whole in the trace
# cache, packed at a few bytes a record.  On this build `figure1`
# (4 traces, 4 jobs) peaks near 140 MB with packed traces, and peaked
# near 444 MB while the cache held them as 24-byte records, so the
# same ceiling fails a cache that regresses to whole 24-byte traces.
ceiling "figure1 sweep" "$build/tools/oscache-bench" --no-cache --quiet \
    --jobs 4 --results - figure1
rm -rf "$memdir"

tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT

# Observability: the profiler must reproduce the engine's hot-spot
# selection, and the exported timeline must be valid Chrome trace JSON.
echo "== observability (oscache run --hotspots --timeline) =="
prof_out="$tracedir/prof.out"
prof_trace="$tracedir/prof_timeline.json"
"$build/tools/oscache" run --workload shell --quanta 2 \
    --hotspots --timeline "$prof_trace" | tee "$prof_out"
grep -q "hot-spot cross-check: AGREE" "$prof_out" || {
    echo "observability check failed: profiler disagrees with engine" >&2
    exit 1
}
if command -v python3 > /dev/null 2>&1; then
    python3 - "$prof_trace" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "timeline exported no events"
phases = {e["ph"] for e in events}
assert "X" in phases, "no complete spans in timeline"
print("timeline JSON ok: %d events" % len(events))
EOF
else
    grep -q '"traceEvents"' "$prof_trace" || {
        echo "timeline export is not Chrome trace JSON" >&2
        exit 1
    }
fi
for workload in trfd4 trfd+make arc2d+fsck shell; do
    echo "== lint $workload =="
    trace="$tracedir/$(echo "$workload" | tr -d '+').trace"
    "$build/tools/oscache" generate --workload "$workload" --quanta 4 \
        --out "$trace"
    "$build/tools/oscache-lint" trace --trace "$trace" --simulate
done

# Differential-testing stage: the engine must agree with the
# independent oracle on every full workload, on a fixed 2000-trace
# fuzz corpus (reproducible: seeds 0..1999; ~40% of the cases draw a
# multi-socket NUMA geometry), and on a short fresh-seed run whose
# base seed is printed so any divergence can be replayed with
# `oscache-dft fuzz --seed-base N --count 1`.  The 24 golden
# experiment cells must match the blessed snapshot
# (tests/golden/cells.jsonl; re-bless with `oscache-dft golden
# --bless` after an intentional behaviour change).
echo "== dft: oracle vs engine (full workloads) =="
"$build/tools/oscache-dft" workloads --jobs "$jobs"

echo "== dft: fuzz, fixed corpus (2000 traces, seeds 0..1999) =="
"$build/tools/oscache-dft" fuzz --count 2000 --seed-base 0 \
    --jobs "$jobs" --quiet

echo "== dft: fuzz, fresh seeds (20s wall-clock) =="
"$build/tools/oscache-dft" fuzz --seconds 20 --jobs "$jobs" --quiet

echo "== dft: golden cells =="
"$build/tools/oscache-dft" golden --check \
    --file "$repo/tests/golden/cells.jsonl" \
    --scratch "$tracedir/dft_golden" --jobs "$jobs"


# Model-checking stage: the declarative protocol tables must survive
# an exhaustive sweep of every scheme at several configuration sizes,
# and the engine must conform to the tables (0 forbidden transitions,
# >= 90% spec-edge coverage) over the four paper workloads.
echo "== verify: exhaustive exploration (all schemes) =="
"$build/tools/oscache-verify" explore --scheme all --cpus 2 --addrs 2
"$build/tools/oscache-verify" explore --scheme all --cpus 3 --addrs 2 \
    --sets 2
"$build/tools/oscache-verify" explore --scheme all --cpus 4 --addrs 2

echo "== verify: implementation conformance (4 workloads) =="
"$build/tools/oscache-verify" conform --scheme all --min-coverage 90

echo "== verify: two-level 2x2 geometry (MESI, MSI) =="
"$build/tools/oscache-verify" explore --scheme mesi --cpus 4 \
    --addrs 2 --sockets 2
"$build/tools/oscache-verify" explore --scheme msi --cpus 4 \
    --addrs 2 --sockets 2
"$build/tools/oscache-verify" conform --scheme mesi --sockets 2 \
    --min-coverage 100
"$build/tools/oscache-verify" conform --scheme msi --sockets 2 \
    --min-coverage 100


# NUMA stage: the two-level interconnect's latency accounting,
# directory-filter precision, and link observability (`ctest -L Numa`
# — the ASan ctest above already ran it; this names the gate), plus
# one end-to-end server-class cell on the 2x4 machine through the
# bench scheduler.
echo "== numa: tier tests (label Numa) =="
ctest --test-dir "$build" --output-on-failure -j "$jobs" -L Numa

echo "== numa: server-mix smoke cell (2x4 machine) =="
"$build/tools/oscache-bench" --smoke --jobs 2 --quiet \
    --cache-dir "$tracedir/numa_smoke_cache" \
    --results "$tracedir/numa_smoke_results" numa


# Sampling stage: the sampled estimator must cover the full-run total
# of every frequent Table 2 metric within its own 95% CI (the CLI
# exits non-zero on a CI miss), a resumed live point must finish
# bit-identical to the straight-through run, and the dft oracle must
# agree with the engine on every replayed access of a sampled run.
echo "== sample: accuracy vs full run (shell) =="
"$build/tools/oscache-sample" run --workload shell --system base \
    --plan period=40k,measure=2k,warmup=12k --compare-full

echo "== sample: checkpoint resume is bit-identical (trfd4) =="
"$build/tools/oscache-sample" checkpoint --workload trfd4 \
    --save "$tracedir/sample_resume.ckpt" --at 150k \
    --plan period=25k,measure=2k,warmup=5k
"$build/tools/oscache-sample" validate --workload trfd4 \
    --checkpoint "$tracedir/sample_resume.ckpt"

echo "== sample: dft oracle on sampled windows =="
"$build/tools/oscache-dft" sampled --jobs "$jobs"


# Benchmark stage: neither ctest nor the stages above build perfbench/,
# which compiles against the exp, report, core and sample APIs.  Its
# selftest builds it (Release, under .bench_build/) and runs every
# BENCHMARK.json workload on tiny inputs, untraced and traced, so a
# library change that breaks the benchmark fails here, not when the
# benchmark next runs.  Takes a few minutes with a cold build.
echo "== perfbench: build and selftest (tiny inputs) =="
python3 "$repo/perfbench/selftest.py"


# Performance stage: an optimized build must (a) still pass the
# batched-replay/MarkTable safety net (`ctest -L Perf` — the ASan
# ctest above already ran it unoptimized) and (b) hold the replay
# throughput recorded in BENCH_perf.json: bare, checked (the
# coherence checker attached, as in every default cell) and observed
# (the checker plus a metrics and profiler hub, as `oscache-bench
# --metrics` runs a cell).  The replay benchmarks run flat-bus
# machines, so this doubles as the guard that the NUMA branches
# stayed off the single-socket fast path.  Throughput is measured as
# the perf_simulator replay section (min-of-2 per workload) on a
# Release+LTO tree; any workload more than 5% below the latest
# BENCH_perf.json entry, in any of the three, fails the sweep.  A
# metric the latest entry does not record is reported as having no
# baseline.  After an intentional engine, checker or observer change,
# re-baseline with `tools/bench_append.sh perf`.
perf_build="$build-perf"
echo "== configure perf ($perf_build, Release+LTO) =="
cmake -B "$perf_build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON > /dev/null

echo "== build perf =="
cmake --build "$perf_build" -j "$jobs" --target perf_simulator \
    test_perf_equiv

echo "== ctest perf (label Perf, optimized build) =="
ctest --test-dir "$perf_build" --output-on-failure -j "$jobs" -L Perf

# Three full invocations, best per workload: a single run can lose
# 15% to transient machine load, which would flake a 5% gate.
echo "== perf gate: bare, checked and observed replay throughput vs BENCH_perf.json =="
for run in 1 2 3; do
    OSCACHE_BENCH_PERF_OUT="$tracedir/perf-$run.json" \
        "$perf_build/bench/perf_simulator" --benchmark_filter=NONE \
        > /dev/null
done
python3 - "$repo/BENCH_perf.json" "$tracedir"/perf-*.json << 'EOF'
import json, sys

bench_path = sys.argv[1]
metrics = ("accesses_per_sec", "checked_accesses_per_sec",
           "observed_accesses_per_sec")
labels = {"accesses_per_sec": "bare",
          "checked_accesses_per_sec": "checked",
          "observed_accesses_per_sec": "observed"}
# Best of the runs, per workload and per metric.
measured = {}
for perf_path in sys.argv[2:]:
    text = open(perf_path).read()
    i = text.index('"replay"')
    j = text.index('[', i)
    k = text.index(']', j)
    for r in json.loads(text[j:k + 1]):
        best = measured.setdefault(r["workload"], {})
        for m in metrics:
            best[m] = max(best.get(m, 0.0), r[m])

baseline_entry = json.load(open(bench_path))["entries"][-1]
baseline = {r["workload"]: r for r in baseline_entry["workloads"]}

failed = False
for name, base in sorted(baseline.items()):
    got = measured.get(name)
    if got is None:
        print("perf gate: workload %s missing from run" % name)
        failed = True
        continue
    for m in metrics:
        if m not in base:
            print("  %-11s %-8s %6.2fM acc/s, no baseline"
                  % (name, labels[m], got[m] / 1e6))
            continue
        ratio = got[m] / base[m]
        status = "ok" if ratio >= 0.95 else "REGRESSED"
        print("  %-11s %-8s %6.2fM acc/s vs baseline %6.2fM (%.2fx) %s"
              % (name, labels[m], got[m] / 1e6, base[m] / 1e6, ratio,
                 status))
        if ratio < 0.95:
            failed = True
if failed:
    print("perf gate failed: >5%% regression vs entry dated %s (%s)"
          % (baseline_entry["date"], baseline_entry["label"]))
    sys.exit(1)
print("perf gate passed (baseline: %s)" % baseline_entry["label"])
EOF

echo "all checks passed"
