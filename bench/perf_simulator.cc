/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: how fast
 * the library generates and replays traces.  These are the numbers a
 * downstream user sizing an experiment campaign cares about.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/version.hh"
#include "core/hotspot/hotspot.hh"
#include "core/runner.hh"
#include "mem/memsys.hh"
#include "report/experiment.hh"
#include "sim/system.hh"
#include "synth/generator.hh"

using namespace oscache;

namespace
{

const Trace &
cachedTinyTrace()
{
    static const Trace trace = [] {
        WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
        p.quanta = 2;
        return generateTrace(p, CoherenceOptions::none());
    }();
    return trace;
}

void
BM_MemSystemRead(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::base();
    MemorySystem mem(cfg);
    AccessContext ctx;
    ctx.os = true;
    Cycles now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 64) & 0xfffff;
        now = mem.read(0, 0x100000 + addr, now, ctx).completeAt;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSystemRead);

void
BM_MemSystemWrite(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::base();
    MemorySystem mem(cfg);
    AccessContext ctx;
    ctx.os = true;
    Cycles now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 64) & 0xfffff;
        now = mem.write(0, 0x200000 + addr, now, ctx).completeAt;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSystemWrite);

void
BM_DmaPageCopy(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::base();
    MemorySystem mem(cfg);
    BlockOp op;
    op.src = 0x100000;
    op.dst = 0x200000;
    op.size = 4096;
    op.kind = BlockOpKind::Copy;
    Cycles now = 0;
    for (auto _ : state) {
        now = mem.dmaBlockOp(0, op, now);
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DmaPageCopy);

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    p.quanta = unsigned(state.range(0));
    std::size_t records = 0;
    for (auto _ : state) {
        const Trace trace = generateTrace(p, CoherenceOptions::none());
        records = trace.totalRecords();
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(std::int64_t(records) * state.iterations());
}
BENCHMARK(BM_TraceGeneration)->Arg(1)->Arg(4);

void
BM_TraceReplay(benchmark::State &state)
{
    const Trace &trace = cachedTinyTrace();
    SimOptions opts =
        WorkloadProfile::forKind(WorkloadKind::Trfd4).simOptions();
    opts.checkCoherence = false;
    for (auto _ : state) {
        const RunResult run =
            runOnce(trace, MachineConfig::base(), opts, BlockScheme::Base);
        benchmark::DoNotOptimize(run.stats.osMissTotal());
    }
    state.SetItemsProcessed(std::int64_t(trace.totalRecords()) *
                            state.iterations());
}
BENCHMARK(BM_TraceReplay);

void
BM_HotspotRewrite(benchmark::State &state)
{
    const Trace &trace = cachedTinyTrace();
    HotspotPlan plan;
    plan.hotBlocks = {103, 110, 204};
    for (auto _ : state) {
        const Trace rewritten = insertPrefetches(trace, plan);
        benchmark::DoNotOptimize(rewritten.totalRecords());
    }
    state.SetItemsProcessed(std::int64_t(trace.totalRecords()) *
                            state.iterations());
}
BENCHMARK(BM_HotspotRewrite);

/**
 * End-to-end cost of one experiment cell per workload: the cold cell
 * pays trace generation, warm cells replay the cached trace.  These
 * are the numbers that size an oscache-bench campaign, so they are
 * emitted machine-readable alongside the microbenchmarks.
 */
std::string
workloadTimingsJson(double &total_ms)
{
    std::ostringstream js;
    js << "[";
    bool first = true;
    for (WorkloadKind kind : allWorkloads) {
        clearTraceCache();
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        runWorkload(kind, SystemKind::Base);
        const auto t1 = clock::now();
        runWorkload(kind, SystemKind::BlkDma);
        const auto t2 = clock::now();
        const double cold_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double warm_ms =
            std::chrono::duration<double, std::milli>(t2 - t1).count();
        total_ms += cold_ms + warm_ms;
        js << (first ? "" : ",") << "\n    {\"workload\":\""
           << toString(kind) << "\",\"cold_cell_ms\":" << cold_ms
           << ",\"warm_cell_ms\":" << warm_ms << ",\"cells_per_sec\":"
           << (warm_ms > 0.0 ? 1000.0 / warm_ms : 0.0) << "}";
        first = false;
    }
    js << "\n  ]";
    return js.str();
}

/**
 * Replay throughput of the engine on the four full-workload traces —
 * the accesses/sec numbers the perf regression gate tracks.  Each
 * workload is replayed twice on the bare engine (no observer; the
 * production fast path), twice with the coherence checker attached
 * (the default experiment-cell configuration), and twice observed:
 * the checker plus a metrics and profiler hub, as `oscache-bench
 * --metrics` runs a cell.  The faster of each pair is reported, so one
 * scheduling hiccup cannot fail the gate.
 *
 * Each workload's trace is also generated twice into per-processor
 * sinks that are emptied after every quantum, as SynthTraceSource
 * consumes the generator, and the faster time is reported as gen_ms:
 * the generator's own cost, without a whole-trace vector's growth.
 * The gate does not read it.
 */
std::string
replayThroughputJson()
{
    std::ostringstream js;
    js << "[";
    bool first = true;
    for (WorkloadKind kind : allWorkloads) {
        WorkloadProfile p = WorkloadProfile::forKind(kind);
        const Trace trace = generateTrace(p, CoherenceOptions::none());
        const SimOptions opts = p.simOptions();
        std::uint64_t accesses = 0;

        // Times the replay and the hub's report; assembly and the
        // checker's final audit stay outside the window.
        const auto replay_once = [&](bool checked, bool observed) {
            SimOptions run_opts = opts;
            run_opts.checkCoherence = checked;
            run_opts.obs.metrics = observed;
            run_opts.obs.profiler = observed;
            MaterializedTraceSource source(trace);
            RunAssembly run(source, MachineConfig::base(), run_opts,
                            BlockScheme::Base);
            using clock = std::chrono::steady_clock;
            const auto t0 = clock::now();
            run.engine().run();
            run.finishObservers();
            const auto t1 = clock::now();
            const SimStats stats = run.finish().stats;
            accesses = stats.totalReads() + stats.userWrites +
                       stats.osWrites;
            return std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        };

        const double bare_ms =
            std::min(replay_once(false, false), replay_once(false, false));
        const double checked_ms =
            std::min(replay_once(true, false), replay_once(true, false));
        const double observed_ms =
            std::min(replay_once(true, true), replay_once(true, true));

        const auto generate_once = [&] {
            using clock = std::chrono::steady_clock;
            const auto t0 = clock::now();
            TraceGenerator gen(p, CoherenceOptions::none());
            std::vector<RecordStream> sinks(gen.numCpus());
            std::vector<RecordStream *> sink_ptrs;
            for (RecordStream &sink : sinks)
                sink_ptrs.push_back(&sink);
            while (!gen.done()) {
                gen.nextQuantum(sink_ptrs);
                for (RecordStream &sink : sinks)
                    sink.clear();
            }
            return std::chrono::duration<double, std::milli>(
                       clock::now() - t0)
                .count();
        };
        const double gen_ms = std::min(generate_once(), generate_once());
        const std::uint64_t records = trace.totalRecords();
        const auto per_sec = [](std::uint64_t n, double ms) {
            return ms > 0.0 ? double(n) * 1000.0 / ms : 0.0;
        };
        js << (first ? "" : ",") << "\n    {\"workload\":\""
           << toString(kind) << "\",\"records\":" << records
           << ",\"accesses\":" << accesses
           << ",\"bare_ms\":" << bare_ms
           << ",\"accesses_per_sec\":" << per_sec(accesses, bare_ms)
           << ",\"records_per_sec\":" << per_sec(records, bare_ms)
           << ",\"checked_ms\":" << checked_ms
           << ",\"checked_accesses_per_sec\":"
           << per_sec(accesses, checked_ms)
           << ",\"observed_ms\":" << observed_ms
           << ",\"observed_accesses_per_sec\":"
           << per_sec(accesses, observed_ms) << ",\"gen_ms\":" << gen_ms
           << ",\"gen_records_per_sec\":" << per_sec(records, gen_ms)
           << "}";
        first = false;
    }
    js << "\n  ]";
    return js.str();
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--version") {
            std::printf("%s\n", versionString().c_str());
            return 0;
        }
    }

    const char *out_path = std::getenv("OSCACHE_BENCH_PERF_OUT");
    if (out_path == nullptr)
        out_path = "BENCH_perf.json";

    // Route the microbenchmark results through the library's JSON
    // file reporter (console display stays) so they can be embedded.
    const std::string micro_path = std::string(out_path) + ".micro";
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=" + micro_path;
    std::string fmt_flag = "--benchmark_out_format=json";
    bool user_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            user_out = true;
    if (!user_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int bargc = int(args.size());
    benchmark::Initialize(&bargc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();

    std::string micro_json = "{}";
    if (!user_out) {
        std::ifstream micro_in(micro_path);
        if (micro_in) {
            std::ostringstream buf;
            buf << micro_in.rdbuf();
            micro_json = buf.str();
        }
        std::remove(micro_path.c_str());
    }

    double total_ms = 0.0;
    const std::string workloads = workloadTimingsJson(total_ms);
    const std::string replay = replayThroughputJson();

    std::ofstream out(out_path, std::ios::out | std::ios::trunc);
    out << "{\n  \"workloads\": " << workloads
        << ",\n  \"workload_total_ms\": " << total_ms
        << ",\n  \"replay\": " << replay
        << ",\n  \"micro\": " << micro_json << "}\n";
    std::printf("wrote %s (end-to-end: %.0f ms across %zu workloads)\n",
                out_path, total_ms, std::size(allWorkloads));

    benchmark::Shutdown();
    return 0;
}
