/**
 * @file
 * oscache — command-line driver for the simulator.
 *
 * Examples:
 *   oscache run --workload trfd4 --system bcpref
 *   oscache run --workload shell --system base --l1-size 16384
 *   oscache run --workload shell --hotspots --timeline shell.json
 *   oscache generate --workload arc2d+fsck --out shell.trace
 *   oscache replay --trace shell.trace --system blk_dma --metrics
 *   oscache list
 *
 * The input decides how records reach the engine: a synthesized
 * workload streams from the generator, a chunked trace file streams
 * through file cursors, and a text trace file is read once.  The
 * results are the same either way.
 *
 * The observer flags attach the src/obs collectors and print their
 * sections after the statistics.  --hotspots prints the
 * miss-attribution profiler's ranked hot-spot table (the paper's
 * Section 6 selection, mechanized) and cross-checks it against the
 * engine's own per-block miss counts: the line "hot-spot
 * cross-check: AGREE" certifies that the observability pipeline
 * reproduces the hand-coded analysis.  --timeline writes Chrome
 * trace_event JSON loadable in chrome://tracing or
 * https://ui.perfetto.dev (1 cycle = 1 us).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/version.hh"
#include "core/hotspot/hotspot.hh"
#include "core/runner.hh"
#include "synth/generator.hh"
#include "synth/stream_source.hh"
#include "trace/io.hh"
#include "trace/source.hh"

using namespace oscache;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache <command> [options]\n"
        "\n"
        "commands:\n"
        "  run       synthesize a workload and simulate one system\n"
        "  generate  synthesize a workload and write the trace to disk\n"
        "  replay    simulate a saved trace\n"
        "  list      list workloads and systems\n"
        "\n"
        "options:\n"
        "  --workload <name>    trfd4 | trfd+make | arc2d+fsck | shell |\n"
        "                       a server mix such as syscallstorm\n"
        "  --system <name>      base | blk_pref | blk_bypass | blk_bypref\n"
        "                       | blk_dma | bcoh_reloc | bcoh_relup |"
        " bcpref\n"
        "  --l1-size <bytes>    primary data cache size (default 32768)\n"
        "  --l1-line <bytes>    primary line size (default 16)\n"
        "  --l2-size <bytes>    secondary cache size (default 262144)\n"
        "  --l2-line <bytes>    secondary line size (default 32)\n"
        "  --quanta <n>         scheduling quanta to synthesize\n"
        "  --seed <n>           workload random seed\n"
        "  --icache             model the instruction cache in detail\n"
        "  --trace <file>       trace file (replay)\n"
        "  --out <file>         output trace file (generate)\n"
        "  --format <f>         generate output format: text | chunked\n"
        "                       (chunked streams to disk, and replay\n"
        "                       reads it back, with bounded memory)\n"
        "\n"
        "observer options (run, replay; printed after the statistics):\n"
        "  --hotspots           miss-attribution profile + ranked\n"
        "                       hot-spot table + engine cross-check\n"
        "  --metrics            metrics snapshot\n"
        "  --bus                windowed bus occupancy and write-buffer\n"
        "                       depth\n"
        "  --timeline <file>    write Chrome trace_event JSON\n"
        "  --window <cycles>    bus/buffer window width (default 10000)\n"
        "  --sample <n>         keep every n-th timeline event "
        "(default 1)\n"
        "  --top <n>            hot spots to rank (default 12)\n");
}

struct Args
{
    std::string command;
    std::optional<WorkloadKind> workload;
    SystemKind system = SystemKind::Base;
    MachineConfig machine = MachineConfig::base();
    std::optional<unsigned> quanta;
    std::optional<std::uint64_t> seed;
    bool icache = false;
    std::string traceFile;
    std::string outFile;
    TraceFormat format = TraceFormat::Text;
    ObsOptions obs;
    std::string timelineFile;
    unsigned top = paperHotspotCount;
};

Args
parse(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        fatal("missing command; try 'oscache list'");
    args.command = argv[1];
    FlagReader flags(argc, argv, 2);
    while (flags.next()) {
        const std::string &flag = flags.flag();
        if (flag == "--workload") {
            const std::string name = flags.value();
            const auto kind = parseWorkloadKind(name);
            if (!kind)
                fatal("unknown workload '", name, "'");
            args.workload = *kind;
        } else if (flag == "--system") {
            const std::string name = flags.value();
            const auto kind = parseSystemKind(name);
            if (!kind)
                fatal("unknown system '", name, "'");
            args.system = *kind;
        } else if (flag == "--l1-size") {
            args.machine.l1Size = flags.number<std::uint32_t>();
        } else if (flag == "--l1-line") {
            args.machine.l1LineSize = flags.number<std::uint32_t>();
        } else if (flag == "--l2-size") {
            args.machine.l2Size = flags.number<std::uint32_t>();
        } else if (flag == "--l2-line") {
            args.machine.l2LineSize = flags.number<std::uint32_t>();
        } else if (flag == "--quanta") {
            args.quanta = flags.number<unsigned>();
        } else if (flag == "--seed") {
            args.seed = flags.number<std::uint64_t>();
        } else if (flag == "--icache") {
            args.icache = true;
        } else if (flag == "--trace") {
            args.traceFile = flags.value();
        } else if (flag == "--out") {
            args.outFile = flags.value();
        } else if (flag == "--format") {
            const std::string name = flags.value();
            if (name == "text")
                args.format = TraceFormat::Text;
            else if (name == "chunked")
                args.format = TraceFormat::Chunked;
            else
                fatal("unknown format '", name, "' (text or chunked)");
        } else if (flag == "--hotspots") {
            args.obs.profiler = true;
        } else if (flag == "--metrics") {
            args.obs.metrics = true;
        } else if (flag == "--bus") {
            args.obs.busWindows = true;
        } else if (flag == "--timeline") {
            args.timelineFile = flags.value();
            args.obs.timeline = true;
        } else if (flag == "--window") {
            args.obs.windowCycles = flags.number<Cycles>(1);
        } else if (flag == "--sample") {
            args.obs.samplePeriod = flags.number<std::uint32_t>(1);
        } else if (flag == "--top") {
            args.top = flags.number<unsigned>();
        } else if (flag == "--version") {
            std::printf("%s\n", versionString().c_str());
            std::exit(0);
        } else if (flag == "--help" || flag == "-h") {
            usage();
            std::exit(0);
        } else {
            fatal("unknown flag '", flag, "'");
        }
    }
    return args;
}

WorkloadProfile
profileFor(const Args &args)
{
    if (!args.workload)
        fatal("--workload is required");
    WorkloadProfile p = WorkloadProfile::forKind(*args.workload);
    if (args.quanta)
        p.quanta = *args.quanta;
    if (args.seed)
        p.seed = *args.seed;
    return p;
}

void
report(const SimStats &s, const BusSnapshot *bus)
{
    const double total = double(s.totalTime());
    std::printf("time:   user %.1f%%  idle %.1f%%  os %.1f%%\n",
                100.0 * s.userTime() / total, 100.0 * s.idle / total,
                100.0 * s.osTime() / total);
    std::printf("os:     exec %llu  imiss %llu  dread %llu  dwrite %llu  "
                "pref %llu  sync %llu cycles\n",
                (unsigned long long)s.osExec,
                (unsigned long long)s.osImiss,
                (unsigned long long)s.osReadStall,
                (unsigned long long)s.osWriteStall,
                (unsigned long long)s.osPrefStall,
                (unsigned long long)s.osSpin);
    const double osm = double(s.osMissTotal());
    std::printf("misses: os %llu (block %.1f%%, coherence %.1f%%, other "
                "%.1f%%), user %llu\n",
                (unsigned long long)s.osMissTotal(),
                osm ? 100.0 * s.osMissBlock / osm : 0.0,
                osm ? 100.0 * s.osMissCoherenceTotal() / osm : 0.0,
                osm ? 100.0 * s.osMissOther / osm : 0.0,
                (unsigned long long)s.userMisses);
    std::printf("rate:   %.2f%% of %llu data reads\n",
                100.0 * s.totalMisses() / double(s.totalReads()),
                (unsigned long long)s.totalReads());
    if (bus != nullptr)
        std::printf("bus:    %llu transactions, %llu bytes, busy %llu "
                    "cycles\n",
                    (unsigned long long)bus->totalTransactions,
                    (unsigned long long)bus->totalBytes,
                    (unsigned long long)bus->busyCycles);
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0)
        std::printf("memory: peak rss %ld KB\n", (long)usage.ru_maxrss);
}

void
printBusWindows(const ObsReport &obs)
{
    std::printf("window  start-cycle  bus-util  txns  wb-depth(avg)\n");
    const std::size_t rows = std::max(obs.busOccupancy.size(),
                                      obs.writeBufferDepth.size());
    for (std::size_t i = 0; i < rows; ++i) {
        double util = 0.0;
        std::uint64_t txns = 0;
        if (i < obs.busOccupancy.size()) {
            util = double(obs.busOccupancy[i].sum) /
                   double(obs.windowCycles);
            txns = obs.busOccupancy[i].samples;
        }
        double depth = 0.0;
        if (i < obs.writeBufferDepth.size() &&
            obs.writeBufferDepth[i].samples != 0)
            depth = double(obs.writeBufferDepth[i].sum) /
                    double(obs.writeBufferDepth[i].samples);
        std::printf("%-7zu %-12llu %7.1f%%  %-5llu %.2f\n", i,
                    (unsigned long long)(i * obs.windowCycles),
                    100.0 * util, (unsigned long long)txns, depth);
    }
    if (rows == 0)
        std::printf("(no bus activity recorded)\n");
}

/** The section of each observer @p args attached, in a fixed order. */
void
reportObservers(const Args &args, const RunResult &result)
{
    if (!result.obs)
        return;
    const ObsReport &obs = *result.obs;
    if (args.obs.profiler) {
        std::printf("\n--- miss attribution by data category ---\n");
        obs.profiler.renderCategories(std::cout);
        std::printf("\n--- hot spots (top %u by OS conflict misses) "
                    "---\n",
                    args.top);
        obs.profiler.renderHotspots(std::cout, args.top);
        std::cout.flush();
        // The load-bearing line: the profiler's independent event
        // pipeline must select the same blocks as the engine's stats.
        hotspotCrossCheck(result.stats, obs.profiler.otherMissByBb(),
                          args.top, &std::cout);
        std::cout.flush();
    }
    if (args.obs.metrics) {
        std::printf("\n--- metrics ---\n");
        obs.metrics.render(std::cout);
        std::cout.flush();
    }
    if (args.obs.busWindows) {
        std::printf("\n--- bus / write-buffer windows (%llu cycles "
                    "each) ---\n",
                    (unsigned long long)obs.windowCycles);
        printBusWindows(obs);
    }
    if (args.obs.timeline) {
        std::ofstream os(args.timelineFile);
        if (!os)
            fatal("cannot open '", args.timelineFile, "' for writing");
        obs.timeline.writeChromeTrace(os);
        std::printf("\ntimeline: %zu events (%llu dropped) -> %s\n",
                    obs.timeline.size(),
                    (unsigned long long)obs.timeline.dropped(),
                    args.timelineFile.c_str());
    }
}

/** Replay @p open's trace under @p options and print the outcome. */
int
simulate(const char *name, const TraceSourceFactory &open,
         const MachineConfig &machine, SimOptions options,
         const Args &args)
{
    options.modelICache = args.icache;
    options.obs = args.obs;
    const RunResult result = runOnSource(
        open, machine, options, SystemSetup::forKind(args.system));
    std::printf("== %s on %s ==\n", name, toString(args.system));
    report(result.stats, &result.bus);
    reportObservers(args, result);
    return 0;
}

int
cmdRun(const Args &args)
{
    const WorkloadProfile profile = profileFor(args);
    const CoherenceOptions coherence =
        SystemSetup::forKind(args.system).coherence;
    return simulate(
        profile.name,
        [&profile, &coherence]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<SynthTraceSource>(profile, coherence);
        },
        args.machine, profile.simOptions(), args);
}

int
cmdGenerate(const Args &args)
{
    if (args.outFile.empty())
        fatal("generate needs --out <file>");
    const WorkloadProfile profile = profileFor(args);
    const SystemSetup setup = SystemSetup::forKind(args.system);
    if (args.format == TraceFormat::Chunked) {
        // Chunked output streams one quantum at a time to disk; the
        // whole trace is never resident.
        std::ofstream os(args.outFile,
                         std::ios::out | std::ios::binary | std::ios::trunc);
        if (!os)
            fatal("cannot open '", args.outFile, "' for writing");
        TraceGenerator gen(profile, setup.coherence);
        ChunkedTraceWriter writer(os, gen.numCpus(), gen.updatePages());
        std::vector<RecordStream> chunk(gen.numCpus());
        std::vector<RecordStream *> sinks;
        for (RecordStream &s : chunk)
            sinks.push_back(&s);
        std::size_t records = 0;
        while (!gen.done()) {
            gen.nextQuantum(sinks);
            for (unsigned c = 0; c < gen.numCpus(); ++c) {
                records += chunk[c].size();
                writer.writeChunk(c, chunk[c]);
                chunk[c].clear();
            }
        }
        writer.finish(gen.blockOps());
        if (!os)
            fatal("error writing '", args.outFile, "'");
        std::printf("streamed %zu records (%zu block ops) to %s\n",
                    records, gen.blockOps().size(), args.outFile.c_str());
        return 0;
    }
    const Trace trace = generateTrace(profile, setup.coherence);
    writeTraceFile(args.outFile, trace, args.format);
    std::printf("wrote %zu records (%zu block ops) to %s\n",
                trace.totalRecords(), trace.blockOps().size(),
                args.outFile.c_str());
    return 0;
}

int
cmdReplay(const Args &args)
{
    if (args.traceFile.empty())
        fatal("replay needs --trace <file>");
    const TraceSourceFactory open = openTraceFile(args.traceFile);
    MachineConfig machine = args.machine;
    machine.numCpus = open()->numCpus();
    return simulate(args.traceFile.c_str(), open, machine, SimOptions{},
                    args);
}

int
cmdList()
{
    // Names match ignoring case, with or without their '_'/'+'.
    std::printf("workloads:\n");
    for (WorkloadKind kind : allWorkloads)
        std::printf("  %s\n", toString(kind));
    for (WorkloadKind kind : serverWorkloads)
        std::printf("  %s (server mix)\n", toString(kind));
    std::printf("systems:\n");
    for (SystemKind kind : allSystems)
        std::printf("  %s\n", toString(kind));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (args.command == "--version") {
        std::printf("%s\n", versionString().c_str());
        return 0;
    }
    if (args.command == "run")
        return cmdRun(args);
    if (args.command == "generate")
        return cmdGenerate(args);
    if (args.command == "replay")
        return cmdReplay(args);
    if (args.command == "list")
        return cmdList();
    usage();
    fatal("unknown command '", args.command, "'");
}
