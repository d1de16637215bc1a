/**
 * @file
 * oscache-prof — the observability front-end: run one workload with
 * the src/obs collectors attached and present what they saw.
 *
 *   oscache-prof --workload shell --hotspots
 *   oscache-prof --workload trfd4 --metrics --bus
 *   oscache-prof --workload shell --timeline trace.json
 *
 * --hotspots prints the miss-attribution profiler's ranked hot-spot
 * table (the paper's Section 6 selection, mechanized) and
 * cross-checks it against the simulation engine's own per-block miss
 * counts: the line "hot-spot cross-check: AGREE" certifies that the
 * observability pipeline reproduces the hand-coded analysis.
 *
 * --timeline writes Chrome trace_event JSON loadable in
 * chrome://tracing or https://ui.perfetto.dev (1 cycle = 1 us).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "common/flags.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "core/hotspot/hotspot.hh"
#include "core/runner.hh"
#include "synth/generator.hh"
#include "synth/stream_source.hh"

using namespace oscache;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache-prof [options]\n"
        "\n"
        "Run one workload with the observability subsystem attached.\n"
        "With none of --hotspots/--metrics/--bus/--timeline, all\n"
        "text sections are enabled.\n"
        "\n"
        "options:\n"
        "  --workload <name>   trfd4 | trfd+make | arc2d+fsck | shell |\n"
        "                      a server mix such as syscallstorm\n"
        "                      (required)\n"
        "  --system <name>     base (default) | blk_* | bcoh_* | bcpref\n"
        "  --quanta <n>        scheduling quanta to synthesize\n"
        "  --seed <n>          workload random seed\n"
        "  --hotspots          miss-attribution profile + ranked\n"
        "                      hot-spot table + engine cross-check\n"
        "  --metrics           metrics registry snapshot\n"
        "  --bus               windowed bus occupancy and write-buffer\n"
        "                      depth\n"
        "  --timeline <file>   write Chrome trace_event JSON\n"
        "  --window <cycles>   bus/buffer window width (default 10000)\n"
        "  --sample <n>        keep every n-th timeline event "
        "(default 1)\n"
        "  --top <n>           hot spots to rank (default 12)\n"
        "  --stream            feed the collectors through streaming\n"
        "                      cursors (generation overlaps the run)\n"
        "  --version           print build identification and exit\n");
}

struct Args
{
    std::optional<WorkloadKind> workload;
    SystemKind system = SystemKind::Base;
    std::optional<unsigned> quanta;
    std::optional<std::uint64_t> seed;
    bool hotspots = false;
    bool metrics = false;
    bool bus = false;
    std::string timelineFile;
    Cycles window = 10'000;
    std::uint32_t sample = 1;
    unsigned top = paperHotspotCount;
    bool stream = false;
};

Args
parse(int argc, char **argv)
{
    Args args;
    FlagReader flags(argc, argv);
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
        } else if (flag == "--quanta") {
            args.quanta = flags.number<unsigned>();
        } else if (flag == "--seed") {
            args.seed = flags.number<std::uint64_t>();
        } else if (flag == "--hotspots") {
            args.hotspots = true;
        } else if (flag == "--metrics") {
            args.metrics = true;
        } else if (flag == "--bus") {
            args.bus = true;
        } else if (flag == "--timeline") {
            args.timelineFile = flags.value();
        } else if (flag == "--window") {
            args.window = flags.number<Cycles>(1);
        } else if (flag == "--sample") {
            args.sample = flags.number<std::uint32_t>(1);
        } else if (flag == "--top") {
            args.top = flags.number<unsigned>();
        } else if (flag == "--stream") {
            args.stream = true;
        } else if (flag == "--version") {
            std::printf("%s\n", versionString().c_str());
            std::exit(0);
        } else if (flag == "--help" || flag == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            fatal("unknown flag '", flag, "'");
        }
    }
    // Bare invocation: show everything printable.
    if (!args.hotspots && !args.metrics && !args.bus &&
        args.timelineFile.empty()) {
        args.hotspots = true;
        args.metrics = true;
        args.bus = true;
    }
    return args;
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

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (!args.workload)
        fatal("--workload is required (try --help)");

    WorkloadProfile profile = WorkloadProfile::forKind(*args.workload);
    if (args.quanta)
        profile.quanta = *args.quanta;
    if (args.seed)
        profile.seed = *args.seed;

    const SystemSetup setup = SystemSetup::forKind(args.system);

    SimOptions opts = profile.simOptions();
    opts.obs.profiler = args.hotspots;
    opts.obs.metrics = args.metrics;
    opts.obs.busWindows = args.bus;
    opts.obs.timeline = !args.timelineFile.empty();
    opts.obs.samplePeriod = args.sample;
    opts.obs.windowCycles = args.window;

    RunResult result;
    if (args.stream) {
        result = runOnSource(
            [&profile, &setup]() -> std::unique_ptr<TraceSource> {
                return std::make_unique<SynthTraceSource>(profile,
                                                          setup.coherence);
            },
            MachineConfig::base(), opts, setup);
    } else {
        const Trace trace = generateTrace(profile, setup.coherence);
        result = runOnTrace(trace, MachineConfig::base(), opts, setup);
    }
    if (result.obs == nullptr)
        fatal("observability report missing (nothing was enabled?)");
    const ObsReport &obs = *result.obs;

    std::printf("== %s on %s (%llu cycles) ==\n", profile.name,
                toString(args.system),
                (unsigned long long)result.stats.totalTime());

    if (args.hotspots) {
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

    if (args.metrics) {
        std::printf("\n--- metrics ---\n");
        obs.metrics.render(std::cout);
        std::cout.flush();
    }

    if (args.bus) {
        std::printf("\n--- bus / write-buffer windows (%llu cycles "
                    "each) ---\n",
                    (unsigned long long)obs.windowCycles);
        printBusWindows(obs);
    }

    if (!args.timelineFile.empty()) {
        std::ofstream os(args.timelineFile);
        if (!os)
            fatal("cannot open '", args.timelineFile, "' for writing");
        obs.timeline.writeChromeTrace(os);
        std::printf("\ntimeline: %zu events (%llu dropped) -> %s\n",
                    obs.timeline.size(),
                    (unsigned long long)obs.timeline.dropped(),
                    args.timelineFile.c_str());
    }
    return 0;
}
