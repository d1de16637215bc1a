/**
 * @file
 * oscache-sample — SMARTS-style sampled simulation driver.
 *
 * Examples:
 *   oscache-sample plan --plan period=100k,measure=2k,warmup=8k \
 *       --records 100m
 *   oscache-sample run --workload shell --system base \
 *       --plan period=100k,measure=2k,warmup=8k --compare-full
 *   oscache-sample checkpoint --workload shell --save shell.ckpt \
 *       --at 200k
 *   oscache-sample validate --checkpoint shell.ckpt --workload shell
 *
 * `run --compare-full` is the accuracy/speed harness: it replays the
 * same stream once in full and once sampled, then checks that every
 * sufficiently-frequent Table 2 metric's full-run total falls inside
 * the sampled estimate's 95% confidence interval, and reports the
 * wall-clock speedup.  `validate` is the resume-identity harness: a
 * straight-through sampled run and a checkpoint-resumed run must
 * produce bit-identical measured and warm statistics.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/version.hh"
#include "core/runner.hh"
#include "core/system_config.hh"
#include "sample/checkpoint.hh"
#include "sample/plan.hh"
#include "sample/run.hh"
#include "sample/stats.hh"
#include "synth/generator.hh"
#include "synth/stream_source.hh"
#include "trace/source.hh"

using namespace oscache;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache-sample <command> [options]\n"
        "\n"
        "commands:\n"
        "  plan        describe a sampling plan (windows, replayed\n"
        "              fraction, escalation ladder)\n"
        "  run         sampled replay of a workload or trace file\n"
        "  checkpoint  sampled replay that saves a live point\n"
        "  validate    resume a live point and check bit-identity\n"
        "              against a straight-through run\n"
        "\n"
        "options:\n"
        "  --plan <p>         sampling plan as key=value pairs\n"
        "                     (period, measure, warmup, error, rounds,\n"
        "                     spinbreak), e.g.\n"
        "                     period=100k,measure=2k,warmup=8k,error=0.05\n"
        "  --records <n>      stream length for 'plan' arithmetic\n"
        "  --workload <name>  trfd4 | trfd+make | arc2d+fsck | shell |\n"
        "                     a server mix such as syscallstorm\n"
        "  --system <name>    base | blk_pref | blk_bypass | blk_bypref\n"
        "                     | blk_dma | bcoh_reloc | bcoh_relup\n"
        "                     (bcpref's hot-spot profile pass needs\n"
        "                     complete miss counts; rejected)\n"
        "  --trace <file>     replay a saved trace instead of a workload\n"
        "  --quanta <n>       scheduling quanta to synthesize\n"
        "  --seed <n>         workload random seed\n"
        "  --compare-full     (run) also replay in full; check every\n"
        "                     frequent metric against the sampled CI\n"
        "                     and report the speedup\n"
        "  --json             (run) machine-readable one-line summary\n"
        "  --save <file>      (checkpoint) live-point output path\n"
        "  --at <n>           (checkpoint) take the live point once\n"
        "                     every cpu passed record n (0 = at end)\n"
        "  --checkpoint <f>   (validate) live point to resume\n");
}

struct Args
{
    std::string command;
    std::string planText = "period=100k,measure=2k,warmup=8k";
    std::uint64_t records = 0;
    std::optional<WorkloadKind> workload;
    SystemKind system = SystemKind::Base;
    std::optional<unsigned> quanta;
    std::optional<std::uint64_t> seed;
    std::string traceFile;
    bool compareFull = false;
    bool json = false;
    std::string savePath;
    std::uint64_t saveAt = 0;
    std::string checkpointPath;
};

Args
parse(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        fatal("missing command; try 'oscache-sample --help'");
    args.command = argv[1];
    FlagReader flags(argc, argv, 2);
    const auto count = [&flags] {
        return flags.parsed(sample::tryParseCount,
                            "a count such as 4096 or 100k");
    };
    while (flags.next()) {
        const std::string &flag = flags.flag();
        if (flag == "--plan") {
            args.planText = flags.value();
        } else if (flag == "--records") {
            args.records = count();
        } else if (flag == "--workload") {
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
            // Same exemption as sampled experiment cells.
            if (SystemSetup::forKind(*kind).hotspotPrefetch)
                fatal("system '", name, "' cannot be sampled: its "
                      "hot-spot profile pass needs complete per-block "
                      "miss counts, which sampling decimates");
            args.system = *kind;
        } else if (flag == "--quanta") {
            args.quanta = flags.number<unsigned>();
        } else if (flag == "--seed") {
            args.seed = flags.number<std::uint64_t>();
        } else if (flag == "--trace") {
            args.traceFile = flags.value();
        } else if (flag == "--compare-full") {
            args.compareFull = true;
        } else if (flag == "--json") {
            args.json = true;
        } else if (flag == "--save") {
            args.savePath = flags.value();
        } else if (flag == "--at") {
            args.saveAt = count();
        } else if (flag == "--checkpoint") {
            args.checkpointPath = flags.value();
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

/** The replay inputs shared by run/checkpoint/validate. */
struct Target
{
    TraceSourceFactory open;
    MachineConfig machine = MachineConfig::base();
    SimOptions options;
    SystemSetup setup;
    std::string label;
};

Target
targetFor(const Args &args)
{
    Target t;
    t.setup = SystemSetup::forKind(args.system);
    if (t.setup.hotspotPrefetch)
        fatal("hot-spot prefetch systems need complete profiles; "
              "sampled replay does not support them");
    if (!args.traceFile.empty()) {
        // Index-depth opens: structure is still validated, and each
        // record as a cursor decodes it, but multi-GB files are not
        // checksummed end-to-end on every open — that full read
        // would dwarf the sampled replay itself.  `oscache replay`
        // remains the fully-verifying path.
        const auto index = FileTraceSource::ScanDepth::Index;
        const FileTraceSource probe(args.traceFile, defaultStreamReadAhead,
                                    index);
        t.machine.numCpus = probe.numCpus();
        const std::string path = args.traceFile;
        t.open = [path, index]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<FileTraceSource>(
                path, defaultStreamReadAhead, index);
        };
        t.label = args.traceFile;
        return t;
    }
    if (!args.workload)
        fatal("need --workload or --trace");
    WorkloadProfile profile = WorkloadProfile::forKind(*args.workload);
    if (args.quanta)
        profile.quanta = *args.quanta;
    if (args.seed)
        profile.seed = *args.seed;
    t.options = profile.simOptions();
    const CoherenceOptions coherence = t.setup.coherence;
    {
        const SynthTraceSource probe(profile, coherence);
        t.machine.numCpus = probe.numCpus();
    }
    t.open = [profile, coherence]() -> std::unique_ptr<TraceSource> {
        return std::make_unique<SynthTraceSource>(profile, coherence);
    };
    t.label = profile.name;
    return t;
}

double
wallMs(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int
cmdPlan(const Args &args)
{
    sample::SamplingPlan plan = sample::SamplingPlan::parse(args.planText);
    if (!plan.valid())
        fatal("invalid plan: warmup + measure must fit in the period");
    std::printf("plan:       %s\n", plan.describe().c_str());
    std::printf("period:     %llu records (%llu warm-up + %llu measured "
                "+ %llu skipped)\n",
                (unsigned long long)plan.period,
                (unsigned long long)plan.warmup,
                (unsigned long long)plan.measure,
                (unsigned long long)(plan.period - plan.warmup -
                                     plan.measure));
    std::printf("replayed:   %.2f%% of the stream\n",
                100.0 * double(plan.warmup + plan.measure) /
                    double(plan.period));
    if (args.records > 0)
        std::printf("windows:    %llu over %llu records per cpu\n",
                    (unsigned long long)(args.records / plan.period),
                    (unsigned long long)args.records);
    if (plan.targetError > 0) {
        std::printf("target:     +/-%.1f%% at 95%% confidence, up to %u "
                    "rounds:\n",
                    100.0 * plan.targetError, plan.maxRounds);
        sample::SamplingPlan round = plan;
        for (unsigned r = 1; r <= plan.maxRounds; ++r) {
            std::printf("  round %u:  %s\n", r, round.describe().c_str());
            round = round.escalated();
        }
    }
    return 0;
}

/** Metrics checked by --compare-full (the Table 2 families). */
const sample::SampleMetric checkedMetrics[] = {
    sample::SampleMetric::OsReads,
    sample::SampleMetric::OsMissBlock,
    sample::SampleMetric::OsMissCoherence,
    sample::SampleMetric::OsMissOther,
    sample::SampleMetric::OsMissTotal,
    sample::SampleMetric::UserMisses,
};

/** Metrics with fewer full-run events than this are CI-checked only
 *  informationally; relative CIs on near-zero counts are noise. */
constexpr double ciCheckFloor = 100.0;

int
cmdRun(const Args &args)
{
    const Target t = targetFor(args);
    sample::SampleRunOptions opts;
    opts.plan = sample::SamplingPlan::parse(args.planText);

    const auto sampled_start = std::chrono::steady_clock::now();
    sample::SampleRunOutcome outcome = runSampled(
        t.open, t.machine, t.options, t.setup.blockScheme, opts);
    const double sampled_ms = wallMs(sampled_start);
    if (!outcome.ok)
        fatal("sampled run failed: ", outcome.error);
    const sample::SampleReport &report = *outcome.result.sample;

    RunResult full;
    double full_ms = 0;
    if (args.compareFull) {
        const auto full_start = std::chrono::steady_clock::now();
        full = runOnSource(t.open, t.machine, t.options, t.setup);
        full_ms = wallMs(full_start);
    }

    const double total = double(report.totalRecords);
    bool all_within = true;
    struct Checked
    {
        const char *name;
        double fullValue = 0, est = 0, half = 0;
        bool within = false, counted = false;
    };
    std::vector<Checked> checks;
    if (args.compareFull) {
        const sample::MetricVector actual =
            sample::metricsOf(full.stats);
        for (const sample::SampleMetric m : checkedMetrics) {
            const sample::MetricEstimate &est = report.of(m);
            Checked c;
            c.name = sample::toString(m);
            c.fullValue = actual[std::size_t(m)];
            c.est = est.estimateTotal(total);
            c.half = est.totalHalfwidth(total);
            c.within = std::fabs(c.est - c.fullValue) <= c.half;
            c.counted = c.fullValue >= ciCheckFloor;
            if (c.counted && !c.within)
                all_within = false;
            checks.push_back(c);
        }
    }

    if (args.json) {
        std::printf("{\"target\":\"%s\",\"system\":\"%s\","
                    "\"plan\":\"%s\",\"records\":%llu,"
                    "\"windows\":%zu,\"rounds\":%u,"
                    "\"replayed_frac\":%.6f,\"max_rel_err\":%.6f,"
                    "\"sync_breaks\":%llu,\"wall_ms_sampled\":%.1f",
                    t.label.c_str(), toString(args.system),
                    report.plan.describe().c_str(),
                    (unsigned long long)report.totalRecords,
                    report.windows.size(), report.rounds,
                    report.replayedFraction(), report.maxRelError(),
                    (unsigned long long)report.syncBreaks, sampled_ms);
        if (args.compareFull) {
            std::printf(",\"wall_ms_full\":%.1f,\"speedup\":%.2f,"
                        "\"all_within_ci\":%s,\"metrics\":{",
                        full_ms, full_ms / std::max(sampled_ms, 1e-9),
                        all_within ? "true" : "false");
            bool first = true;
            for (const Checked &c : checks) {
                std::printf("%s\"%s\":{\"full\":%.1f,\"est\":%.1f,"
                            "\"ci95\":%.1f,\"within\":%s}",
                            first ? "" : ",", c.name, c.fullValue, c.est,
                            c.half, c.within ? "true" : "false");
                first = false;
            }
            std::printf("}");
        }
        std::printf("}\n");
    } else {
        std::printf("== %s on %s, sampled ==\n", t.label.c_str(),
                    toString(args.system));
        std::ostringstream os;
        report.render(os);
        std::fputs(os.str().c_str(), stdout);
        std::printf("wall:       %.1f ms sampled\n", sampled_ms);
        if (args.compareFull) {
            std::printf("            %.1f ms full (%.1fx speedup)\n",
                        full_ms, full_ms / std::max(sampled_ms, 1e-9));
            std::printf("accuracy (full-run total vs sampled 95%% CI):\n");
            for (const Checked &c : checks)
                std::printf("  %-18s full %12.0f  est %12.0f +/- %10.0f"
                            "  %s%s\n",
                            c.name, c.fullValue, c.est, c.half,
                            c.within ? "within CI" : "OUTSIDE CI",
                            c.counted ? "" : " (low count, not scored)");
            std::printf("verdict: %s\n",
                        all_within ? "all frequent metrics within CI"
                                   : "CI MISS");
        }
    }
    return args.compareFull && !all_within ? 1 : 0;
}

int
cmdCheckpoint(const Args &args)
{
    if (args.savePath.empty())
        fatal("checkpoint needs --save <file>");
    const Target t = targetFor(args);
    sample::SampleRunOptions opts;
    opts.plan = sample::SamplingPlan::parse(args.planText);
    // Escalation would leave the saved live point belonging to a
    // superseded round; pin the plan for reproducible resumes.
    opts.plan.targetError = 0;
    opts.saveCheckpoint = args.savePath;
    opts.checkpointAfter = args.saveAt;

    sample::SampleRunOutcome outcome = runSampled(
        t.open, t.machine, t.options, t.setup.blockScheme, opts);
    if (!outcome.ok)
        fatal("checkpoint run failed: ", outcome.error);
    const sample::SampleReport &report = *outcome.result.sample;
    std::ifstream probe(args.savePath,
                        std::ios::in | std::ios::binary | std::ios::ate);
    const std::string taken =
        args.saveAt == 0 ? "at end of run"
                         : "after record " + std::to_string(args.saveAt);
    std::printf("== %s on %s, sampled + live point ==\n", t.label.c_str(),
                toString(args.system));
    std::printf("plan:       %s\n", report.plan.describe().c_str());
    std::printf("windows:    %zu before the live point\n",
                report.windows.size());
    std::printf("live point: %s (%lld bytes), taken %s\n",
                args.savePath.c_str(),
                probe ? (long long)probe.tellg() : -1LL, taken.c_str());
    return 0;
}

int
cmdValidate(const Args &args)
{
    if (args.checkpointPath.empty())
        fatal("validate needs --checkpoint <file>");
    const Target t = targetFor(args);

    // Peek at the header first: the stored plan drives the reference
    // run, and a corrupt file must fail cleanly here.
    sample::SamplingPlan plan;
    {
        std::ifstream is(args.checkpointPath,
                         std::ios::in | std::ios::binary);
        if (!is)
            fatal("cannot open '", args.checkpointPath, "'");
        sample::CheckpointReader reader(is);
        std::string why;
        if (!reader.readHeader(t.machine, &why)) {
            std::fprintf(stderr, "oscache-sample: %s: %s\n",
                         args.checkpointPath.c_str(), why.c_str());
            return 1;
        }
        plan = reader.plan();
    }

    // Resumed leg: continue the saved run to the end of the stream.
    sample::SampleRunOptions resume_opts;
    resume_opts.resumeCheckpoint = args.checkpointPath;
    sample::SampleRunOutcome resumed = runSampled(
        t.open, t.machine, t.options, t.setup.blockScheme, resume_opts);
    if (!resumed.ok) {
        std::fprintf(stderr, "oscache-sample: resume failed: %s\n",
                     resumed.error.c_str());
        return 1;
    }

    // Reference leg: the same plan straight through, no escalation.
    sample::SampleRunOptions ref_opts;
    ref_opts.plan = plan;
    ref_opts.plan.targetError = 0;
    sample::SampleRunOutcome reference = runSampled(
        t.open, t.machine, t.options, t.setup.blockScheme, ref_opts);
    if (!reference.ok)
        fatal("reference run failed: ", reference.error);

    const bool measured_same =
        resumed.result.stats == reference.result.stats;
    const bool warm_same = resumed.warmStats == reference.warmStats;
    const bool windows_same =
        resumed.result.sample->windows == reference.result.sample->windows;
    std::printf("== validate %s against %s on %s ==\n",
                args.checkpointPath.c_str(), t.label.c_str(),
                toString(args.system));
    std::printf("plan:       %s\n", plan.describe().c_str());
    std::printf("windows:    %zu resumed / %zu reference\n",
                resumed.result.sample->windows.size(),
                reference.result.sample->windows.size());
    std::printf("measured:   %s\n",
                measured_same ? "bit-identical" : "MISMATCH");
    std::printf("warm-up:    %s\n",
                warm_same ? "bit-identical" : "MISMATCH");
    std::printf("windows:    %s\n",
                windows_same ? "bit-identical" : "MISMATCH");
    return measured_same && warm_same && windows_same ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    if (args.command == "plan")
        return cmdPlan(args);
    if (args.command == "run")
        return cmdRun(args);
    if (args.command == "checkpoint")
        return cmdCheckpoint(args);
    if (args.command == "validate")
        return cmdValidate(args);
    usage();
    fatal("unknown command '", args.command, "'");
}
