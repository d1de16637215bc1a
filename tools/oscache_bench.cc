/**
 * @file
 * oscache-bench: the unified experiment driver.
 *
 * Runs any subset of the paper's figures, tables, and ablations
 * through the parallel scheduler in src/exp, sharing identical cells
 * across experiments, persisting generated traces in an on-disk
 * artifact cache, and streaming every completed cell into a
 * JSONL/CSV results sink.
 *
 *   oscache-bench --jobs 8 figure3 table2
 *   oscache-bench all
 *   oscache-bench --smoke --jobs 2 all
 *   oscache-bench --list
 */

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "exp/artifact_cache.hh"
#include "exp/driver.hh"
#include "exp/registry.hh"
#include "obs/timeline.hh"
#include "sample/plan.hh"

using namespace oscache;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache-bench [options] <experiment|group>...\n"
        "\n"
        "Experiments are registry names (--list shows each with its\n"
        "title): figure1..figure7, table1..table5, ablation_*,\n"
        "numa_server, extension_*, robustness_seeds, calibrate; or the\n"
        "groups figures, tables, ablations, numa, all.\n"
        "\n"
        "options:\n"
        "  --jobs N        worker threads (default 1)\n"
        "  --smoke         run one representative cell per experiment\n"
        "  --cache-dir D   trace artifact cache directory\n"
        "                  (default .oscache-artifacts)\n"
        "  --no-cache      disable the persistent trace cache\n"
        "  --stream        pull every cell's records through streaming\n"
        "                  cursors (bounded memory; synthesize on\n"
        "                  demand or replay chunked artifacts\n"
        "                  incrementally)\n"
        "  --results BASE  write BASE.jsonl and BASE.csv\n"
        "                  (default oscache_results; - disables)\n"
        "  --quiet         no per-cell progress lines\n"
        "  --metrics       collect per-cell metrics (src/obs) and fold\n"
        "                  them into the JSONL results\n"
        "  --canonical-results\n"
        "                  zero run-varying result fields (wall_ms,\n"
        "                  rss, trace_mode, shared) so the JSONL of\n"
        "                  two runs of the same cells is byte-comparable\n"
        "  --sample PLAN   replay cells under a SMARTS-style sampling\n"
        "                  plan (key=value pairs: period, measure,\n"
        "                  warmup, error, rounds, spinbreak; e.g.\n"
        "                  period=100k,measure=2k,warmup=8k,error=0.05)\n"
        "                  and report confidence intervals\n"
        "  --timeline F    write a Chrome trace of the scheduler's\n"
        "                  cell spans to F\n"
        "  --list          list the registered experiments and exit\n"
        "  --version       print build identification and exit\n");
}

void
listExperiments()
{
    std::printf("%-28s %-5s  %s\n", "name", "cells", "title");
    for (const Experiment &e : experimentRegistry())
        std::printf("%-28s %5zu  %s\n", e.name.c_str(), e.cells.size(),
                    e.title.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 1;
    bool smoke = false;
    bool quiet = false;
    bool metrics = false;
    bool stream = false;
    bool canonical = false;
    std::string timeline_file;
    std::string sample_plan;
    std::string cache_dir = ".oscache-artifacts";
    std::string results_base = "oscache_results";
    std::vector<std::string> names;

    FlagReader flags(argc, argv);
    while (flags.next()) {
        const std::string &arg = flags.flag();
        if (arg == "--jobs" || arg == "-j") {
            jobs = flags.number<unsigned>(1);
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--cache-dir") {
            cache_dir = flags.value();
        } else if (arg == "--no-cache") {
            cache_dir.clear();
        } else if (arg == "--stream") {
            stream = true;
        } else if (arg == "--results") {
            results_base = flags.value();
            if (results_base == "-")
                results_base.clear();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--metrics") {
            metrics = true;
        } else if (arg == "--canonical-results") {
            canonical = true;
        } else if (arg == "--sample") {
            sample_plan = flags.value();
        } else if (arg == "--timeline") {
            timeline_file = flags.value();
        } else if (arg == "--list") {
            listExperiments();
            return 0;
        } else if (arg == "--version") {
            std::printf("%s\n", versionString().c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            fatal("unknown option ", arg);
        } else {
            names.push_back(arg);
        }
    }

    if (names.empty()) {
        usage();
        return 1;
    }

    const std::vector<const Experiment *> selected =
        resolveExperiments(names);

    std::size_t total_cells = 0;
    for (const Experiment *e : selected)
        total_cells += smoke ? 1 : e->cells.size();
    std::printf("oscache-bench: %zu experiment%s, %zu cell%s, %u job%s%s\n",
                selected.size(), selected.size() == 1 ? "" : "s",
                total_cells, total_cells == 1 ? "" : "s", jobs,
                jobs == 1 ? "" : "s", smoke ? " (smoke)" : "");

    std::unique_ptr<TraceStore> store;
    if (!cache_dir.empty())
        store = std::make_unique<TraceStore>(cache_dir);
    TraceCache cache(store ? traceStoreHooks(*store) : TraceCacheHooks{});

    std::unique_ptr<Timeline> timeline;
    if (!timeline_file.empty())
        timeline = std::make_unique<Timeline>(std::size_t{1} << 16);

    DriverOptions options;
    options.jobs = jobs;
    options.smoke = smoke;
    options.cache = &cache;
    options.stream = stream;
    options.resultsBase = results_base;
    options.canonicalResults = canonical;
    options.obs.metrics = metrics;
    options.timeline = timeline.get();
    if (!sample_plan.empty())
        options.samplePlan = sample::SamplingPlan::parse(sample_plan);
    std::atomic<unsigned> done{0};
    if (!quiet)
        options.progress = [&done](const std::string &label) {
            std::printf("  [%u] %s\n", done.fetch_add(1) + 1,
                        label.c_str());
            std::fflush(stdout);
        };

    const DriverReport report = runExperiments(selected, options);

    for (const ExperimentReport &er : report.experiments) {
        if (er.rendered.empty())
            continue;
        std::printf("\n### %s: %s\n\n", er.experiment->name.c_str(),
                    er.experiment->title.c_str());
        std::fputs(er.rendered.c_str(), stdout);
    }

    std::printf("\n--- summary ---\n");
    std::printf("cells simulated: %u (+%u shared)\n", report.cellsRun,
                report.cellsShared);
    std::printf("cell cpu time:   %.1f s\n", report.totalCellMs / 1000.0);
    std::printf("trace source:    %s\n",
                stream ? "streamed cursors" : "materialized");
    if (!sample_plan.empty())
        std::printf("sampling:        %s\n",
                    options.samplePlan->describe().c_str());
    const TraceCacheStats &traces = report.traceStats;
    std::printf("traces:          %llu generated, %llu loaded from disk, "
                "%llu in-memory hits, %llu evicted\n",
                (unsigned long long)traces.generated,
                (unsigned long long)traces.persistentHits,
                (unsigned long long)traces.memoryHits,
                (unsigned long long)traces.evictions);
    std::printf("streamed:        %llu synthesized, %llu opened from disk\n",
                (unsigned long long)traces.streamedSynthesized,
                (unsigned long long)traces.streamedStored);
    std::printf("trace cache:     %.1f MB packed held, %.1f MB peak\n",
                double(cache.heldBytes()) / 1e6,
                double(cache.peakBytes()) / 1e6);
    if (store)
        std::printf("artifact cache:  %s (%llu hits, %llu misses, "
                    "%llu rejected)\n",
                    store->directory().c_str(),
                    (unsigned long long)store->hits(),
                    (unsigned long long)store->misses(),
                    (unsigned long long)store->rejected());
    if (!results_base.empty())
        std::printf("results:         %s.jsonl / %s.csv\n",
                    results_base.c_str(), results_base.c_str());
    if (timeline) {
        std::ofstream os(timeline_file);
        if (!os)
            fatal("cannot open '", timeline_file, "' for writing");
        timeline->writeChromeTrace(os, "oscache-bench");
        std::printf("timeline:        %zu cell spans -> %s\n",
                    timeline->size(), timeline_file.c_str());
    }
    return 0;
}
