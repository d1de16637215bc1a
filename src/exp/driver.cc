#include "exp/driver.hh"

#include <sys/resource.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/parallel.hh"
#include "exp/hash.hh"
#include "exp/results.hh"
#include "obs/timeline.hh"

namespace oscache
{

namespace
{

/** One deduplicated scheduling unit and the cells it satisfies. */
struct Unit
{
    /** (experiment index, cell) pairs; the first is the computer. */
    std::vector<std::pair<std::size_t, const CellSpec *>> cells;
};

/** Process high-water RSS in KiB, as reported by the kernel. */
long
peakRssKb()
{
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return usage.ru_maxrss;
}

} // namespace

DriverReport
runExperiments(const std::vector<const Experiment *> &experiments,
               const DriverOptions &options)
{
    DriverReport report;
    report.experiments.resize(experiments.size());
    for (std::size_t e = 0; e < experiments.size(); ++e)
        report.experiments[e].experiment = experiments[e];

    TraceCache &cache =
        options.cache != nullptr ? *options.cache : defaultTraceCache();
    RunContext ctx;
    ctx.samplePlan = options.samplePlan;
    ctx.obs = options.obs;
    ctx.stream = options.stream;
    ctx.traces = &cache;
    const TraceCacheStats entry = cache.stats();

    std::unique_ptr<ResultsSink> sink;
    if (!options.resultsBase.empty())
        sink = std::make_unique<ResultsSink>(options.resultsBase);

    // Deduplicate cells into scheduling units by shared key.
    std::vector<Unit> units;
    std::map<std::string, std::size_t> byKey;
    for (std::size_t e = 0; e < experiments.size(); ++e) {
        for (const CellSpec &cell : experiments[e]->cells) {
            if (options.smoke && cell.id != experiments[e]->smokeCell)
                continue;
            if (!cell.sharedKey.empty()) {
                const auto [it, fresh] =
                    byKey.emplace(cell.sharedKey, units.size());
                if (!fresh) {
                    units[it->second].cells.emplace_back(e, &cell);
                    continue;
                }
            }
            units.emplace_back().cells.emplace_back(e, &cell);
        }
    }

    std::mutex mutex; // Guards the report, the sink, and the timeline.
    const auto run_start = std::chrono::steady_clock::now();
    parallelFor(options.jobs, units.size(), [&](std::size_t u,
                                                unsigned worker) {
        const Unit &unit = units[u];
        const CellSpec &rep = *unit.cells.front().second;
        std::string label =
            experiments[unit.cells.front().first]->name + ":" + rep.id;
        if (unit.cells.size() > 1)
            label += " (x" + std::to_string(unit.cells.size()) + ")";

        const auto start = std::chrono::steady_clock::now();
        const CellOutcome outcome = runCell(rep, ctx);
        const auto end = std::chrono::steady_clock::now();
        const double wall_ms =
            std::chrono::duration<double, std::milli>(end - start).count();
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (options.timeline != nullptr) {
                const auto us = [&run_start](const auto &tp) {
                    return std::uint64_t(
                        std::chrono::duration_cast<std::chrono::microseconds>(
                            tp - run_start)
                            .count());
                };
                options.timeline->span(options.timeline->intern(label),
                                       "cell", us(start), us(end), worker);
            }
            report.cellsRun += 1;
            report.cellsShared += unsigned(unit.cells.size()) - 1;
            report.totalCellMs += wall_ms;
            bool computer = true;
            for (const auto &[e, spec] : unit.cells) {
                auto &slot = report.experiments[e].outcomes[spec->id];
                slot = outcome;
                if (sink) {
                    ContentHash mh;
                    mixMachine(mh, spec->machine);
                    ResultRow row;
                    row.experiment = experiments[e]->name;
                    row.cell = spec->id;
                    row.workload = toString(spec->workload);
                    row.system = toString(spec->system);
                    row.machineHash = mh.hex();
                    row.wallMs = computer ? wall_ms : 0.0;
                    row.shared = !computer;
                    row.traceMode = slot.run.traceMode;
                    row.peakRssKb = peakRssKb();
                    row.canonical = options.canonicalResults;
                    row.outcome = &slot;
                    sink->record(row);
                }
                computer = false;
            }
        }
        if (options.progress)
            options.progress(label);
        return true;
    });

    if (!options.smoke) {
        for (ExperimentReport &out : report.experiments) {
            if (!out.experiment->render)
                continue;
            std::ostringstream os;
            out.experiment->render(CellLookup(out.outcomes), os);
            out.rendered = os.str();
        }
    }
    report.traceStats = cache.stats() - entry;
    return report;
}

} // namespace oscache
