#include "exp/driver.hh"

#include <sys/resource.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/log.hh"
#include "exp/artifact_cache.hh"
#include "exp/hash.hh"
#include "exp/pool.hh"
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

/** Uninstalls the persistence hooks even when a cell throws. */
struct HookGuard
{
    bool storeActive = false;
    ~HookGuard()
    {
        if (storeActive)
            installTraceStore(nullptr);
    }
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

    setTraceCacheCapacity(options.traceCacheBytes);

    RunContext ctx;
    ctx.samplePlan = options.samplePlan;
    ctx.obs = options.obs;
    ctx.stream = options.stream;
    HookGuard hooks;
    if (options.store != nullptr) {
        installTraceStore(options.store);
        hooks.storeActive = true;
        if (options.stream)
            ctx.openStreamed = streamFromStore(*options.store);
    }
    resetTraceCacheStats();

    std::unique_ptr<ResultsSink> sink;
    if (!options.resultsBase.empty())
        sink = std::make_unique<ResultsSink>(options.resultsBase);

    // Deduplicate cells into scheduling units by shared key.
    std::vector<std::unique_ptr<Unit>> units;
    std::map<std::string, Unit *> byKey;
    for (std::size_t e = 0; e < experiments.size(); ++e) {
        for (const CellSpec &cell : experiments[e]->cells) {
            if (options.smoke && cell.id != experiments[e]->smokeCell)
                continue;
            if (!cell.sharedKey.empty()) {
                const auto it = byKey.find(cell.sharedKey);
                if (it != byKey.end()) {
                    it->second->cells.emplace_back(e, &cell);
                    continue;
                }
            }
            units.push_back(std::make_unique<Unit>());
            units.back()->cells.emplace_back(e, &cell);
            if (!cell.sharedKey.empty())
                byKey.emplace(cell.sharedKey, units.back().get());
        }
    }

    std::mutex mutex; // Guards the report, the sink, and the timeline.
    const auto run_start = std::chrono::steady_clock::now();
    /** Worker-thread ids mapped to small timeline lanes. */
    std::map<std::thread::id, std::uint32_t> lanes;
    JobGraph graph;
    std::vector<std::vector<JobGraph::NodeId>> feeds(experiments.size());

    for (const auto &unit_ptr : units) {
        const Unit &unit = *unit_ptr;
        const CellSpec &rep = *unit.cells.front().second;
        std::string label =
            experiments[unit.cells.front().first]->name + ":" + rep.id;
        if (unit.cells.size() > 1)
            label += " (x" + std::to_string(unit.cells.size()) + ")";

        const JobGraph::NodeId node = graph.add(
            label,
            [&unit, &rep, &mutex, &report, &sink, &experiments, &options,
             &ctx, &run_start, &lanes, label] {
                const auto start = std::chrono::steady_clock::now();
                const CellOutcome outcome = runCell(rep, ctx);
                const double wall_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();

                std::lock_guard<std::mutex> lock(mutex);
                if (options.timeline != nullptr) {
                    const auto us = [&run_start](const auto &tp) {
                        return std::uint64_t(
                            std::chrono::duration_cast<
                                std::chrono::microseconds>(tp - run_start)
                                .count());
                    };
                    const auto lane =
                        lanes.emplace(std::this_thread::get_id(),
                                      std::uint32_t(lanes.size()))
                            .first->second;
                    options.timeline->span(
                        options.timeline->intern(label), "cell",
                        us(start), us(std::chrono::steady_clock::now()),
                        lane);
                }
                report.cellsRun += 1;
                report.cellsShared += unsigned(unit.cells.size()) - 1;
                report.totalCellMs += wall_ms;
                bool computer = true;
                for (const auto &[e, spec] : unit.cells) {
                    auto &slot =
                        report.experiments[e].outcomes[spec->id];
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
            });
        for (const auto &[e, spec] : unit.cells) {
            feeds[e].push_back(node);
            (void)spec;
        }
    }

    if (!options.smoke) {
        for (std::size_t e = 0; e < experiments.size(); ++e) {
            if (!experiments[e]->render)
                continue;
            const Experiment *exp = experiments[e];
            ExperimentReport *out = &report.experiments[e];
            graph.add("render:" + exp->name,
                      [exp, out] {
                          std::ostringstream os;
                          exp->render(CellLookup(out->outcomes), os);
                          out->rendered = os.str();
                      },
                      feeds[e]);
        }
    }

    graph.run(std::max(1u, options.jobs), options.progress);
    report.traceStats = traceCacheStats();
    return report;
}

} // namespace oscache
