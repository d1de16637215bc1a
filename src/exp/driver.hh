/**
 * @file
 * The experiment driver: takes a set of registry entries, fans their
 * cells out over parallelFor (common/parallel.hh), then renders.
 *
 * Scheduling unit is the *deduplicated* cell: cells from different
 * experiments carrying the same sharedKey (e.g. the Base runs that
 * five figures all need) become one unit whose outcome is shared.
 * Units start in registry order.  Once every unit has finished, the
 * calling thread renders each experiment in registry order, so the
 * output is deterministic regardless of completion order.
 */

#ifndef OSCACHE_EXP_DRIVER_HH
#define OSCACHE_EXP_DRIVER_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/registry.hh"
#include "report/experiment.hh"
#include "sample/plan.hh"

namespace oscache
{

class Timeline;

/** Knobs for one driver invocation. */
struct DriverOptions
{
    /**
     * Most units run at once: parallelFor's worker count, the calling
     * thread included (0 counts as 1).
     */
    unsigned jobs = 1;
    /** Run only each experiment's smoke cell; skip the renders. */
    bool smoke = false;
    /**
     * Where every pass of every cell gets its trace; null means
     * defaultTraceCache().  A cache built over a TraceStore's hooks
     * (traceStoreHooks) loads and stores its artifacts.
     */
    TraceCache *cache = nullptr;
    /**
     * Pull records through streaming cursors instead of materializing
     * whole traces: every pass synthesizes on demand, or streams the
     * chunked artifact the cache's open hook offers, so peak memory
     * is bounded by jobs x cursor buffers.
     */
    bool stream = false;
    /** Results sink base path ("x" -> x.jsonl + x.csv); empty = off. */
    std::string resultsBase;
    /**
     * Emit canonical result rows (run-to-run fields zeroed; see
     * ResultRow::canonical) — comparable byte-for-byte against any
     * other run of the same cells.
     */
    bool canonicalResults = false;
    /**
     * Replay every cell under this SMARTS-style sampling plan
     * instead of in full (hot-spot-prefetch cells excepted; they
     * need complete profiles).  Cells then carry a SampleReport and
     * the results sink emits confidence-interval columns.
     */
    std::optional<sample::SamplingPlan> samplePlan;
    /** Observers every pass of every cell attaches (--metrics). */
    ObsOptions obs;
    /**
     * Progress callback, called once per finished unit with a
     * human-readable label.  Invoked from worker threads; must be
     * thread-safe.  Empty = silent.
     */
    std::function<void(const std::string &)> progress;
    /**
     * Optional scheduler timeline: each finished cell is recorded as
     * a wall-clock span (microseconds since the driver started; the
     * lane is the parallelFor worker that ran it).  The driver serializes its record()
     * calls; the caller owns the object and exports it afterwards.
     */
    Timeline *timeline = nullptr;
};

/** One experiment's results. */
struct ExperimentReport
{
    const Experiment *experiment = nullptr;
    /** The rendered report text (empty in smoke mode). */
    std::string rendered;
    /** Outcome of every cell that ran, keyed by cell id. */
    std::map<std::string, CellOutcome> outcomes;
};

/** Everything one driver invocation produced. */
struct DriverReport
{
    /** Requested experiments, in registry order. */
    std::vector<ExperimentReport> experiments;
    /** Cells actually simulated. */
    unsigned cellsRun = 0;
    /** Cells satisfied by another cell's identical outcome. */
    unsigned cellsShared = 0;
    /** Sum of per-cell wall-clock (CPU work, not elapsed time). */
    double totalCellMs = 0.0;
    /**
     * The change in the options' trace cache's counters over the
     * call.  Calls sharing a cache while they run count each other's
     * traffic; calls on caches of their own count only their own.
     */
    TraceCacheStats traceStats;
};

/**
 * Run @p experiments under @p options and return the collected
 * outcomes and rendered reports.  Every cell runs under one
 * RunContext built from @p options (plan, observers, stream, trace
 * cache), so concurrent calls may differ in any of them.  When a
 * cell throws, units not yet started do not run, no experiment is
 * rendered, and the first failure is rethrown once the running
 * units have finished.
 */
DriverReport runExperiments(
    const std::vector<const Experiment *> &experiments,
    const DriverOptions &options);

} // namespace oscache

#endif // OSCACHE_EXP_DRIVER_HH
