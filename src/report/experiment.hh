/**
 * @file
 * High-level experiment driver behind the registry's cells:
 * generate (and cache) the synthetic trace a named system needs,
 * run it, and return the results.
 *
 * How a run replays (sampled or in full, observed or not, from the
 * trace cache or through streaming cursors) is a RunContext value the
 * caller passes down, so concurrent runs in one process can differ in
 * any of it.  The in-process trace cache is the one piece of process
 * state: it memoizes traces by content key, so every run may share it.
 * It is concurrency-safe: any number of threads may call
 * runWorkload() at once (the parallel experiment scheduler in src/exp
 * does exactly that) and each distinct (workload, coherence-options)
 * trace is generated exactly once — later requesters block on a
 * per-key generation latch instead of duplicating the work.  An
 * optional persistence hook lets a disk-backed artifact cache sit
 * underneath the in-memory one.
 */

#ifndef OSCACHE_REPORT_EXPERIMENT_HH
#define OSCACHE_REPORT_EXPERIMENT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/runner.hh"
#include "core/system_config.hh"
#include "mem/config.hh"
#include "obs/options.hh"
#include "sample/plan.hh"
#include "synth/profile.hh"
#include "trace/source.hh"

namespace oscache
{

/**
 * Opens a streamed source for (workload, options, cpu count), or
 * nullptr to fall back to on-demand synthesis.
 */
using TraceSourceHook = std::function<std::unique_ptr<TraceSource>(
    WorkloadKind, const CoherenceOptions &, unsigned)>;

/**
 * How one run replays its cells, beyond each cell's own workload,
 * system and machine.  runExperiments() builds one per call and hands
 * it to every cell.  The default replays the cached materialized
 * trace in full, unobserved.
 */
struct RunContext
{
    /**
     * Replay under this sampling plan instead of in full.
     * Hot-spot-prefetch systems are exempt: their profile pass needs
     * complete per-block miss counts, which sampling decimates.
     */
    std::optional<sample::SamplingPlan> samplePlan;
    /** Observers every pass attaches (SimOptions::obs). */
    ObsOptions obs;
    /**
     * Pull records through streaming cursors instead of materializing
     * whole traces: from openStreamed when it offers a source, else
     * straight from the synthesizer.
     */
    bool stream = false;
    /** Under stream: opens each pass's source (e.g. a stored artifact). */
    TraceSourceHook openStreamed;

    /** @p profile's simulation options, observed as obs asks. */
    SimOptions simOptions(const WorkloadProfile &profile) const;
};

/**
 * Run @p workload on system @p kind over machine @p machine, as
 * @p ctx says.
 *
 * The trace is generated with the system's CoherenceOptions (the
 * layout-level part of the optimization) and replayed under the
 * system's block scheme and hot-spot pass.  Materialized traces are
 * cached per (workload, coherence-options) within the process.
 * Thread-safe.
 */
RunResult runWorkload(WorkloadKind workload, SystemKind kind,
                      const MachineConfig &machine = MachineConfig::base(),
                      const RunContext &ctx = {});

/** As above with an explicit setup (for ablations). */
RunResult runWorkload(WorkloadKind workload, const SystemSetup &setup,
                      const MachineConfig &machine = MachineConfig::base(),
                      const RunContext &ctx = {});

/**
 * The cached trace for (@p workload, @p options, @p num_cpus),
 * generating it (or loading it through the persistence hook) on
 * first use.  The returned pointer stays valid across
 * clearTraceCache(); holders keep the trace alive.  Thread-safe.
 */
std::shared_ptr<const Trace> cachedWorkloadTrace(
    WorkloadKind workload, const CoherenceOptions &options,
    unsigned num_cpus = 4);

/**
 * Drop all cached traces (used between parameter sweeps).
 *
 * Safe against concurrent runWorkload() calls: in-flight runs keep a
 * reference to their trace, and a generation that is still in
 * progress when the clear happens completes normally for everyone
 * already waiting on it.  No thread can observe a half-cleared map.
 */
void clearTraceCache();

/** @name Trace-cache observability and persistence @{ */

/** Counters describing where cached traces came from. */
struct TraceCacheStats
{
    /** Requests satisfied by the in-memory map (or its latches). */
    std::uint64_t memoryHits = 0;
    /** Traces loaded through the persistence hook. */
    std::uint64_t persistentHits = 0;
    /** Traces generated from scratch. */
    std::uint64_t generated = 0;
    /** Entries dropped by the LRU size cap. */
    std::uint64_t evictions = 0;

    /** The counts accrued since @p earlier, a snapshot taken before. */
    TraceCacheStats
    operator-(const TraceCacheStats &earlier) const
    {
        return {memoryHits - earlier.memoryHits,
                persistentHits - earlier.persistentHits,
                generated - earlier.generated,
                evictions - earlier.evictions};
    }
};

/**
 * Default in-memory trace-cache capacity.  Big enough that the
 * registered experiments never evict; small enough that a parameter
 * sweep over long traces cannot grow the process without bound.
 */
inline constexpr std::size_t defaultTraceCacheBytes =
    std::size_t{512} * 1024 * 1024;

/**
 * Cap the in-memory trace cache at @p bytes (approximate in-memory
 * footprint; 0 = unbounded).  When an insert pushes the total over
 * the cap, least-recently-used *completed* entries are dropped from
 * the map — holders of the shared_ptr keep their traces alive, and
 * in-flight generations are never evicted.  Thread-safe.
 */
void setTraceCacheCapacity(std::size_t bytes);

/** Current trace-cache capacity in bytes (0 = unbounded). */
std::size_t traceCacheCapacity();

/**
 * Current process-wide trace-cache counters.  They only grow; take
 * the difference of two snapshots to count one stretch of work.
 */
TraceCacheStats traceCacheStats();

/**
 * Loads a previously stored trace; nullopt means "not available".
 * The unsigned parameter is the cpu count the trace was generated
 * for — part of the key, since a trace schedules its processes over
 * a specific processor set.
 */
using TraceLoadHook =
    std::function<std::optional<Trace>(WorkloadKind,
                                       const CoherenceOptions &,
                                       unsigned)>;
/** Offers a freshly generated trace for storage. */
using TraceStoreHook = std::function<void(
    WorkloadKind, const CoherenceOptions &, unsigned, const Trace &)>;

/**
 * Install (or, with empty functions, remove) the persistence layer
 * consulted below the in-memory cache.  Not intended to be swapped
 * while runs are in flight; the experiment driver installs it once
 * at startup.
 */
void setTraceCacheHooks(TraceLoadHook load, TraceStoreHook store);

/** @} */

} // namespace oscache

#endif // OSCACHE_REPORT_EXPERIMENT_HH
