/**
 * @file
 * High-level experiment driver behind the registry's cells:
 * generate (and cache) the synthetic trace a named system needs,
 * run it, and return the results.
 *
 * The in-process trace cache is concurrency-safe: any number of
 * threads may call runWorkload() at once (the parallel experiment
 * scheduler in src/exp does exactly that) and each distinct
 * (workload, coherence-options) trace is generated exactly once —
 * later requesters block on a per-key generation latch instead of
 * duplicating the work.  An optional persistence hook lets a
 * disk-backed artifact cache sit underneath the in-memory one.
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
#include "synth/profile.hh"
#include "trace/source.hh"

namespace oscache
{

/**
 * Run @p workload on system @p kind over machine @p machine.
 *
 * The trace is generated with the system's CoherenceOptions (the
 * layout-level part of the optimization) and replayed under the
 * system's block scheme and hot-spot pass.  Traces are cached per
 * (workload, coherence-options) within the process.  Thread-safe.
 */
RunResult runWorkload(WorkloadKind workload, SystemKind kind,
                      const MachineConfig &machine = MachineConfig::base());

/** As above with an explicit setup (for ablations). */
RunResult runWorkload(WorkloadKind workload, const SystemSetup &setup,
                      const MachineConfig &machine = MachineConfig::base());

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

/** Current process-wide trace-cache counters. */
TraceCacheStats traceCacheStats();

/** Reset the counters (cached traces themselves are kept). */
void resetTraceCacheStats();

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

/** @name Streamed trace sourcing @{ */

/** How runWorkload() obtains its records. */
enum class TraceSourceMode
{
    /** Generate (or load) the whole trace up front and cache it. */
    Materialized,
    /**
     * Pull records through streaming cursors — from the source hook
     * (e.g. a chunked artifact file) when it offers one, else
     * directly from the synthesizer — so no full trace is built and
     * peak memory is bounded by the cursor buffers.
     */
    Streamed,
};

/** Set the process-wide trace-source mode.  Thread-safe. */
void setTraceSourceMode(TraceSourceMode mode);

/**
 * Opens a streamed source for (workload, options, cpu count), or
 * nullptr to fall back to on-demand synthesis.  Invoked once per
 * simulation pass under TraceSourceMode::Streamed.
 */
using TraceSourceHook = std::function<std::unique_ptr<TraceSource>(
    WorkloadKind, const CoherenceOptions &, unsigned)>;

/** Install (or clear, with an empty function) the source hook. */
void setTraceSourceHook(TraceSourceHook hook);

/** @} */

} // namespace oscache

#endif // OSCACHE_REPORT_EXPERIMENT_HH
