/**
 * @file
 * High-level experiment driver behind the registry's cells:
 * generate (and cache) the synthetic trace a named system needs,
 * run it, and return the results.
 *
 * How a run replays (sampled or in full, observed or not, from the
 * trace cache or through streaming cursors, and which trace cache) is
 * a RunContext value the caller passes down, so concurrent runs in
 * one process can differ in any of it.  Every pass of every cell gets
 * its trace through RunContext::open().
 *
 * A TraceCache memoizes traces by content key, each held as a
 * PackedTrace (trace/packed.hh) at a few bytes a record.  It is
 * concurrency-safe: any number of threads may ask it at once (the
 * parallel experiment scheduler in src/exp does exactly that) and
 * each distinct (profile, coherence-options, cpu-count) trace is
 * generated exactly once — later requesters block on a per-key
 * generation latch instead of duplicating the work.  Its hook set
 * lets a disk-backed artifact store sit underneath it.  The caller
 * owns a cache; a context without one uses defaultTraceCache().
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
#include "trace/packed.hh"
#include "trace/source.hh"

namespace oscache
{

/** Counters describing where a cache's traces came from. */
struct TraceCacheStats
{
    /** Requests satisfied by the in-memory map (or its latches). */
    std::uint64_t memoryHits = 0;
    /** Traces the load hook returned. */
    std::uint64_t persistentHits = 0;
    /** Traces generated from scratch. */
    std::uint64_t generated = 0;
    /** Entries dropped by the LRU size cap. */
    std::uint64_t evictions = 0;
    /** Streamed sources synthesized on demand. */
    std::uint64_t streamedSynthesized = 0;
    /** Streamed sources the open hook served from a stored artifact. */
    std::uint64_t streamedStored = 0;

    /** The counts accrued since @p earlier, a snapshot taken before. */
    TraceCacheStats
    operator-(const TraceCacheStats &earlier) const
    {
        return {memoryHits - earlier.memoryHits,
                persistentHits - earlier.persistentHits,
                generated - earlier.generated,
                evictions - earlier.evictions,
                streamedSynthesized - earlier.streamedSynthesized,
                streamedStored - earlier.streamedStored};
    }
};

/**
 * A trace cache's persistence seam, keyed like the cache by the
 * generation inputs: the workload profile, the coherence options
 * and the cpu count.  Any member may be empty.
 */
struct TraceCacheHooks
{
    /** The stored trace; nullopt means "not available". */
    std::function<std::optional<PackedTrace>(
        const WorkloadProfile &, const CoherenceOptions &, unsigned)>
        load;
    /** Offers a freshly generated trace for storage. */
    std::function<void(const WorkloadProfile &, const CoherenceOptions &,
                       unsigned, const PackedTrace &)>
        store;
    /**
     * A streamed source over the stored trace, or nullptr to fall
     * back to on-demand synthesis.
     */
    std::function<std::unique_ptr<TraceSource>(
        const WorkloadProfile &, const CoherenceOptions &, unsigned)>
        open;
};

/** A stored trace of a calibrated workload, for setTraceCacheHooks(). */
using TraceLoadHook = std::function<std::optional<Trace>(
    WorkloadKind, const CoherenceOptions &, unsigned)>;
/** Offers a freshly generated trace, for setTraceCacheHooks(). */
using TraceStoreHook = std::function<void(
    WorkloadKind, const CoherenceOptions &, unsigned, const PackedTrace &)>;

/**
 * Default in-memory trace-cache capacity, in packed bytes: the LRU
 * byte cap that keeps a sweep over many long traces from growing the
 * process without bound.
 */
inline constexpr std::size_t defaultTraceCacheBytes =
    std::size_t{512} * 1024 * 1024;

/**
 * In-memory cache of packed traces, with an LRU byte cap.
 *
 * No fill builds a whole 24-byte trace: a fresh one is generated
 * straight into blocks (generatePacked), a stored one is the load
 * hook's PackedTrace, and the map is keyed by traceKey().
 * When an insert pushes the held bytes (PackedTrace::bytes(), buffer
 * capacity) over the cap, least-recently-used *completed* entries are
 * dropped from the map (0 = unbounded).  Holders of a returned
 * shared_ptr keep their trace alive, and in-flight generations are
 * never evicted.  Thread-safe.
 */
class TraceCache
{
  public:
    explicit TraceCache(TraceCacheHooks hooks = {},
                        std::size_t capacity_bytes = defaultTraceCacheBytes);
    ~TraceCache();

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The trace of (@p profile, @p options, @p num_cpus): from the
     * map, else the load hook's, else generated (and offered to the
     * store hook).  The returned pointer stays valid across clear()
     * and eviction.
     */
    std::shared_ptr<const PackedTrace> trace(const WorkloadProfile &profile,
                                             const CoherenceOptions &options,
                                             unsigned num_cpus = 4);

    /**
     * A streamed source of the trace of (@p profile, @p options,
     * @p num_cpus), which the map never holds: the open hook's, else
     * a SynthTraceSource.  Counted in stats().
     */
    std::unique_ptr<TraceSource> stream(const WorkloadProfile &profile,
                                        const CoherenceOptions &options,
                                        unsigned num_cpus = 4);

    /**
     * Drop all cached traces (used between parameter sweeps).  Safe
     * against concurrent requests: in-flight runs keep a reference
     * to their trace, and a generation still in progress completes
     * normally for everyone already waiting on it.
     */
    void clear();

    /**
     * The counters so far.  They only grow; take the difference of
     * two snapshots to count one stretch of work.
     */
    TraceCacheStats stats() const;

    /** Bytes the map's completed traces hold, as the cap counts them. */
    std::size_t heldBytes() const;

    /** The most heldBytes() has been. */
    std::size_t peakBytes() const;

  private:
    struct State;

    friend void setTraceCacheHooks(TraceLoadHook load,
                                   TraceStoreHook store);

    const std::unique_ptr<State> state;
};

/**
 * The process's default cache: hookless, at the default capacity.
 * Contexts and driver calls that name no cache share it.
 */
TraceCache &defaultTraceCache();

/**
 * How one run replays its cells, beyond each cell's own workload,
 * system and machine.  runExperiments() builds one per call and hands
 * it to every cell.  The default replays defaultTraceCache()'s
 * packed traces in full, unobserved.
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
     * Pull records through streaming cursors instead of holding whole
     * traces: TraceCache::stream()'s source, the open hook's or else
     * straight from the synthesizer.
     */
    bool stream = false;
    /** Where traces come from; null means defaultTraceCache(). */
    TraceCache *traces = nullptr;

    /** @p profile's simulation options, observed as obs asks. */
    SimOptions simOptions(const WorkloadProfile &profile) const;

    /**
     * The sources of (@p profile, @p coherence, @p num_cpus), one per
     * pass.  By default each is a PackedTraceSource over the cache's
     * trace, looked up once here; under stream each is the cache's
     * streamed source.
     */
    TraceSourceFactory open(const WorkloadProfile &profile,
                            const CoherenceOptions &coherence,
                            unsigned num_cpus) const;
};

/**
 * Run @p workload on system @p kind over machine @p machine, as
 * @p ctx says.
 *
 * The trace is generated with the system's CoherenceOptions (the
 * layout-level part of the optimization) and replayed under the
 * system's block scheme and hot-spot pass.  Thread-safe.
 */
RunResult runWorkload(WorkloadKind workload, SystemKind kind,
                      const MachineConfig &machine = MachineConfig::base(),
                      const RunContext &ctx = {});

/** As above with an explicit setup (for ablations). */
RunResult runWorkload(WorkloadKind workload, const SystemSetup &setup,
                      const MachineConfig &machine = MachineConfig::base(),
                      const RunContext &ctx = {});

/**
 * As above, replaying the sources @p open serves instead of
 * ctx.open()'s.  They must serve @p workload's trace, generated under
 * @p setup's coherence options, for @p machine's cpu count; a caller
 * that wraps ctx.open() can keep the sources the passes read.
 */
RunResult runWorkload(const TraceSourceFactory &open, WorkloadKind workload,
                      const SystemSetup &setup, const MachineConfig &machine,
                      const RunContext &ctx);

/** @name Shims over defaultTraceCache() @{ */

/**
 * defaultTraceCache()'s trace of @p workload's calibrated profile,
 * decoded into a whole Trace.
 */
std::shared_ptr<const Trace> cachedWorkloadTrace(
    WorkloadKind workload, const CoherenceOptions &options,
    unsigned num_cpus = 4);

/** defaultTraceCache().clear(). */
void clearTraceCache();

/**
 * Replace defaultTraceCache()'s load and store hooks (empty functions
 * remove them) with these, called with the profile's workload kind,
 * which is exact for calibrated profiles.  The cache packs the whole
 * Trace a load hook returns and drops it at once.  Not while runs are
 * in flight.
 */
void setTraceCacheHooks(TraceLoadHook load, TraceStoreHook store);

/** @} */

} // namespace oscache

#endif // OSCACHE_REPORT_EXPERIMENT_HH
