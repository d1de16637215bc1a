/**
 * @file
 * The run assembly: the one way to build a simulated machine for a
 * trace and replay it.  RunAssembly builds the memory system, attaches
 * the coherence checker and observability hub the SimOptions ask for
 * (plus at most one caller tap), builds the block scheme's executor
 * and the System, and ends every pass the same way.  runOnSource()
 * layers the two-phase hot-spot prefetch methodology on top: profile,
 * select the top blocks, then re-run through a PrefetchStreamSource
 * that rewrites the trace as it replays.  runOnTrace() is runOnSource()
 * over a materialized trace.
 *
 * Note that a SystemSetup's coherence options act at trace-generation
 * time (they are kernel-layout changes); the caller must have
 * generated the trace with the matching CoherenceOptions.
 */

#ifndef OSCACHE_CORE_RUNNER_HH
#define OSCACHE_CORE_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/hotspot/hotspot.hh"
#include "core/system_config.hh"
#include "mem/config.hh"
#include "obs/hub.hh"
#include "sim/options.hh"
#include "sim/stats.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace oscache
{

class BlockOpExecutor;
class CoherenceChecker;
class MemEventObserver;
class MemorySystem;
class System;

namespace sample
{
struct SampleReport;
} // namespace sample

/**
 * Bus-level results copied out of the memory system after a run.  On
 * a flat (single-socket) machine the fields describe the one snooping
 * bus and every NUMA field stays zero; on a multi-socket machine the
 * per-kind totals aggregate across the socket buses and the link is
 * reported separately.
 */
struct BusSnapshot
{
    std::uint64_t totalBytes = 0;
    std::uint64_t totalTransactions = 0;
    std::uint64_t busyCycles = 0;
    std::uint64_t fillBytes = 0;
    std::uint64_t writebackBytes = 0;
    std::uint64_t invalidateTransactions = 0;
    std::uint64_t updateTransactions = 0;
    std::uint64_t updateBytes = 0;
    std::uint64_t dmaBytes = 0;

    /** @name Two-level interconnect (zero on a flat machine) @{ */
    /** Sockets simulated; 0 means the flat single-bus machine. */
    std::uint64_t numSockets = 0;
    std::uint64_t linkTransactions = 0;
    std::uint64_t linkBytes = 0;
    std::uint64_t linkBusyCycles = 0;
    /** Snoop broadcasts the home directory kept socket-local. */
    std::uint64_t snoopsFiltered = 0;
    /** Snoop broadcasts forwarded across the link. */
    std::uint64_t snoopsForwarded = 0;
    /** Line reads serviced by the requester's own home memory. */
    std::uint64_t localHomeReads = 0;
    /** Line reads that paid the remote-home penalty. */
    std::uint64_t remoteHomeReads = 0;
    /** @} */

    bool operator==(const BusSnapshot &) const = default;
};

/** The bus-level results of @p mem's buses so far. */
BusSnapshot busSnapshot(const MemorySystem &mem);

/** Everything one simulation run produces. */
struct RunResult
{
    SimStats stats;
    BusSnapshot bus;
    /** The hot-spot plan used, when hotspot prefetching was on. */
    HotspotPlan hotspots;
    /** Fraction of profiled other-misses the hot spots covered. */
    double hotspotCoverage = 0.0;
    /**
     * Observability report; null unless the effective ObsOptions
     * (run-level merged with the process-wide default) enabled
     * something.  For two-phase hot-spot runs this is the report of
     * the final (prefetching) pass.
     */
    std::shared_ptr<const ObsReport> obs;
    /**
     * Sampling report with per-metric confidence intervals; null for
     * full (unsampled) runs.  Set by sample::runSampled (src/sample).
     */
    std::shared_ptr<const sample::SampleReport> sample;
    /** TraceSource::mode() of the source replayed. */
    std::string traceMode = "materialized";
};

/**
 * Wraps a pass's scheme executor (Table 3's census, Table 4's
 * deferred copies): receives the executor built for the block scheme
 * and returns the one the engine drives.
 */
using ExecutorWrap = std::function<std::unique_ptr<BlockOpExecutor>(
    std::unique_ptr<BlockOpExecutor> scheme_executor, MemorySystem &mem,
    SimStats &stats)>;

/**
 * One simulation pass, assembled: the memory system for @p machine,
 * the coherence checker (options.checkCoherence) and observability
 * hub (options.obs merged with the process-wide default) attached to
 * it, the executor for @p scheme (optionally wrapped), and the System
 * replaying @p source.
 *
 * Most callers want runOnce().  Callers that drive the engine
 * themselves (sampled replay ticks, resumes and checkpoints) or add a
 * tap (the dft differ, the verif extractor) construct one, use
 * memory() and engine(), and end the pass with finish().
 */
class RunAssembly
{
  public:
    RunAssembly(TraceSource &source, const MachineConfig &machine,
                const SimOptions &options, BlockScheme scheme,
                const ExecutorWrap &wrap = {});
    ~RunAssembly();

    RunAssembly(const RunAssembly &) = delete;
    RunAssembly &operator=(const RunAssembly &) = delete;

    /**
     * Attach @p tap beside the checker and hub, replacing an earlier
     * tap.  Call before the run starts.
     */
    void attachTap(MemEventObserver &tap);

    MemorySystem &memory() { return *mem; }
    System &engine() { return *system; }
    /** The statistics sink the executor and engine record into. */
    SimStats &stats() { return result.stats; }
    /** The observability hub; null when no observation was asked for. */
    ObsHub *hub() { return obsHub.get(); }
    /** The coherence checker; null when checking is off. */
    CoherenceChecker *checker() { return check.get(); }

    /** Replay the whole source, then finish(). */
    RunResult run();

    /**
     * Freeze the hub's report.  finish() does it first; calling it
     * earlier lets a timer stop before the full audit.
     */
    void finishObservers();

    /**
     * End the pass: finishObservers(), the checker's full audit
     * (panics on a violation), the bus snapshot, and the source's
     * trace mode.  The assembly is spent afterwards.
     */
    RunResult finish();

  private:
    TraceSource &source;
    RunResult result;
    std::unique_ptr<MemorySystem> mem;
    std::unique_ptr<CoherenceChecker> check;
    std::unique_ptr<ObsHub> obsHub;
    std::unique_ptr<BlockOpExecutor> executor;
    std::unique_ptr<System> system;
};

/** One plain pass (no hot-spot rewriting) of @p source. */
RunResult runOnce(TraceSource &source, const MachineConfig &machine,
                  const SimOptions &options, BlockScheme scheme,
                  const ExecutorWrap &wrap = {});

/** As above, replaying a materialized trace. */
RunResult runOnce(const Trace &trace, const MachineConfig &machine,
                  const SimOptions &options, BlockScheme scheme,
                  const ExecutorWrap &wrap = {});

/** Opens a fresh TraceSource over the same underlying trace. */
using TraceSourceFactory =
    std::function<std::unique_ptr<TraceSource>()>;

/**
 * Run the trace @p open serves on the machine described by
 * @p machine under @p setup's block scheme (and hot-spot pass, if
 * enabled).  @p open is invoked once per simulation pass — twice
 * under the two-phase hot-spot methodology, whose second pass wraps
 * the fresh source in a PrefetchStreamSource — because streamed
 * cursors are consumed by a single pass.
 */
RunResult runOnSource(const TraceSourceFactory &open,
                      const MachineConfig &machine,
                      const SimOptions &options, const SystemSetup &setup);

/** runOnSource() over MaterializedTraceSources of @p trace. */
RunResult runOnTrace(const Trace &trace, const MachineConfig &machine,
                     const SimOptions &options, const SystemSetup &setup);

/** Number of hot spots the paper selects (Section 6). */
inline constexpr unsigned paperHotspotCount = 12;

} // namespace oscache

#endif // OSCACHE_CORE_RUNNER_HH
