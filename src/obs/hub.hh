/**
 * @file
 * The observability hub: one object that plugs per-run metrics, the
 * event timeline, the miss profiler, and bus/buffer monitors into a
 * simulation run.
 *
 * ObsHub implements both observer interfaces of the memory system —
 * MemEventObserver (per-access, coherence, and block-operation
 * events) and BusProbe (per-grant bus events) — and feeds each event
 * to whichever components the run's ObsOptions enabled.  The runner
 * attaches it as one tap of the memory system's observer fan-out,
 * next to the coherence checker, and attach() puts it on every bus.
 *
 * A run is one thread, so the hub keeps its metrics as plain
 * single-writer fields and builds the MetricsSnapshot once, in
 * finish().  It does not count what the engine already counts
 * exactly: bus and link transactions, bytes and busy cycles are read
 * off the Bus counters (as deltas over the enabled windows), and the
 * wait-cycle totals are the wait histograms' sums.  What stays per
 * event is what only events carry: the stall, wait and depth
 * histograms, the mem.* counts, the timeline and the windowed series.
 *
 * When the run finishes, finish() freezes everything into an
 * immutable ObsReport that outlives the hub (RunResult carries it by
 * shared_ptr through the experiment scheduler's result plumbing).
 */

#ifndef OSCACHE_OBS_HUB_HH
#define OSCACHE_OBS_HUB_HH

#include <memory>
#include <vector>

#include "mem/bus.hh"
#include "mem/observer.hh"
#include "obs/busmon.hh"
#include "obs/metrics.hh"
#include "obs/options.hh"
#include "obs/profiler.hh"
#include "obs/timeline.hh"

namespace oscache
{

/** Immutable end-of-run observability artifact. */
struct ObsReport
{
    /** The (effective) options the run observed under. */
    ObsOptions options;

    /** The run's metrics; empty unless options.metrics. */
    MetricsSnapshot metrics;

    /** Miss-attribution tables; empty unless options.profiler. */
    MissProfiler profiler;

    /** @name Bus/buffer windows; empty unless options.busWindows @{ */
    Cycles windowCycles = 0;
    std::vector<WindowedSeries::Window> busOccupancy;
    std::vector<WindowedSeries::Window> writeBufferDepth;
    /** Inter-socket link occupancy; empty on a flat machine. */
    std::vector<WindowedSeries::Window> linkOccupancy;
    /** @} */

    /** The event ring; empty unless options.timeline. */
    Timeline timeline{0};
};

/**
 * The hub.  Construct with the run's options (SimOptions::obs),
 * attach() to the memory system, add it to the memory system's
 * observers, run, then call finish() exactly once.
 */
class ObsHub : public MemEventObserver, public BusProbe
{
  public:
    explicit ObsHub(const ObsOptions &options);

    /** The buses and the fan-out hold the hub's address. */
    ObsHub(const ObsHub &) = delete;
    ObsHub &operator=(const ObsHub &) = delete;

    /**
     * Observe @p mem: probe every bus it runs (the flat machine's
     * bus, or each socket bus plus the inter-socket link), take the
     * bus and link totals from those buses, and sample its write
     * buffers.  Call once, before the run starts.  The link metrics
     * exist only on a multi-socket machine, so flat snapshots carry
     * none.
     */
    void attach(MemorySystem &mem);

    /** @name MemEventObserver @{ */
    bool wantsAccessEvents() const override;
    void onAccess(const MemAccessEvent &event) override;
    void onBlockOp(CpuId cpu, const BlockOp &op, Cycles start,
                   Cycles end) override;
    void onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                        LineState to) override;
    void onL1Fill(CpuId cpu, Addr l1_line) override;
    void onL1Drop(CpuId cpu, Addr l1_line) override;
    /** @} */

    /** @name BusProbe @{ */
    void onBusAcquire(BusTxn kind, Cycles requested, Cycles grant,
                      Cycles occupancy, std::uint32_t bytes) override;
    /** @} */

    /**
     * Gate event intake.  While disabled, every observer callback
     * returns immediately and bus traffic goes uncounted, so a
     * sampled run can restrict metrics, timeline, and profiler
     * attribution to measured windows (the warm-up traffic would
     * otherwise drown them).  finish() is unaffected.
     */
    void setEnabled(bool on);

    /**
     * Freeze the run's observations into an immutable report.  The
     * hub is spent afterwards (its timeline has been moved out).
     */
    std::shared_ptr<const ObsReport> finish();

  private:
    /** Forwards the link Bus's grants to onLinkAcquire. */
    struct LinkTap : BusProbe
    {
        explicit LinkTap(ObsHub &h) : hub(h) {}
        void
        onBusAcquire(BusTxn kind, Cycles requested, Cycles grant,
                     Cycles occupancy, std::uint32_t bytes) override
        {
            hub.onLinkAcquire(kind, requested, grant, occupancy, bytes);
        }
        ObsHub &hub;
    };

    /** Transactions, bytes and busy cycles a set of buses carried. */
    struct Traffic
    {
        std::uint64_t txns = 0;
        std::uint64_t bytes = 0;
        std::uint64_t busyCycles = 0;
    };

    /** Link-grant intake (via LinkTap). */
    void onLinkAcquire(BusTxn kind, Cycles requested, Cycles grant,
                       Cycles occupancy, std::uint32_t bytes);

    /** True on every samplePeriod-th call (always true for period 1). */
    bool sampleTick();

    /** What the buses in @p of have carried so far. */
    static Traffic trafficOf(const std::vector<const Bus *> &of);

    /** @name Enabled-window bookkeeping of the bus counters @{ */
    void openWindow();
    void closeWindow();
    /** @} */

    /** The run's metrics as one snapshot (sorted by name). */
    MetricsSnapshot metricsSnapshot() const;

    ObsOptions opts;
    bool enabled = true;
    const MemorySystem *memsys = nullptr;
    Timeline timeline;
    MissProfiler profiler;
    WindowedSeries busOccupancy;
    WindowedSeries writeBufferDepth;
    WindowedSeries linkOccupancy;
    LinkTap linkTap{*this};

    /** The snooping buses observed (one flat bus, or one per socket). */
    std::vector<const Bus *> buses;
    /** The inter-socket link; empty on a flat machine. */
    std::vector<const Bus *> links;
    /** Bus and link totals when the current enabled window opened. */
    Traffic busAtOpen, linkAtOpen;
    /** Bus and link traffic summed over the closed enabled windows. */
    Traffic busSeen, linkSeen;

    /** Rolling event count driving samplePeriod decimation. */
    std::uint64_t sampleSeq = 0;

    /**
     * Grant time of the last bus transaction — the timestamp proxy
     * for coherence transitions, whose callback carries no cycle.
     */
    Cycles approxNow = 0;

    /** @name Per-run metrics (single writer) @{ */
    std::uint64_t reads = 0, writes = 0;
    std::uint64_t prefetchIssued = 0, prefetchDropped = 0;
    std::uint64_t missCoherence = 0, partiallyHidden = 0;
    std::uint64_t l1Fills = 0, l1Drops = 0, l2Invalidations = 0;
    /** Its count is mem.l1.read_miss. */
    HistogramSnapshot readStall{"mem.read.stall_cycles"};
    /** Its sum is bus.wait_cycles. */
    HistogramSnapshot busWait{"bus.wait"};
    /** Its sum is link.wait_cycles. */
    HistogramSnapshot linkWait{"link.wait"};
    /** Its count is blockop.count. */
    HistogramSnapshot blockOpCycles{"blockop.cycles"};
    HistogramSnapshot wbDepth{"wb.l2.depth"};
    GaugeSnapshot lastCycle{"sim.last_cycle"};
    /** @} */
};

} // namespace oscache

#endif // OSCACHE_OBS_HUB_HH
