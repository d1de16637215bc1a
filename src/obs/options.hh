/**
 * @file
 * Observability configuration.
 *
 * ObsOptions is a dependency-free POD embedded in SimOptions so any
 * caller of the runner can opt into observation without the sim layer
 * linking against src/obs.  Everything defaults to off: a run with
 * the default options attaches no hub, and the memory system pays
 * only a null-pointer/flag test per event.  The runner uses a run's
 * options as given; registry cells take theirs from the RunContext
 * (report/experiment.hh) that `oscache-bench --metrics` fills in.
 */

#ifndef OSCACHE_OBS_OPTIONS_HH
#define OSCACHE_OBS_OPTIONS_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace oscache
{

/** Opt-in switches and rates for the observability subsystem. */
struct ObsOptions
{
    /** Collect named counters, gauges and histograms (a MetricsSnapshot). */
    bool metrics = false;
    /** Record ring-buffered trace events (Chrome trace_event). */
    bool timeline = false;
    /** Build per-PC / per-category miss-attribution profiles. */
    bool profiler = false;
    /** Track windowed bus occupancy and write-buffer depth. */
    bool busWindows = false;

    /**
     * Record every Nth eligible timeline event (1 = all).  Misses,
     * invalidations, and prefetches are sampled; block-op and bus
     * spans are always recorded (they are rare and cheap).
     */
    std::uint32_t samplePeriod = 1;
    /** Ring capacity of the event timeline (oldest events drop). */
    std::size_t timelineCapacity = 1u << 16;
    /** Window length of the bus/write-buffer time series. */
    Cycles windowCycles = 10'000;

    /** True when any collector is enabled. */
    bool
    any() const
    {
        return metrics || timeline || profiler || busWindows;
    }
};

} // namespace oscache

#endif // OSCACHE_OBS_OPTIONS_HH
