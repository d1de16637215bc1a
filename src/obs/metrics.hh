/**
 * @file
 * Metrics registry: named counters, gauges, and log-bucketed
 * histograms with a lock-free per-thread write path.
 *
 * The registry serves metrics that several threads write: the
 * process-wide counters (processMetrics(), e.g. the shared trace
 * cache) and the serve daemon's fleet counters.  A simulation run is
 * one thread, so its hub keeps plain per-run fields instead and
 * produces the same MetricsSnapshot shape (see obs/hub.hh).
 *
 * Components register metrics once, up front, and receive small
 * handle objects; recording through a handle touches only the calling
 * thread's shard (a flat array of relaxed atomics reached via
 * thread-local lookup), so concurrent writers never contend.
 * snapshot() merges all shards into an order-independent,
 * deterministic summary: counters and histogram buckets add, gauges
 * resolve by a registry-wide version clock, histogram percentiles
 * (p50/p90/p99) are interpolated linearly inside their power-of-two
 * bucket.
 *
 * Registration must finish before the first record: the shard layout
 * is frozen when the first shard is created, which keeps the write
 * path free of bounds rechecks and locks.  Re-registering an existing
 * name returns the same handle, so independent components can share a
 * metric by name.
 *
 * Snapshots taken while writers are still recording see a consistent
 * per-slot (but not cross-slot) view; the intended use is one
 * snapshot after the run quiesces.
 */

#ifndef OSCACHE_OBS_METRICS_HH
#define OSCACHE_OBS_METRICS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace oscache
{

class MetricsRegistry;

/** Number of log2 buckets per histogram (bucket 0 holds zeros). */
inline constexpr std::size_t numHistogramBuckets = 40;

/** Bucket index of @p value: 0 for 0, else floor(log2)+1, saturated. */
constexpr std::size_t
histogramBucketIndex(std::uint64_t value)
{
    return std::min<std::size_t>(std::bit_width(value),
                                 numHistogramBuckets - 1);
}

/** Inclusive lower bound of bucket @p index (0, 1, 2, 4, 8, ...). */
constexpr std::uint64_t
histogramBucketLow(std::size_t index)
{
    return index == 0 ? 0 : std::uint64_t{1} << (index - 1);
}

/** Exclusive upper bound of bucket @p index (last bucket saturates). */
constexpr std::uint64_t
histogramBucketHigh(std::size_t index)
{
    return index == 0 ? 1 : std::uint64_t{1} << index;
}

/** Handle to a named monotonic counter. */
class Counter
{
  public:
    Counter() = default;
    void add(std::uint64_t delta = 1) const;
    bool valid() const { return registry != nullptr; }

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *r, std::size_t i) : registry(r), index(i) {}
    MetricsRegistry *registry = nullptr;
    std::size_t index = 0;
};

/** Handle to a named last-value gauge. */
class Gauge
{
  public:
    Gauge() = default;
    void set(double value) const;
    bool valid() const { return registry != nullptr; }

  private:
    friend class MetricsRegistry;
    Gauge(MetricsRegistry *r, std::size_t i) : registry(r), index(i) {}
    MetricsRegistry *registry = nullptr;
    std::size_t index = 0;
};

/** Handle to a named log-bucketed histogram. */
class Histogram
{
  public:
    Histogram() = default;
    void record(std::uint64_t value) const;
    bool valid() const { return registry != nullptr; }

  private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry *r, std::size_t i) : registry(r), index(i) {}
    MetricsRegistry *registry = nullptr;
    std::size_t index = 0;
};

/** Point-in-time value of one counter. */
struct CounterSnapshot
{
    std::string name;
    std::uint64_t value = 0;
};

/** Point-in-time value of one gauge. */
struct GaugeSnapshot
{
    std::string name;
    double value = 0.0;
    /** False when the gauge was never set. */
    bool assigned = false;
};

/** Merged summary of one histogram. */
struct HistogramSnapshot
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, numHistogramBuckets> buckets{};

    /**
     * Add one sample.  The single-writer form of Histogram::record,
     * for a collector that one thread owns (an ObsHub keeps its
     * per-run histograms this way and hands them out as they are).
     */
    void
    record(std::uint64_t value)
    {
        ++buckets[histogramBucketIndex(value)];
        if (count == 0 || value < min)
            min = value;
        max = std::max(max, value);
        ++count;
        sum += value;
    }

    /**
     * The @p p-th percentile (0..100), linearly interpolated inside
     * the containing bucket, clamped to the observed [min, max].
     */
    double percentile(double p) const;

    double mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }
};

/** Everything a registry held at snapshot time, sorted by name. */
struct MetricsSnapshot
{
    std::vector<CounterSnapshot> counters;
    std::vector<GaugeSnapshot> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** Human-readable table (deterministic; used by tests to diff). */
    void render(std::ostream &os) const;
};

/**
 * The registry.  Handles remain valid for the registry's lifetime
 * only.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** @name Registration (before the first record; idempotent) @{ */
    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);
    Histogram histogram(const std::string &name);
    /** @} */

    /** Merge all thread shards into one deterministic snapshot. */
    MetricsSnapshot snapshot() const;

  private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;

    struct GaugeCell
    {
        std::atomic<std::uint64_t> bits{0};
        std::atomic<std::uint64_t> version{0};
    };

    struct HistogramCell
    {
        std::array<std::atomic<std::uint64_t>, numHistogramBuckets>
            buckets{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> min{~std::uint64_t{0}};
        std::atomic<std::uint64_t> max{0};
    };

    /** One thread's private copy of every slot. */
    struct Shard
    {
        Shard(std::size_t counters, std::size_t gauges,
              std::size_t histograms);
        std::vector<std::atomic<std::uint64_t>> counters;
        std::vector<GaugeCell> gauges;
        std::vector<HistogramCell> histograms;
        /** Set by ~MetricsRegistry so stale TLS entries self-purge. */
        std::atomic<bool> retired{false};
    };

    /** This thread's shard, created (and layout frozen) on demand. */
    Shard &localShard() const;

    /** Registration guard: panics once recording has started. */
    void checkOpen(const char *what) const;

    const std::uint64_t serial;
    std::vector<std::string> counterNames;
    std::vector<std::string> gaugeNames;
    std::vector<std::string> histogramNames;
    /** Version clock ordering gauge writes across shards. */
    mutable std::atomic<std::uint64_t> gaugeClock{0};
    mutable std::mutex shardMutex;
    mutable std::vector<std::shared_ptr<Shard>> shards;
    mutable std::atomic<bool> frozen{false};
};

/**
 * The process-wide registry for long-lived counters that outlast any
 * single simulation run (e.g. the shared trace cache's hit/miss/
 * eviction counts).  Register all handles on first use — the layout
 * freezes at the first record, like any registry.
 */
MetricsRegistry &processMetrics();

} // namespace oscache

#endif // OSCACHE_OBS_METRICS_HH
