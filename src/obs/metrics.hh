/**
 * @file
 * Metric snapshots: named counters, gauges, and log-bucketed
 * histograms.
 *
 * A simulation run is one thread, so whoever collects metrics keeps
 * them as plain single-writer fields and hands out these value types
 * (ObsHub in obs/hub.hh does exactly that).  A histogram is a
 * HistogramSnapshot that its owner record()s into directly;
 * percentiles (p50/p90/p99) are interpolated linearly inside their
 * power-of-two bucket.
 */

#ifndef OSCACHE_OBS_METRICS_HH
#define OSCACHE_OBS_METRICS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace oscache
{

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

/** Summary of one histogram. */
struct HistogramSnapshot
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, numHistogramBuckets> buckets{};

    /** Add one sample. */
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

/** A run's metrics, each list sorted by name. */
struct MetricsSnapshot
{
    std::vector<CounterSnapshot> counters;
    std::vector<GaugeSnapshot> gauges;
    std::vector<HistogramSnapshot> histograms;

    /** Human-readable table (deterministic; used by tests to diff). */
    void render(std::ostream &os) const;
};

} // namespace oscache

#endif // OSCACHE_OBS_METRICS_HH
