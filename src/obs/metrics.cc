#include "obs/metrics.hh"

#include <algorithm>
#include <ostream>

namespace oscache
{

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    if (p <= 0.0)
        return static_cast<double>(min);
    if (p >= 100.0)
        return static_cast<double>(max);

    const double target = p / 100.0 * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < numHistogramBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        const double before = static_cast<double>(cumulative);
        cumulative += buckets[i];
        if (static_cast<double>(cumulative) < target)
            continue;

        // Interpolate linearly inside the bucket, tightened to the
        // observed extremes (exact for single-bucket distributions
        // and for the saturated overflow bucket).
        double lo = static_cast<double>(histogramBucketLow(i));
        double hi = static_cast<double>(histogramBucketHigh(i));
        lo = std::max(lo, static_cast<double>(min));
        hi = std::min(hi, static_cast<double>(max) + 1.0);
        if (hi < lo)
            hi = lo;
        const double frac =
            (target - before) / static_cast<double>(buckets[i]);
        return lo + frac * (hi - lo);
    }
    return static_cast<double>(max);
}

void
MetricsSnapshot::render(std::ostream &os) const
{
    os << "counters:\n";
    for (const CounterSnapshot &c : counters)
        os << "  " << c.name << " = " << c.value << "\n";
    if (!gauges.empty()) {
        os << "gauges:\n";
        for (const GaugeSnapshot &g : gauges) {
            os << "  " << g.name << " = ";
            if (g.assigned)
                os << g.value;
            else
                os << "(unset)";
            os << "\n";
        }
    }
    os << "histograms:\n";
    for (const HistogramSnapshot &h : histograms) {
        os << "  " << h.name << ": count=" << h.count << " sum=" << h.sum;
        if (h.count != 0)
            os << " min=" << h.min << " max=" << h.max
               << " mean=" << h.mean() << " p50=" << h.percentile(50)
               << " p90=" << h.percentile(90)
               << " p99=" << h.percentile(99);
        os << "\n";
    }
}

} // namespace oscache
