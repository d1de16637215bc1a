/**
 * @file
 * Systematic sampling plans (SMARTS-style U-of-N sampling).
 *
 * A plan tiles each processor's record stream into fixed windows of
 * `period` records.  Each window opens with `warmup` records of
 * functional warming (caches, bus, and write buffers are updated but
 * nothing is measured), continues with `measure` measured records,
 * and the remainder of the window is skipped outright — the cursor
 * fast-forwards with RecordCursor::skip(), which on chunked trace
 * files is pure seek arithmetic.
 *
 * Classic SMARTS warms functionally through *all* unmeasured records;
 * for a trace-driven cache simulator functional warming costs nearly
 * as much as detailed simulation, so this implementation follows the
 * TurboSMARTSim refinement instead: skip the gap entirely and rebuild
 * locality with a detailed warm-up prefix before each measured
 * window (live-points checkpoints make even that prefix resumable).
 * The bias this leaves — cold misses over-counted right after a leap
 * — is what the warmup length controls, and the dft oracle can audit
 * every measured window access-by-access.
 */

#ifndef OSCACHE_SAMPLE_PLAN_HH
#define OSCACHE_SAMPLE_PLAN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/sampling.hh"

namespace oscache
{
namespace sample
{

/**
 * "100k"/"2m"/"1g" → count.  Plain digits pass through exactly; a
 * decimal or exponent form ("1.5k", "2e6") is scaled as a double and
 * truncated.  nullopt on anything else: a sign, NaN, inf, trailing
 * characters, or a count beyond uint64.  Shared by plan parsing and
 * the CLIs.
 */
std::optional<std::uint64_t> tryParseCount(std::string_view text);

/** As tryParseCount(), but fatal() on malformed input. */
std::uint64_t parseCount(const std::string &text);

/** One U-of-N systematic sampling plan. */
struct SamplingPlan
{
    /** Window length N in records per processor. */
    std::uint64_t period = 100'000;
    /** Measured records U at the head of each window (after warmup). */
    std::uint64_t measure = 2'000;
    /** Detailed warm-up records replayed before each measured span. */
    std::uint64_t warmup = 8'000;
    /**
     * Requested maximum relative CI half-width (0.05 = ±5%) for the
     * miss-class metrics; 0 disables auto-escalation.
     */
    double targetError = 0.0;
    /**
     * Escalation rounds allowed when targetError is not met: each
     * round halves the period (doubling the number of windows).
     */
    unsigned maxRounds = 3;
    /** Spin-break budget in cycles (see sim/sampling.hh). */
    Cycles spinBreak = 1'000'000;

    /** Records replayed (warm + measured) per window. */
    std::uint64_t replayedPerWindow() const { return warmup + measure; }

    /** True when the plan actually skips anything. */
    bool
    valid() const
    {
        return period > 0 && measure > 0 &&
               warmup + measure <= period;
    }

    /** Where record index @p pos falls within its window. */
    struct Position
    {
        SamplePhase phase = SamplePhase::Warm;
        std::uint64_t window = 0;    ///< Window index pos / period.
        std::uint64_t remaining = 0; ///< Records left in this phase.
    };

    Position
    classify(std::uint64_t pos) const
    {
        Position p;
        p.window = pos / period;
        const std::uint64_t off = pos - p.window * period;
        if (off < warmup) {
            p.phase = SamplePhase::Warm;
            p.remaining = warmup - off;
        } else if (off < warmup + measure) {
            p.phase = SamplePhase::Measure;
            p.remaining = warmup + measure - off;
        } else {
            p.phase = SamplePhase::Skip;
            p.remaining = period - off;
        }
        return p;
    }

    /** Halve the period (escalation: more, shorter windows). */
    SamplingPlan
    escalated() const
    {
        SamplingPlan next = *this;
        next.period = period / 2;
        if (next.period < warmup + measure)
            next.period = warmup + measure;
        return next;
    }

    /** Compact human-readable form, e.g. "8k+2k of 100k". */
    std::string describe() const;

    /**
     * Parse "period=100000,measure=2000,warmup=8000,error=0.05,
     * rounds=3,spinbreak=1000000" (any subset, any order; bare
     * numbers allowed as k/m/g suffixed).  fatal()s on bad input.
     */
    static SamplingPlan parse(const std::string &text);

    /**
     * As parse(), but malformed input returns nullopt with @p error
     * set instead of exiting; parse() is this plus fatal(), and tests
     * probe rejections through it.
     */
    static std::optional<SamplingPlan>
    tryParse(const std::string &text, std::string *error = nullptr);

    bool operator==(const SamplingPlan &) const = default;
};

} // namespace sample
} // namespace oscache

#endif // OSCACHE_SAMPLE_PLAN_HH
