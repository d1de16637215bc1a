/**
 * @file
 * Miss-hot-spot identification and prefetch insertion (Section 6).
 *
 * The paper measures the data misses of every kernel basic block,
 * selects the 12 most active "miss hot spots" (a few loops over page
 * tables and free lists, plus frequently-executed sequences such as
 * process resume, timer functions, trap handling, context switching,
 * and scheduling), and hand-inserts prefetches — software-pipelined
 * in the loops, hoisted as early as possible in the sequences.
 *
 * Here the same methodology is automated: a profiling run yields
 * per-basic-block counts of the remaining "other" OS misses;
 * selectHotspots() picks the top N blocks; PrefetchStreamSource then
 * rewrites the trace as the second pass replays it, hoisting one
 * prefetch record a bounded number of records ahead of each read in
 * a hot block.  The bound models the paper's observation that
 * operand availability limits how far back a prefetch can be pushed,
 * so some latency remains only partially hidden.  insertPrefetches()
 * is the reference rewrite: it materializes the same records, for
 * tests and for tools that want the rewritten trace itself.
 */

#ifndef OSCACHE_CORE_HOTSPOT_HOTSPOT_HH
#define OSCACHE_CORE_HOTSPOT_HOTSPOT_HH

#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/stats.hh"
#include "trace/source.hh"
#include "trace/trace.hh"

namespace oscache
{

/** A plan for hot-spot prefetch insertion. */
struct HotspotPlan
{
    /** Basic blocks selected as miss hot spots. */
    std::unordered_set<BasicBlockId> hotBlocks;
    /**
     * How many trace records ahead of the consuming read the
     * prefetch is hoisted (bounded by operand availability).
     */
    unsigned lookahead = 12;
};

/**
 * Pick the @p count basic blocks with the most remaining OS misses
 * from a profiling run's statistics (the paper uses 12).
 */
HotspotPlan selectHotspots(const SimStats &profile, unsigned count = 12);

/**
 * The same selection from a raw per-block miss-count table.  Shared
 * by selectHotspots (fed from SimStats) and the observability
 * profiler's cross-check (fed from MissProfiler::otherMissByBb), so
 * the two pipelines rank identically by construction.
 */
HotspotPlan
selectHotspotsFromCounts(
    const std::unordered_map<BasicBlockId, std::uint64_t> &counts,
    unsigned count = 12);

/**
 * Compare the engine's hot-spot selection (from @p stats) with an
 * independently profiled per-block miss table (@p profiled).  When
 * @p os is non-null a one-line "hot-spot cross-check: AGREE" (or a
 * diagnostic DISAGREE listing the symmetric difference) is printed.
 *
 * @return true iff both selections contain the same blocks.
 */
bool hotspotCrossCheck(
    const SimStats &stats,
    const std::unordered_map<BasicBlockId, std::uint64_t> &profiled,
    unsigned count, std::ostream *os);

/** Fraction of profiled "other" OS misses covered by @p plan. */
double hotspotCoverage(const SimStats &profile, const HotspotPlan &plan);

/**
 * The reference rewrite: a copy of @p trace with prefetch records
 * inserted ahead of every read issued by a hot basic block.  The
 * simulator's own passes use PrefetchStreamSource, which tests pin
 * to this.
 */
Trace insertPrefetches(const Trace &trace, const HotspotPlan &plan);

/**
 * The hot-spot rewrite as a stream: wraps another TraceSource and
 * emits the record sequence of insertPrefetches() — a prefetch for
 * each hot-block read, hoisted plan.lookahead records ahead (clamped
 * to the stream head) — in output blocks the replay engine reads as
 * spans.  Each cursor holds at most 256 + lookahead input and
 * 512 + lookahead output records, whatever the inner source.
 * The second pass of the two-phase hot-spot methodology replays
 * through it, over a materialized trace or a streamed one.
 */
class PrefetchStreamSource final : public TraceSource
{
  public:
    PrefetchStreamSource(std::unique_ptr<TraceSource> inner,
                         HotspotPlan plan);

    unsigned numCpus() const override { return inner->numCpus(); }
    const BlockOpTable &blockOps() const override
    {
        return inner->blockOps();
    }
    const std::unordered_set<Addr> &updatePages() const override
    {
        return inner->updatePages();
    }
    std::unique_ptr<RecordCursor> cursor(CpuId cpu) override;
    const char *mode() const override { return inner->mode(); }

    /**
     * Prefetches the cursors have emitted so far; once every stream
     * is drained, the number of hot-block reads.
     */
    std::uint64_t insertedPrefetches() const { return inserted; }

  private:
    class Cursor;

    std::unique_ptr<TraceSource> inner;
    HotspotPlan plan;
    std::uint64_t inserted = 0;
};

} // namespace oscache

#endif // OSCACHE_CORE_HOTSPOT_HOTSPOT_HH
