/**
 * @file
 * Miss-attribution profiler (the paper's Sections 4-6, mechanized).
 *
 * Consumes per-access events and builds two attribution tables:
 *
 *  - per issuing basic block ("per PC": each synthetic basic block
 *    owns a code page, so block id <-> instruction address), and
 *  - per kernel DataCategory,
 *
 * each bucketed by miss class (coherence / block displacement /
 * bypass reuse / plain conflict-cold) with both miss counts and
 * stall cycles.  rankedHotspots() reproduces the paper's Section 6
 * selection mechanically: rank blocks by remaining OS "other" misses
 * — exactly the population SimStats::osOtherMissByBb counts — so the
 * hand-tuned hot-spot pass in src/core/hotspot can be cross-checked
 * against profiler output (see hotspotCrossCheck in core/hotspot).
 */

#ifndef OSCACHE_OBS_PROFILER_HH
#define OSCACHE_OBS_PROFILER_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/observer.hh"
#include "sim/stats.hh"

namespace oscache
{

/** Number of MissCause values (None..Plain). */
inline constexpr std::size_t numMissCauses = 5;

/** Count and stall attribution of one (site, miss-class) cell. */
struct MissCell
{
    std::uint64_t count = 0;
    Cycles stall = 0;
};

/** Full per-site profile. */
struct SiteProfile
{
    /** Reads issued by the site (hits included). */
    std::uint64_t reads = 0;
    /** Misses and their stall, by MissCause. */
    std::array<MissCell, numMissCauses> byCause{};

    std::uint64_t
    missTotal() const
    {
        std::uint64_t n = 0;
        for (const MissCell &c : byCause)
            n += c.count;
        return n - byCause[0].count; // Cause None is "not a miss".
    }

    Cycles
    stallTotal() const
    {
        Cycles s = 0;
        for (const MissCell &c : byCause)
            s += c.stall;
        return s;
    }
};

/** One row of the ranked hot-spot table. */
struct HotspotRow
{
    BasicBlockId bb = invalidBasicBlock;
    /** Start of the block's synthetic code page. */
    Addr pc = invalidAddr;
    /** OS "other" (conflict/displacement/reuse) misses. */
    std::uint64_t otherMisses = 0;
    /** Stall cycles of those misses. */
    Cycles otherStall = 0;
    /** All OS misses the block issued (coherence included). */
    std::uint64_t allMisses = 0;
};

/**
 * The profiler.  Fed by ObsHub from MemAccessEvents; inspection is
 * valid at any time (typically after the run).
 */
class MissProfiler
{
  public:
    /** Attribute one completed access. */
    void record(const MemAccessEvent &event);

    /**
     * Per-block OS "other" miss counts — the same population SimStats
     * feeds to selectHotspots(), for mechanical cross-checking.
     */
    std::unordered_map<BasicBlockId, std::uint64_t> otherMissByBb() const;

    /** The @p count hottest blocks by remaining OS "other" misses. */
    std::vector<HotspotRow> rankedHotspots(unsigned count) const;

    /** Render the ranked hot-spot table. */
    void renderHotspots(std::ostream &os, unsigned count) const;

    /** Render the per-DataCategory miss/stall breakdown. */
    void renderCategories(std::ostream &os) const;

  private:
    /** One slot of the per-block index (bb invalid: empty). */
    struct Slot
    {
        BasicBlockId bb = invalidBasicBlock;
        /** Position of the block's profile in byBb. */
        std::uint32_t site = 0;
    };

    /** The profile of block @p bb, inserted on first use. */
    SiteProfile &siteOf(BasicBlockId bb);

    /** Rebuild the index with @p size slots (a power of two). */
    void rehash(std::size_t size);

    /**
     * Per-block profiles in first-seen order, found through an
     * open-addressing index with linear probing (a power of two of
     * 8-byte slots, at most half full), so the one lookup per OS read
     * is a short scan of a small flat array.  Neither holds a pointer
     * into the profiler, so copying it (ObsReport does) is safe.
     */
    std::vector<std::pair<BasicBlockId, SiteProfile>> byBb;
    std::vector<Slot> index;
    std::array<SiteProfile, numDataCategories> byCategory{};
};

/** Human-readable name of a synthetic kernel basic block, or "". */
const char *basicBlockName(BasicBlockId bb);

} // namespace oscache

#endif // OSCACHE_OBS_PROFILER_HH
