/**
 * @file
 * Set-associative cache tag arrays.
 *
 * Two concrete flavours are provided:
 *
 *  - L1Cache: the write-through, write-allocate primary data cache
 *    (also reused for the primary instruction cache).  Lines are
 *    merely valid or invalid — data is always clean; the L2 and
 *    memory are updated through the write buffer.
 *
 *  - L2Cache: the write-back secondary cache holding Illinois/MESI
 *    line states.
 *
 * Both are pure tag/state models, as usual for trace-driven
 * simulation.  The paper's machine is direct-mapped throughout
 * (ways = 1, the default); higher associativity with LRU replacement
 * is supported for the conflict-miss ablations.
 *
 * Storage is structure-of-arrays: one flat tag bank per cache (set
 * index × way, way 0 = MRU) and, for the secondary cache, a parallel
 * flat MESI state bank rotated in lock-step by the LRU promotion —
 * there is no virtual hook in the rotation loop and no per-set
 * allocation.  A cache can own its banks (standalone construction,
 * unit tests) or carve them from a SimArena so every bank of every
 * processor lands in one contiguous per-run allocation.
 */

#ifndef OSCACHE_MEM_CACHE_HH
#define OSCACHE_MEM_CACHE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "mem/arena.hh"

namespace oscache
{

/** Illinois (MESI) line states for the secondary cache. */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive, ///< Clean and only copy (Illinois' "valid-exclusive").
    Modified,
};

namespace detail
{

/**
 * Shared guts of the two cache flavours: an N-way set-associative
 * tag array with LRU replacement.  Way 0 of a set is the MRU
 * position; fills and touches promote to it.
 */
class SetAssocTags
{
  public:
    SetAssocTags(std::uint32_t size, std::uint32_t line_size,
                 std::uint32_t ways)
        : SetAssocTags(size, line_size, ways, nullptr)
    {}

    /** As above, but the tag bank is carved from @p arena. */
    SetAssocTags(std::uint32_t size, std::uint32_t line_size,
                 std::uint32_t ways, SimArena &arena)
        : SetAssocTags(size, line_size, ways, &arena)
    {}

    SetAssocTags(const SetAssocTags &) = delete;
    SetAssocTags &operator=(const SetAssocTags &) = delete;
    SetAssocTags(SetAssocTags &&) = default;
    SetAssocTags &operator=(SetAssocTags &&) = default;

    /** Arena bytes the tag bank of this geometry consumes. */
    static constexpr std::size_t
    tagBankBytes(std::uint32_t size, std::uint32_t line_size)
    {
        return SimArena::spanBytes(size / line_size, sizeof(Addr));
    }

    Addr lineAddr(Addr addr) const { return addr & ~(Addr{lineSize} - 1); }

    /** Way holding @p addr, or numWays when absent. */
    std::uint32_t
    find(Addr addr) const
    {
        const Addr line = lineAddr(addr);
        const Addr *set = tags + setBase(addr);
        for (std::uint32_t w = 0; w < numWays; ++w)
            if (set[w] == line)
                return w;
        return numWays;
    }

    bool contains(Addr addr) const { return find(addr) < numWays; }

    /** Promote @p addr's way to MRU.  @return true iff present. */
    bool
    touch(Addr addr)
    {
        const std::uint32_t way = find(addr);
        if (way >= numWays)
            return false;
        promote(setBase(addr), way);
        return true;
    }

    /**
     * Promote a way returned by find() for the same @p addr — the
     * second half of a find()/promoteWay() pair that lets hot paths
     * probe once and promote only on a hit.
     */
    void
    promoteWay(Addr addr, std::uint32_t way)
    {
        promote(setBase(addr), way);
    }

    /**
     * Install @p addr's line at the MRU position.
     * @return The evicted LRU victim's line address, or invalidAddr.
     */
    Addr
    insert(Addr addr)
    {
        const Addr line = lineAddr(addr);
        const std::size_t base = setBase(addr);
        std::uint32_t way = find(addr);
        Addr victim = invalidAddr;
        if (way >= numWays) {
            // Prefer an invalid way; otherwise evict the LRU.
            way = numWays - 1;
            for (std::uint32_t w = 0; w < numWays; ++w)
                if (tags[base + w] == invalidAddr) {
                    way = w;
                    break;
                }
            if (tags[base + way] != invalidAddr)
                victim = tags[base + way];
            tags[base + way] = line;
        }
        promote(base, way);
        return victim;
    }

    /**
     * The way insert() would evict for @p addr when the line is
     * absent: the first invalid way if any, else the LRU way.
     * @return {victim line address or invalidAddr, way index}.
     */
    std::pair<Addr, std::uint32_t>
    peekVictim(Addr addr) const
    {
        const std::size_t base = setBase(addr);
        for (std::uint32_t w = 0; w < numWays; ++w)
            if (tags[base + w] == invalidAddr)
                return {invalidAddr, w};
        return {tags[base + numWays - 1], numWays - 1};
    }

    /** Remove @p addr's line.  @return the way it held, or numWays. */
    std::uint32_t
    remove(Addr addr)
    {
        const std::uint32_t way = find(addr);
        if (way < numWays)
            tags[setBase(addr) + way] = invalidAddr;
        return way;
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < slotCount; ++i)
            tags[i] = invalidAddr;
    }

    std::uint32_t sets() const { return numSets; }
    std::uint32_t ways() const { return numWays; }

    /** Line addresses of every resident line (audit walks). */
    std::vector<Addr>
    residentLines() const
    {
        std::vector<Addr> lines;
        for (std::size_t i = 0; i < slotCount; ++i)
            if (tags[i] != invalidAddr)
                lines.push_back(tags[i]);
        return lines;
    }

    /** Index of the (set, way) slot, for side-car state arrays. */
    std::size_t
    slot(Addr addr, std::uint32_t way) const
    {
        return setBase(addr) + way;
    }

    /** Serialize the tag array (live-points checkpointing). */
    void
    saveState(binio::BinaryWriter &w) const
    {
        w.put(std::uint64_t(slotCount));
        for (std::size_t i = 0; i < slotCount; ++i)
            w.put(tags[i]);
    }

    /**
     * Inverse of saveState(); false on truncation or when the stored
     * geometry does not match this cache's.
     */
    bool
    loadState(binio::BinaryReader &r)
    {
        std::uint64_t n = 0;
        if (!r.get(n) || n != slotCount)
            return false;
        for (std::size_t i = 0; i < slotCount; ++i)
            if (!r.get(tags[i]))
                return false;
        return true;
    }

  protected:
    /**
     * Optional flat bank the LRU promotion rotates in lock-step with
     * the tags.  L2Cache points this at its MESI state bank; the
     * former virtual rotated() hook is gone from the inner loop.
     */
    LineState *sideStates = nullptr;

    std::size_t slots() const { return slotCount; }

    std::size_t
    setBase(Addr addr) const
    {
        return std::size_t((addr >> lineShift) & indexMask) * numWays;
    }

    /**
     * Move @p way to the MRU position of its set, shifting the
     * younger entries down and rotating the side-car state bank (when
     * attached) in the same pass.
     */
    void
    promote(std::size_t base, std::uint32_t way)
    {
        if (way == 0)
            return;
        Addr *set = tags + base;
        const Addr line = set[way];
        for (std::uint32_t w = way; w > 0; --w)
            set[w] = set[w - 1];
        set[0] = line;
        if (sideStates != nullptr) {
            LineState *states = sideStates + base;
            const LineState moved = states[way];
            for (std::uint32_t w = way; w > 0; --w)
                states[w] = states[w - 1];
            states[0] = moved;
        }
    }

  private:
    SetAssocTags(std::uint32_t size, std::uint32_t line_size,
                 std::uint32_t ways, SimArena *arena)
        : lineSize(line_size), numWays(ways),
          numSets(size / (line_size * ways)), indexMask(numSets - 1),
          lineShift(floorLog2(line_size)),
          slotCount(std::size_t{numSets} * ways)
    {
        if (!isPowerOfTwo(size) || !isPowerOfTwo(line_size) ||
            !isPowerOfTwo(ways) || numSets == 0 ||
            !isPowerOfTwo(numSets))
            panic("cache: size, line size, and ways must be powers of "
                  "two with at least one set");
        if (arena != nullptr) {
            tags = arena->allocate<Addr>(slotCount);
        } else {
            ownedTags.resize(slotCount);
            tags = ownedTags.data();
        }
        clear();
    }

    std::uint32_t lineSize;
    std::uint32_t numWays;
    std::uint32_t numSets;
    std::uint64_t indexMask;
    unsigned lineShift;
    std::size_t slotCount;
    /** Flat tag bank (set × way); arena span or ownedTags.data(). */
    Addr *tags = nullptr;
    /** Backing storage when constructed without an arena. */
    std::vector<Addr> ownedTags;
};

} // namespace detail

/**
 * The primary cache: write-through, write-allocate, valid/invalid
 * lines only (also used for the instruction cache).
 */
class L1Cache : public detail::SetAssocTags
{
  public:
    /**
     * @param size      Capacity in bytes (power of two).
     * @param line_size Line size in bytes (power of two).
     * @param ways      Associativity (default direct-mapped).
     */
    L1Cache(std::uint32_t size, std::uint32_t line_size,
            std::uint32_t ways = 1)
        : SetAssocTags(size, line_size, ways)
    {}

    /** As above, with the tag bank carved from @p arena. */
    L1Cache(std::uint32_t size, std::uint32_t line_size,
            std::uint32_t ways, SimArena &arena)
        : SetAssocTags(size, line_size, ways, arena)
    {}

    /** Arena bytes this geometry consumes. */
    static constexpr std::size_t
    arenaBytes(std::uint32_t size, std::uint32_t line_size)
    {
        return tagBankBytes(size, line_size);
    }

    /**
     * Install the line containing @p addr.
     * @return The evicted victim's line address, or invalidAddr.
     */
    Addr fill(Addr addr) { return insert(addr); }

    /** Invalidate the line containing @p addr if present. */
    void invalidate(Addr addr) { remove(addr); }

    /** Invalidate every line. */
    void flush() { clear(); }
};

/**
 * The secondary cache: write-back, MESI states, LRU replacement.
 * The state bank is a flat side-car array the base class rotates in
 * lock-step with the tags.
 */
class L2Cache : public detail::SetAssocTags
{
  public:
    L2Cache(std::uint32_t size, std::uint32_t line_size,
            std::uint32_t ways = 1)
        : SetAssocTags(size, line_size, ways),
          ownedStates(slots(), LineState::Invalid)
    {
        states = ownedStates.data();
        sideStates = states;
    }

    /** As above, with both banks carved from @p arena. */
    L2Cache(std::uint32_t size, std::uint32_t line_size,
            std::uint32_t ways, SimArena &arena)
        : SetAssocTags(size, line_size, ways, arena)
    {
        states = arena.allocate<LineState>(slots());
        for (std::size_t i = 0; i < slots(); ++i)
            states[i] = LineState::Invalid;
        sideStates = states;
    }

    L2Cache(L2Cache &&other) noexcept
        : SetAssocTags(std::move(other)),
          ownedStates(std::move(other.ownedStates)),
          states(other.states)
    {
        // Re-anchor the side-car pointer at the moved-to object.
        sideStates = states;
    }

    /** Arena bytes this geometry consumes (tags + state bank). */
    static constexpr std::size_t
    arenaBytes(std::uint32_t size, std::uint32_t line_size)
    {
        return tagBankBytes(size, line_size) +
               SimArena::spanBytes(size / line_size, sizeof(LineState));
    }

    /** State of the line containing @p addr (Invalid if absent). */
    LineState
    state(Addr addr) const
    {
        const std::uint32_t way = find(addr);
        return way < ways() ? states[slot(addr, way)] : LineState::Invalid;
    }

    /**
     * State of the line at a way returned by find() for the same
     * @p addr — the second half of a find()/stateOfWay() pair that
     * lets hot paths probe the tag bank once.
     */
    LineState
    stateOfWay(Addr addr, std::uint32_t way) const
    {
        return states[slot(addr, way)];
    }

    bool contains(Addr addr) const
    {
        return state(addr) != LineState::Invalid;
    }

    /**
     * Install the line containing @p addr in @p new_state.
     *
     * @param[out] victim       Line address of the evicted line, or
     *                          invalidAddr.
     * @param[out] victim_dirty True iff the victim was Modified.
     */
    void
    fill(Addr addr, LineState new_state, Addr &victim, bool &victim_dirty)
    {
        victim = invalidAddr;
        victim_dirty = false;
        if (find(addr) >= ways()) {
            // Capture the would-be victim's state before insertion.
            const auto [victim_line, victim_way] = peekVictim(addr);
            victim = victim_line;
            victim_dirty = victim != invalidAddr &&
                states[slot(addr, victim_way)] == LineState::Modified;
        }
        insert(addr);
        states[slot(addr, 0)] = new_state;
    }

    /** Change the state of a resident line. */
    void
    setState(Addr addr, LineState new_state)
    {
        const std::uint32_t way = find(addr);
        if (way >= ways())
            panic("L2Cache::setState on absent line");
        states[slot(addr, way)] = new_state;
    }

    /** Invalidate the line containing @p addr if present. */
    void
    invalidate(Addr addr)
    {
        const std::uint32_t way = find(addr);
        if (way < ways()) {
            states[slot(addr, way)] = LineState::Invalid;
            remove(addr);
        }
    }

    void
    flush()
    {
        clear();
        for (std::size_t i = 0; i < slots(); ++i)
            states[i] = LineState::Invalid;
    }

    /** Serialize tags plus the MESI side-car array. */
    void
    saveState(binio::BinaryWriter &w) const
    {
        SetAssocTags::saveState(w);
        for (std::size_t i = 0; i < slots(); ++i)
            w.put(std::uint8_t(states[i]));
    }

    /** Inverse of saveState(); false on malformed input. */
    bool
    loadState(binio::BinaryReader &r)
    {
        if (!SetAssocTags::loadState(r))
            return false;
        for (std::size_t i = 0; i < slots(); ++i) {
            std::uint8_t v = 0;
            if (!r.get(v) || v > std::uint8_t(LineState::Modified))
                return false;
            states[i] = LineState(v);
        }
        return true;
    }

  private:
    /** Backing storage when constructed without an arena. */
    std::vector<LineState> ownedStates;
    /** Flat MESI bank, parallel to the tag bank. */
    LineState *states = nullptr;
};

} // namespace oscache

#endif // OSCACHE_MEM_CACHE_HH
