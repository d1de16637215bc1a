/**
 * @file
 * Hardware configuration of the simulated machine.
 *
 * Defaults reproduce the paper's Base architecture (Section 2.4):
 * four 200-MHz processors, each with a 32-KB direct-mapped
 * write-through primary data cache with 16-byte lines and a 256-KB
 * direct-mapped write-back lockup-free secondary cache with 32-byte
 * lines; a 4-deep word-wide write buffer between the caches and an
 * 8-deep 32-byte write buffer between the secondary cache and the
 * bus; reads bypass writes; Illinois coherence under release
 * consistency; an 8-byte 40-MHz split-transaction bus where a
 * secondary line transfer occupies 20 processor cycles; and
 * uncontended word-read latencies of 1 / 12 / 51 cycles from the
 * primary cache / secondary cache / memory.
 */

#ifndef OSCACHE_MEM_CONFIG_HH
#define OSCACHE_MEM_CONFIG_HH

#include <cstdint>
#include <limits>

#include "common/log.hh"
#include "common/types.hh"

namespace oscache
{

/**
 * Write-invalidate coherence protocol family.  The paper's Base uses
 * Illinois (MESI, with a clean-exclusive state so private data never
 * pays an upgrade transaction); the MSI mode drops the E state, as
 * in simpler snooping protocols, for comparison.
 */
enum class CoherenceProtocol : std::uint8_t
{
    Illinois,
    Msi,
};

/** Static description of the simulated memory system. */
struct MachineConfig
{
    /** Number of processors on the bus. */
    unsigned numCpus = 4;

    /** @name Primary (L1) data cache @{ */
    std::uint32_t l1Size = 32 * 1024;
    std::uint32_t l1LineSize = 16;
    /** Associativity (1 = the paper's direct-mapped caches). */
    std::uint32_t l1Ways = 1;
    /** @} */

    /** @name Primary instruction cache (optional detailed model) @{ */
    std::uint32_t iCacheSize = 16 * 1024;
    std::uint32_t iCacheLineSize = 16;
    /** @} */

    /** @name Secondary (L2) cache @{ */
    std::uint32_t l2Size = 256 * 1024;
    std::uint32_t l2LineSize = 32;
    std::uint32_t l2Ways = 1;
    /** @} */

    /** Coherence protocol (invalidation side; update pages override). */
    CoherenceProtocol protocol = CoherenceProtocol::Illinois;

    /** @name Latencies, in processor cycles @{ */
    /** Word read that hits the primary cache. */
    Cycles l1HitLatency = 1;
    /** Word read that hits the secondary cache (total from issue). */
    Cycles l2HitLatency = 12;
    /** Word read serviced by memory (total from issue, uncontended). */
    Cycles memLatency = 51;
    /**
     * Cost of draining one word from the L1 write buffer into L2.
     * The L1-to-L2 path is fast; the paper attributes the large
     * majority of write stall to the buffer between the secondary
     * cache and the bus.
     */
    Cycles l2WriteLatency = 2;
    /** @} */

    /** @name Bus @{ */
    /** Processor cycles per bus cycle (200 MHz CPU / 40 MHz bus). */
    Cycles busCycle = 5;
    /** Bus occupancy of one secondary-line transfer, CPU cycles. */
    Cycles lineTransferOccupancy = 20;
    /** Bus occupancy of an invalidation-only transaction. */
    Cycles invalOccupancy = 5;
    /** Bus occupancy of a word update broadcast (Firefly). */
    Cycles updateOccupancy = 10;
    /** Bus occupancy of a single bypassed word write. */
    Cycles wordWriteOccupancy = 7;
    /** @} */

    /** @name Write buffers @{ */
    /** Depth of the word-wide buffer between L1 and L2. */
    unsigned l1WriteBufferDepth = 4;
    /** Depth of the line-wide buffer between L2 and the bus. */
    unsigned l2WriteBufferDepth = 8;
    /** @} */

    /** @name Lockup-free secondary cache @{ */
    /** Outstanding-miss registers available for prefetches. */
    unsigned mshrCount = 8;
    /** @} */

    /** @name DMA-like block-operation engine (Blk_Dma, Section 4.2) @{ */
    /** Startup cost before the first transfer, CPU cycles. */
    Cycles dmaStartup = 19;
    /** CPU cycles to move 8 bytes across the bus (2 bus cycles). */
    Cycles dmaPer8Bytes = 10;
    /** Extra cycles when a snooped cache must supply a dirty line. */
    Cycles dmaDirtySupplyPenalty = 10;
    /** @} */

    /** @name Prefetch hardware @{ */
    /** Lines in the Blk_ByPref source prefetch buffer. */
    unsigned blockPrefetchBufferLines = 8;
    /** @} */

    /**
     * @name Two-level NUMA interconnect @{
     *
     * With numSockets > 1 the processors split into equal groups,
     * each snooping on a private per-socket bus; the sockets join
     * through a single inter-socket link guarded by a home-node
     * directory filter.  Memory interleaves across sockets at
     * homeGranule-byte granularity, and a read whose home is a
     * remote socket pays remoteMemPenalty extra cycles.  The default
     * numSockets == 1 is the paper's flat bus, bit-for-bit.
     */
    /** Sockets; 1 = the paper's single snooping bus. */
    unsigned numSockets = 1;
    /** Most sockets check() accepts (socket sets are 32-bit masks). */
    static constexpr unsigned maxSockets = 32;
    /** Extra cycles for a line serviced by a remote home memory. */
    Cycles remoteMemPenalty = 40;
    /** Link occupancy of a full line transfer across sockets. */
    Cycles linkTransferOccupancy = 24;
    /** Link occupancy of an address-only coherence message. */
    Cycles linkMsgOccupancy = 6;
    /** Bytes per home-interleave granule (page-sized by default). */
    std::uint32_t homeGranule = 4096;
    /** @} */

    /** Derived: processors per socket. */
    unsigned cpusPerSocket() const { return numCpus / numSockets; }
    /** Derived: socket of @p cpu. */
    unsigned
    socketOf(CpuId cpu) const
    {
        return unsigned(cpu) / cpusPerSocket();
    }
    /** Derived: home socket of @p addr (granule interleaving). */
    unsigned
    homeSocketOf(Addr addr) const
    {
        return unsigned((addr / homeGranule) % numSockets);
    }
    /** Derived: true when the two-level interconnect is in play. */
    bool numaActive() const { return numSockets > 1; }

    /** Derived: number of lines in L1. */
    std::uint32_t l1Sets() const { return l1Size / l1LineSize; }
    /** Derived: number of lines in L2. */
    std::uint32_t l2Sets() const { return l2Size / l2LineSize; }
    /** Derived: L1 lines per L2 line (inclusion granularity). */
    std::uint32_t
    l1LinesPerL2Line() const
    {
        return l2LineSize / l1LineSize;
    }
    /** Derived: bus/memory portion of a memory read (after L2 probe). */
    Cycles busMemLatency() const { return memLatency - l2HitLatency; }

    /** Validate internal consistency; panics on a malformed config. */
    void
    check() const
    {
        if (!isPowerOfTwo(l1Size) || !isPowerOfTwo(l1LineSize) ||
            !isPowerOfTwo(l2Size) || !isPowerOfTwo(l2LineSize) ||
            !isPowerOfTwo(iCacheSize) || !isPowerOfTwo(iCacheLineSize))
            panic("MachineConfig: sizes must be powers of two");
        if (l1LineSize > l2LineSize)
            panic("MachineConfig: L1 line larger than L2 line");
        if (l1Size > l2Size)
            panic("MachineConfig: L1 larger than L2 breaks inclusion");
        if (memLatency <= l2HitLatency)
            panic("MachineConfig: memory latency must exceed L2 latency");
        if (numCpus == 0)
            panic("MachineConfig: need at least one cpu");
        // Per-cpu loops count to numCpus in a CpuId.
        if (numCpus > std::numeric_limits<CpuId>::max())
            panic("MachineConfig: at most ",
                  unsigned(std::numeric_limits<CpuId>::max()), " cpus");
        if (l1Ways == 0 || l2Ways == 0 || !isPowerOfTwo(l1Ways) ||
            !isPowerOfTwo(l2Ways))
            panic("MachineConfig: associativity must be a power of two");
        if (l1Ways > l1Sets() || l2Ways > l2Sets())
            panic("MachineConfig: more ways than lines");
        if (numSockets == 0)
            panic("MachineConfig: need at least one socket");
        // The directory filter and DMA paths keep socket sets in
        // 32-bit masks.
        if (numSockets > maxSockets)
            panic("MachineConfig: at most ", maxSockets, " sockets");
        if (numCpus % numSockets != 0)
            panic("MachineConfig: cpus must divide evenly into "
                  "sockets");
        if (!isPowerOfTwo(homeGranule) || homeGranule < l2LineSize)
            panic("MachineConfig: home granule must be a power of two "
                  "no smaller than an L2 line");
    }

    /** The paper's Base machine. */
    static MachineConfig base() { return MachineConfig{}; }

    /**
     * The Base machine scaled to @p sockets sockets of
     * @p cpus_per_socket processors each, under the default NUMA
     * timing parameters.
     */
    static MachineConfig
    numa(unsigned sockets, unsigned cpus_per_socket)
    {
        MachineConfig m;
        m.numSockets = sockets;
        m.numCpus = sockets * cpus_per_socket;
        return m;
    }
};

} // namespace oscache

#endif // OSCACHE_MEM_CONFIG_HH
