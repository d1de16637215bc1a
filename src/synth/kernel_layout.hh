/**
 * @file
 * Address-space layout of the synthetic multithreaded UNIX kernel.
 *
 * The layout assigns addresses to every kernel data structure the
 * activity generators touch, mirroring a Concentrix-style BSD kernel
 * in which all processors share all OS data structures:
 *
 *  - event counters (the vmmeter family: v_intr, v_faults, ...),
 *  - frequently-shared variables (resource-table process pointers,
 *    freelist.size, the cpievents array),
 *  - kernel locks (scheduler, physical memory, accounting, timer...),
 *  - gang-scheduling barriers,
 *  - the proc table, per-process page tables, run queues, the
 *    callout (timer) wheel, the syscall table, the buffer cache and
 *    inode table, the free-page list, per-processor stacks/u-areas,
 *  - a pool of kernel page frames used by block operations, and
 *  - a per-process user address space.
 *
 * CoherenceOptions reshape the layout exactly as the paper rebuilds
 * the kernel: privatization splits each counter into per-processor
 * sub-counters on private lines; relocation gives every lock,
 * barrier, and hot shared variable its own line (breaking false
 * sharing) and co-locates sequentially accessed variables; selective
 * update gathers the barriers, the ten most active locks, and a
 * small producer-consumer core (384 bytes) into a single page that
 * the simulator runs under the Firefly update protocol.
 */

#ifndef OSCACHE_SYNTH_KERNEL_LAYOUT_HH
#define OSCACHE_SYNTH_KERNEL_LAYOUT_HH

#include <unordered_set>

#include "common/types.hh"
#include "core/cohopt.hh"

namespace oscache
{

/**
 * The synthetic kernel's address map.
 */
class KernelLayout
{
  public:
    /** @name Structure population constants @{ */
    static constexpr unsigned numCounters = 16;
    /**
     * Sized so the per-processor cross-interrupt slots
     * (fsid::cpievents0 + cpu) stay in bounds up to the largest
     * NUMA geometry (4x8 = 32 processors); the region still fits
     * in one page either packed or relocated, so growing it moves
     * no other base address.
     */
    static constexpr unsigned numFreqShared = 40;
    /**
     * Most processors the layout holds: slot 0 is freelist.size and
     * each processor needs one cross-interrupt slot after it.  The
     * constructor rejects more.
     */
    static constexpr unsigned maxCpus = numFreqShared - 1;
    static constexpr unsigned numLocks = 24;
    static constexpr unsigned numUpdateLocks = 10; ///< Most active locks.
    static constexpr unsigned numBarriers = 3;
    static constexpr unsigned numProcs = 64;
    static constexpr unsigned procEntryBytes = 256;
    static constexpr unsigned ptesPerProc = 512;
    static constexpr unsigned numRunQueues = 8;
    static constexpr unsigned numCallouts = 64;
    static constexpr unsigned numSyscalls = 128;
    static constexpr unsigned numBufHeaders = 256;
    static constexpr unsigned numInodes = 128;
    static constexpr unsigned numFreePages = 512;
    static constexpr unsigned kernelPagePool = 256;
    static constexpr Addr pageSize = 4096;
    static constexpr Addr lineSize = 32; ///< Relocation granularity.
    /** @} */

    KernelLayout(unsigned num_cpus, const CoherenceOptions &options);

    const CoherenceOptions &options() const { return opts; }
    unsigned numCpus() const { return cpus; }

    /** @name Shared-variable addresses @{ */

    /**
     * Address of event counter @p id for an increment by @p cpu.
     * Without privatization every processor hits the same word;
     * with it, each processor has its own line-aligned sub-counter.
     */
    Addr counterAddr(unsigned id, CpuId cpu) const;

    /** True when counters are split per processor. */
    bool countersPrivatized() const { return opts.privatizeCounters; }

    /** Address of frequently-shared variable @p id. */
    Addr freqSharedAddr(unsigned id) const;

    /** Address of kernel lock @p id (0..9 are the most active). */
    Addr lockAddr(unsigned id) const;

    /** Address of gang-scheduling barrier @p id. */
    Addr barrierAddr(unsigned id) const;

    /** @} */

    /** @name Table and list addresses @{ */
    Addr procEntry(unsigned proc) const;
    Addr pageTableEntry(unsigned proc, unsigned pte) const;
    Addr runQueue(unsigned queue) const;
    Addr calloutEntry(unsigned idx) const;
    Addr syscallTableEntry(unsigned idx) const;
    Addr bufferHeader(unsigned idx) const;
    Addr inodeEntry(unsigned idx) const;
    Addr freePageNode(unsigned idx) const;
    Addr timerStruct() const;
    Addr perCpuPrivate(CpuId cpu) const;
    /** @} */

    /** @name Bulk-data regions @{ */
    /** Kernel page frame @p idx (block-operation pool). */
    Addr kernelPage(unsigned idx) const;
    /** Base of process @p proc's user data region. */
    Addr userRegion(unsigned proc) const;
    /** Bytes in each process's user region. */
    static constexpr Addr userRegionBytes = 256 * 1024;
    /**
     * Region spacing exceeds the region size and regions are
     * staggered by a page per process so different processes' hot
     * data does not all map to the same primary-cache sets (real
     * address spaces are not identically cache-colored).
     */
    static constexpr Addr userRegionSpacing = 288 * 1024;
    /** @} */

    /**
     * Page-aligned addresses of the update-protocol pages (empty
     * unless selective update is enabled).
     */
    std::unordered_set<Addr> updatePages() const;

  private:
    unsigned cpus;
    CoherenceOptions opts;

    /** @name Region bases (computed in the constructor) @{ */
    Addr countersBase = 0;
    Addr freqSharedBase = 0;
    Addr locksBase = 0;
    Addr barriersBase = 0;
    Addr updatePageBase = 0;
    Addr procTableBase = 0;
    Addr pageTablesBase = 0;
    Addr runQueuesBase = 0;
    Addr calloutBase = 0;
    Addr syscallTableBase = 0;
    Addr bufferCacheBase = 0;
    Addr inodeTableBase = 0;
    Addr freelistBase = 0;
    Addr perCpuBase = 0;
    Addr timerBase = 0;
    Addr pagePoolBase = 0;
    Addr userBase = 0;
    /** @} */
};

} // namespace oscache

#endif // OSCACHE_SYNTH_KERNEL_LAYOUT_HH
