/**
 * @file
 * Operating-system activity generators.
 *
 * Each method emits the reference sequence of one kernel activity
 * into a processor's stream: the mix of instruction execution, data
 * structure walks, lock critical sections, counter updates, and
 * block operations that the paper's traces attribute to page-fault
 * handling, process management, scheduling, cross-processor
 * interrupts, timer/accounting functions, system calls, file I/O,
 * and network activity.
 *
 * The activity bodies encode the behaviours the paper's analysis
 * hinges on:
 *
 *  - fork/COW chains make the destination block of one copy the
 *    source of the next (the "inside reuse" driver of Section 4.1.3);
 *  - event counters are incremented by every processor but read only
 *    by the pager (the infrequently-communicated pattern of
 *    Section 5.1);
 *  - cpievents/freelist.size show producer-consumer sharing
 *    (Section 5.2's update candidates);
 *  - page-table loops, the free-list walk, and the hot sequences
 *    reproduce the Section 6 miss hot spots.
 */

#ifndef OSCACHE_SYNTH_ACTIVITIES_HH
#define OSCACHE_SYNTH_ACTIVITIES_HH

#include <deque>
#include <vector>

#include "common/rng.hh"
#include "synth/emitter.hh"
#include "synth/kernel_layout.hh"
#include "synth/profile.hh"

namespace oscache
{

/** Well-known kernel lock ids (0..9 are the most active). */
namespace lockid
{
enum : unsigned
{
    scheduler = 0,
    physMemory = 1,
    accounting = 2,
    timer = 3,
    io = 4,
    procTable = 5,
    network = 6,
    inode = 7,
    bufferCache = 8,
    callout = 9,
};
} // namespace lockid

/** Well-known frequently-shared variable ids. */
namespace fsid
{
enum : unsigned
{
    freelistSize = 0,
    cpievents0 = 1, ///< One slot per processor: 1..numCpus.
    runRegime = 5,  ///< Current machine regime flag.
    resourcePtr0 = 6,
};
} // namespace fsid

static_assert(fsid::cpievents0 + KernelLayout::maxCpus <=
                  KernelLayout::numFreqShared,
              "every processor needs its own cross-interrupt slot");

/** Well-known event-counter ids (the vmmeter family). */
namespace ctrid
{
enum : unsigned
{
    vIntr = 0,
    vFaults = 1,
    vForks = 2,
    vSyscall = 3,
    vSwtch = 4,
    vIo = 5,
    vTicks = 6,
    vPgin = 7,
    vTrap = 8,
};
} // namespace ctrid

/**
 * Emits kernel activity reference sequences.
 */
class Activities
{
  public:
    Activities(const KernelLayout &layout, const WorkloadProfile &profile);

    /** @name Kernel activities @{ */
    /** A burst of page faults (zero-fill, then warm COW chain). */
    void pageFault(Emitter &em, Rng &rng, CpuId cpu, unsigned proc);
    void fork(Emitter &em, Rng &rng, CpuId cpu, unsigned parent,
              unsigned child);
    void execProcess(Emitter &em, Rng &rng, CpuId cpu, unsigned proc);
    void syscall(Emitter &em, Rng &rng, CpuId cpu, unsigned proc);
    void fileIo(Emitter &em, Rng &rng, CpuId cpu, unsigned proc);
    void contextSwitch(Emitter &em, Rng &rng, CpuId cpu, unsigned from,
                       unsigned to);
    void timerTick(Emitter &em, Rng &rng, CpuId cpu, unsigned proc);
    void cpiSend(Emitter &em, Rng &rng, CpuId src, CpuId dst);
    void cpiReceive(Emitter &em, Rng &rng, CpuId dst);
    void pagerRun(Emitter &em, Rng &rng, CpuId cpu);
    void networkOp(Emitter &em, Rng &rng, CpuId cpu, unsigned proc);
    /**
     * Directory/inode scan (namei on long paths, ls/find/fsck
     * sweeps): a wide walk over buffer headers and inodes with no
     * block operation — a pure source of conflict misses.
     */
    void dirScan(Emitter &em, Rng &rng, CpuId cpu);
    void gangBarrier(Emitter &em, Rng &rng, CpuId cpu, unsigned episode,
                     unsigned parties);
    /** @} */

    /** One user-level compute slice for @p proc. */
    void userCompute(Emitter &em, Rng &rng, CpuId cpu, unsigned proc);

    /** The machine regime changed: the scheduler master records it. */
    void regimeChange(Emitter &em, Rng &rng, CpuId cpu);

  private:
    /** One page fault of a burst. */
    void pageFaultOnce(Emitter &em, Rng &rng, CpuId cpu, unsigned proc,
                       bool first);

    /**
     * The application touches a freshly mapped page (filling its
     * newly faulted array, consuming the received buffer...).  This
     * is what keeps block-operation sources warm in the caches.
     */
    void touchPage(Emitter &em, Rng &rng, Addr page, double frac);

    /** Increment an event counter (read-modify-write). */
    void counterBump(Emitter &em, CpuId cpu, unsigned counter,
                     BasicBlockId bb);

    /** Walk @p nodes entries of the free-page list. */
    void freelistWalk(Emitter &em, Rng &rng, unsigned nodes);

    /** Kernel stack / u-area traffic of an activity (hit-heavy). */
    void stackChurn(Emitter &em, CpuId cpu, unsigned refs,
                    BasicBlockId bb);

    /** Allocate a page frame from the kernel pool (round-robin). */
    Addr allocPoolPage(Rng &rng);

    /** Allocate a (recycled) file-buffer page. */
    Addr allocBufferPage(Rng &rng);

    /** Pick a block size per the profile's distribution. */
    std::uint32_t pickBlockSize(Rng &rng, bool sub_page_only);

    /** Tag a copy as read-only-after per the profile's rate. */
    void maybeTagReadOnly(Emitter &em, Rng &rng, BlockOpId id,
                          std::uint32_t size);

    const KernelLayout &layout;
    WorkloadProfile profile;

    unsigned pageCursor = 0;
    /** Per-process most recently written page. */
    std::vector<Addr> recentPage;
    /** Per-process page written at least a quantum ago (copy src). */
    std::vector<Addr> agedPage;
    /** Per-process hot-window offset within the user region. */
    std::vector<Addr> userWindow;
    /** Recently freed page frames (LIFO reuse pool). */
    std::deque<Addr> recentFrames;
    /** Most recently used file buffer frame. */
    Addr lastBufferPage = invalidAddr;
    /** Scrambled traversal order of the free list. */
    std::vector<unsigned> freelistOrder;
    unsigned freelistCursor = 0;
};

} // namespace oscache

#endif // OSCACHE_SYNTH_ACTIVITIES_HH
