#include "synth/kernel_layout.hh"

#include "common/log.hh"

namespace oscache
{

namespace
{

/** Kernel virtual base (Concentrix maps the kernel high). */
constexpr Addr kernelBase = kernelSpaceBase;
/** User data regions live low. */
constexpr Addr userLow = 0x0010'0000;

/** Frequently-shared variables placed in the update page. */
constexpr unsigned numUpdateFreqShared = 6;

} // namespace

KernelLayout::KernelLayout(unsigned num_cpus,
                           const CoherenceOptions &options)
    : cpus(num_cpus), opts(options)
{
    if (cpus == 0)
        panic("KernelLayout: zero cpus");
    if (cpus > maxCpus)
        panic("KernelLayout: ", cpus, " cpus, but the synthetic kernel "
              "holds at most ", maxCpus,
              " (one cross-interrupt slot per processor)");

    Addr cursor = kernelBase;
    auto take = [&cursor](Addr bytes) {
        const Addr base = cursor;
        cursor = alignUp(cursor + bytes, pageSize);
        return base;
    };

    // The dedicated update-protocol page comes first so its address
    // is stable whether or not the other regions resize.
    updatePageBase = take(pageSize);

    countersBase = take(opts.privatizeCounters
                            ? Addr{numCounters} * cpus * lineSize
                            : Addr{numCounters} * 4);
    freqSharedBase = take(opts.relocate ? Addr{numFreqShared} * lineSize
                                        : Addr{numFreqShared} * 4);
    locksBase = take(opts.relocate ? Addr{numLocks} * lineSize
                                   : Addr{numLocks} * 4);
    barriersBase = take(opts.relocate ? Addr{numBarriers} * lineSize
                                      : Addr{numBarriers} * 16);
    procTableBase = take(Addr{numProcs} * procEntryBytes);
    pageTablesBase = take(Addr{numProcs} * ptesPerProc * 4);
    runQueuesBase = take(Addr{numRunQueues} * lineSize);
    calloutBase = take(Addr{numCallouts} * 16);
    syscallTableBase = take(Addr{numSyscalls} * 4);
    bufferCacheBase = take(Addr{numBufHeaders} * 64);
    inodeTableBase = take(Addr{numInodes} * 128);
    freelistBase = take(Addr{numFreePages} * 16);
    timerBase = take(64);
    perCpuBase = take(Addr{cpus} * pageSize);
    pagePoolBase = take(Addr{kernelPagePool} * pageSize);

    userBase = userLow;
}

Addr
KernelLayout::counterAddr(unsigned id, CpuId cpu) const
{
    if (id >= numCounters)
        panic("KernelLayout: bad counter id ", id);
    if (opts.privatizeCounters) {
        // One line per (counter, processor) pair: no false sharing.
        return countersBase + (Addr{id} * cpus + cpu) * lineSize;
    }
    // All processors increment the same packed word.
    return countersBase + Addr{id} * 4;
}

Addr
KernelLayout::freqSharedAddr(unsigned id) const
{
    if (id >= numFreqShared)
        panic("KernelLayout: bad freq-shared id ", id);
    if (opts.selectiveUpdate && id < numUpdateFreqShared) {
        // Producer-consumer core lives in the update page, after the
        // barriers (numBarriers lines) and the ten most active locks.
        const Addr offset =
            (Addr{numBarriers} + numUpdateLocks + id) * lineSize;
        return updatePageBase + offset;
    }
    if (opts.relocate)
        return freqSharedBase + Addr{id} * lineSize;
    return freqSharedBase + Addr{id} * 4;
}

Addr
KernelLayout::lockAddr(unsigned id) const
{
    if (id >= numLocks)
        panic("KernelLayout: bad lock id ", id);
    if (opts.selectiveUpdate && id < numUpdateLocks)
        return updatePageBase + (Addr{numBarriers} + id) * lineSize;
    if (opts.relocate)
        return locksBase + Addr{id} * lineSize;
    return locksBase + Addr{id} * 4;
}

Addr
KernelLayout::barrierAddr(unsigned id) const
{
    if (id >= numBarriers)
        panic("KernelLayout: bad barrier id ", id);
    if (opts.selectiveUpdate)
        return updatePageBase + Addr{id} * lineSize;
    if (opts.relocate)
        return barriersBase + Addr{id} * lineSize;
    return barriersBase + Addr{id} * 16;
}

Addr
KernelLayout::procEntry(unsigned proc) const
{
    if (proc >= numProcs)
        panic("KernelLayout: bad proc ", proc);
    return procTableBase + Addr{proc} * procEntryBytes;
}

Addr
KernelLayout::pageTableEntry(unsigned proc, unsigned pte) const
{
    if (proc >= numProcs || pte >= ptesPerProc)
        panic("KernelLayout: bad pte (", proc, ", ", pte, ")");
    return pageTablesBase + (Addr{proc} * ptesPerProc + pte) * 4;
}

Addr
KernelLayout::runQueue(unsigned queue) const
{
    if (queue >= numRunQueues)
        panic("KernelLayout: bad run queue ", queue);
    return runQueuesBase + Addr{queue} * lineSize;
}

Addr
KernelLayout::calloutEntry(unsigned idx) const
{
    if (idx >= numCallouts)
        panic("KernelLayout: bad callout ", idx);
    return calloutBase + Addr{idx} * 16;
}

Addr
KernelLayout::syscallTableEntry(unsigned idx) const
{
    if (idx >= numSyscalls)
        panic("KernelLayout: bad syscall ", idx);
    return syscallTableBase + Addr{idx} * 4;
}

Addr
KernelLayout::bufferHeader(unsigned idx) const
{
    if (idx >= numBufHeaders)
        panic("KernelLayout: bad buffer header ", idx);
    return bufferCacheBase + Addr{idx} * 64;
}

Addr
KernelLayout::inodeEntry(unsigned idx) const
{
    if (idx >= numInodes)
        panic("KernelLayout: bad inode ", idx);
    return inodeTableBase + Addr{idx} * 128;
}

Addr
KernelLayout::freePageNode(unsigned idx) const
{
    if (idx >= numFreePages)
        panic("KernelLayout: bad free page node ", idx);
    return freelistBase + Addr{idx} * 16;
}

Addr
KernelLayout::timerStruct() const
{
    return timerBase;
}

Addr
KernelLayout::perCpuPrivate(CpuId cpu) const
{
    if (cpu >= cpus)
        panic("KernelLayout: bad cpu ", int(cpu));
    return perCpuBase + Addr{cpu} * pageSize;
}

Addr
KernelLayout::kernelPage(unsigned idx) const
{
    if (idx >= kernelPagePool)
        panic("KernelLayout: bad kernel page ", idx);
    return pagePoolBase + Addr{idx} * pageSize;
}

Addr
KernelLayout::userRegion(unsigned proc) const
{
    if (proc >= numProcs)
        panic("KernelLayout: bad proc ", proc);
    return userBase + Addr{proc} * userRegionSpacing +
           Addr{proc % 8} * pageSize;
}

std::unordered_set<Addr>
KernelLayout::updatePages() const
{
    std::unordered_set<Addr> pages;
    if (opts.selectiveUpdate)
        pages.insert(updatePageBase);
    return pages;
}

} // namespace oscache
