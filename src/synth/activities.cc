#include "synth/activities.hh"

#include <algorithm>

#include "synth/bbids.hh"

namespace oscache
{

namespace
{

/** Maximum dedicated file-buffer frames at the end of the pool. */
constexpr unsigned bufferPoolPages = 48;

/**
 * Call-site variant of a basic block: the same logical loop is
 * inlined at many static places in a real kernel (different pmap
 * functions, different namei callers), so its misses spread over
 * many distinct blocks.  Without this, a handful of coarse ids would
 * let 12 "hot spots" cover nearly all misses, unlike the paper's
 * 22-51%.
 */
constexpr BasicBlockId
vbb(BasicBlockId base, unsigned salt, unsigned variants)
{
    return 10000 + base * 8 + (salt % variants);
}

} // namespace

Activities::Activities(const KernelLayout &layout_,
                       const WorkloadProfile &profile_)
    : layout(layout_), profile(profile_),
      recentPage(KernelLayout::numProcs, invalidAddr),
      agedPage(KernelLayout::numProcs, invalidAddr),
      userWindow(KernelLayout::numProcs, 0)
{
    // Stagger each process's initial hot window.
    for (unsigned p = 0; p < userWindow.size(); ++p)
        userWindow[p] = Addr{p % 48} * 4096;

    // A fixed pseudo-random permutation of the free list so walks
    // hop around memory the way a real free list does after churn.
    freelistOrder.resize(KernelLayout::numFreePages);
    for (unsigned i = 0; i < freelistOrder.size(); ++i)
        freelistOrder[i] = i;
    Rng perm_rng(0xf5ee'1157ULL);
    for (unsigned i = unsigned(freelistOrder.size()) - 1; i > 0; --i)
        std::swap(freelistOrder[i], freelistOrder[perm_rng.below(i + 1)]);
}

Addr
Activities::allocPoolPage(Rng &rng)
{
    // BSD's page free list is LIFO: allocations often return a
    // recently freed, still cache-warm (and often dirty) frame.
    if (!recentFrames.empty() && rng.chance(profile.pageReuseFrac)) {
        return recentFrames[rng.below(recentFrames.size())];
    }
    const unsigned pool = KernelLayout::kernelPagePool - bufferPoolPages;
    const unsigned idx = pageCursor % pool;
    pageCursor += 1;
    const Addr page = layout.kernelPage(idx);
    recentFrames.push_back(page);
    if (recentFrames.size() > 12)
        recentFrames.pop_front();
    return page;
}

Addr
Activities::allocBufferPage(Rng &rng)
{
    // Re-reading the same file (the compiler binary, fsck's tables)
    // often lands on the buffer just used; otherwise pick one of the
    // workload's active buffer frames.
    const unsigned frames =
        std::min(profile.bufferFrames, bufferPoolPages);
    const unsigned base = KernelLayout::kernelPagePool - bufferPoolPages;
    if (lastBufferPage != invalidAddr &&
        rng.chance(profile.freshCopyFrac * 0.8))
        return lastBufferPage;
    lastBufferPage =
        layout.kernelPage(base + unsigned(rng.below(frames)));
    return lastBufferPage;
}

std::uint32_t
Activities::pickBlockSize(Rng &rng, bool sub_page_only)
{
    const double r = rng.uniform();
    double small = profile.smallBlockFrac;
    double medium = profile.mediumBlockFrac;
    if (sub_page_only) {
        // Renormalize to the sub-page portion of the distribution.
        const double total = small + medium;
        if (total <= 0.0)
            return 512;
        small /= total;
        medium /= total;
    }
    if (r < small) {
        // 16 bytes to 1 KB, word aligned, skewed small.
        return std::uint32_t(16 + 16 * rng.below(64 - 1 + 1));
    }
    if (r < small + medium) {
        // 1 KB to 4 KB.
        return std::uint32_t(1024 + 256 * rng.below(12 + 1));
    }
    return 4096;
}

void
Activities::maybeTagReadOnly(Emitter &em, Rng &rng, BlockOpId id,
                             std::uint32_t size)
{
    if (size < 4096 && rng.chance(profile.readOnlySmallCopyFrac))
        em.blockOpTable().getMutable(id).readOnlyAfter = true;
}

void
Activities::touchPage(Emitter &em, Rng &rng, Addr page, double frac)
{
    // Walk the page at primary-line granularity; mostly writes (the
    // app fills the page), some reads.
    for (unsigned off = 0; off < 4096; off += 16) {
        if (!rng.chance(frac))
            continue;
        if ((off & 63) == 0)
            em.userExec(8, bb::userNumeric);
        if (rng.chance(0.05))
            em.userRead(page + off + 4, bb::userNumeric);
        else
            em.userWrite(page + off + 4, bb::userNumeric);
    }
}

void
Activities::counterBump(Emitter &em, CpuId cpu, unsigned counter,
                        BasicBlockId bb)
{
    const Addr addr = layout.counterAddr(counter, cpu);
    em.exec(2, bb);
    em.read(addr, DataCategory::InfreqComm, bb);
    em.write(addr, DataCategory::InfreqComm, bb);
}

void
Activities::stackChurn(Emitter &em, CpuId cpu, unsigned refs,
                       BasicBlockId bb)
{
    // Saved registers, stack frames, and u-area fields: dense,
    // processor-private, and almost always cache resident.
    const Addr base = layout.perCpuPrivate(cpu) + 2048;
    for (unsigned i = 0; i < refs; ++i) {
        if ((i & 3) == 0)
            em.exec(4, bb);
        const Addr a = base + (Addr{i} * 4) % 512;
        if (i & 1)
            em.write(a, DataCategory::KernelPrivate, bb);
        else
            em.read(a, DataCategory::KernelPrivate, bb);
    }
}

void
Activities::freelistWalk(Emitter &em, Rng &rng, unsigned nodes)
{
    const unsigned site = unsigned(rng.below(4));
    for (unsigned i = 0; i < nodes; ++i) {
        const unsigned node =
            freelistOrder[freelistCursor % freelistOrder.size()];
        freelistCursor += 1;
        em.exec(3, vbb(bb::freelistWalk, site, 4));
        em.read(layout.freePageNode(node), DataCategory::OtherShared,
                vbb(bb::freelistWalk, site, 4));
    }
}

void
Activities::pageFault(Emitter &em, Rng &rng, CpuId cpu, unsigned proc)
{
    // Faults arrive in bursts: a process touching a fresh array
    // region faults on page after page.  The first fault of a burst
    // zero-fills; the following ones copy-on-write from the page the
    // application just filled, so their sources are warm — the
    // chained-block-operation behaviour Section 4.1.3 highlights.
    const unsigned burst = 1 + unsigned(rng.below(3));
    for (unsigned f = 0; f < burst; ++f) {
        if (f != 0) {
            // The application computes between faults.
            userCompute(em, rng, cpu, proc);
        }
        pageFaultOnce(em, rng, cpu, proc, /*first=*/f == 0);
    }
}

void
Activities::pageFaultOnce(Emitter &em, Rng &rng, CpuId cpu, unsigned proc,
                          bool first)
{
    // Trap entry and fault decoding.
    em.exec(35, bb::trapSyscall);
    em.read(layout.perCpuPrivate(cpu) + 64, DataCategory::KernelPrivate,
            bb::trapSyscall);
    em.exec(30, bb::pageFaultEntry);
    em.read(layout.procEntry(proc), DataCategory::KernelOther,
            bb::pageFaultEntry);

    // Walk the faulting range's page-table entries.  The scan
    // strides one primary line per step, the way pmap loops walk
    // whole segments.
    const unsigned pte_base = unsigned(rng.below(
        KernelLayout::ptesPerProc - 160));
    const unsigned ptes = 6 + unsigned(rng.below(8));
    const unsigned psite = unsigned(rng.below(6));
    for (unsigned i = 0; i < ptes; ++i) {
        em.exec(4, vbb(bb::pteScanLoop, psite, 6));
        em.read(layout.pageTableEntry(proc, pte_base + 4 * i),
                DataCategory::PageTable, vbb(bb::pteScanLoop, psite, 6));
    }

    // Grab a free page under the physical-memory lock.
    em.lockAcquire(layout.lockAddr(lockid::physMemory));
    freelistWalk(em, rng, 3 + unsigned(rng.below(5)));
    em.exec(6, bb::pageFaultEntry);
    em.read(layout.freqSharedAddr(fsid::freelistSize),
            DataCategory::FreqShared, bb::pageFaultEntry);
    em.write(layout.freqSharedAddr(fsid::freelistSize),
             DataCategory::FreqShared, bb::pageFaultEntry);
    em.lockRelease(layout.lockAddr(lockid::physMemory));

    if (profile.doubleCounterBumps)
        counterBump(em, cpu, ctrid::vTrap, bb::counterUpdate);
    counterBump(em, cpu, ctrid::vFaults, bb::counterUpdate);
    stackChurn(em, cpu, 48, bb::pageFaultEntry);

    // Zero-fill the first fault of a burst; copy-on-write the rest
    // from a page the process filled a scheduling quantum ago (the
    // source is the destination of an earlier operation, partially
    // cooled by the work in between).
    const Addr dst = allocPoolPage(rng);
    Addr src =
        agedPage[proc] != invalidAddr ? agedPage[proc] : recentPage[proc];
    if (recentPage[proc] != invalidAddr &&
        rng.chance(profile.freshCopyFrac))
        src = recentPage[proc];
    const bool cow =
        !first && src != invalidAddr && rng.chance(profile.cowChance);
    if (cow) {
        const BlockOpId id =
            em.blockOp(src, dst, 4096, BlockOpKind::Copy);
        maybeTagReadOnly(em, rng, id, 4096);
        // The chain continues from this copy's destination.
        agedPage[proc] = dst;
    } else {
        em.blockOp(invalidAddr, dst, 4096, BlockOpKind::Zero);
    }
    recentPage[proc] = dst;

    // Install the translation.
    for (unsigned i = 0; i < 3; ++i) {
        em.exec(4, bb::pteInitLoop);
        em.write(layout.pageTableEntry(proc, pte_base + i),
                 DataCategory::PageTable, bb::pteInitLoop);
    }
    em.exec(25, bb::pageFaultEntry);

    // The faulting application then uses the page, leaving most of
    // its lines warm for the next copy in the chain.
    touchPage(em, rng, dst, profile.pageTouchFrac);
}

void
Activities::fork(Emitter &em, Rng &rng, CpuId cpu, unsigned parent,
                 unsigned child)
{
    em.exec(35, bb::trapSyscall);
    em.exec(80, bb::forkEntry);

    // Copy the proc-table entry under the proc lock.
    em.lockAcquire(layout.lockAddr(lockid::procTable));
    for (unsigned w = 0; w < 8; ++w) {
        em.exec(2, bb::forkEntry);
        em.read(layout.procEntry(parent) + Addr{w} * 4,
                DataCategory::KernelOther, bb::forkEntry);
        em.write(layout.procEntry(child) + Addr{w} * 4,
                 DataCategory::KernelOther, bb::forkEntry);
    }
    em.lockRelease(layout.lockAddr(lockid::procTable));

    // Duplicate a chunk of the parent's page table.
    const unsigned ptes = 24 + unsigned(rng.below(16));
    const unsigned base = unsigned(rng.below(
        KernelLayout::ptesPerProc - ptes));
    for (unsigned i = 0; i < ptes; ++i) {
        em.exec(3, bb::pteCopyLoop);
        em.read(layout.pageTableEntry(parent, base + i),
                DataCategory::PageTable, bb::pteCopyLoop);
        em.write(layout.pageTableEntry(child, base + i),
                 DataCategory::PageTable, bb::pteCopyLoop);
    }

    // Copy the parent's data pages: the destination of this copy is
    // the source of the child's own future forks/COW faults.
    const unsigned pages = 1 + unsigned(rng.below(2));
    Addr src = agedPage[parent] != invalidAddr
        ? agedPage[parent]
        : (recentPage[parent] != invalidAddr ? recentPage[parent]
                                             : allocPoolPage(rng));
    for (unsigned p = 0; p < pages; ++p) {
        const Addr dst = allocPoolPage(rng);
        const BlockOpId id = em.blockOp(src, dst, 4096, BlockOpKind::Copy);
        maybeTagReadOnly(em, rng, id, 4096);
        recentPage[child] = dst;
        src = dst;
    }
    // The child starts running and touches its image.
    touchPage(em, rng, recentPage[child], profile.pageTouchFrac * 0.6);

    counterBump(em, cpu, ctrid::vForks, bb::counterUpdate);

    // Enqueue the child on a run queue.
    em.lockAcquire(layout.lockAddr(lockid::scheduler));
    em.exec(8, bb::scheduleProc);
    em.read(layout.runQueue(child % KernelLayout::numRunQueues),
            DataCategory::OtherShared, bb::scheduleProc);
    em.write(layout.runQueue(child % KernelLayout::numRunQueues),
             DataCategory::OtherShared, bb::scheduleProc);
    em.lockRelease(layout.lockAddr(lockid::scheduler));
    stackChurn(em, cpu, 32, bb::forkEntry);
    em.exec(30, bb::forkEntry);
}

void
Activities::execProcess(Emitter &em, Rng &rng, CpuId cpu, unsigned proc)
{
    (void)cpu;
    em.exec(35, bb::trapSyscall);
    em.exec(60, bb::execEntry);

    // Namei / inode lookup.
    em.lockAcquire(layout.lockAddr(lockid::inode));
    const unsigned inode = unsigned(rng.below(KernelLayout::numInodes));
    for (unsigned w = 0; w < 3; ++w) {
        em.exec(3, bb::inodeOps);
        em.read(layout.inodeEntry(inode) + Addr{w} * 8,
                DataCategory::KernelOther, bb::inodeOps);
    }
    em.lockRelease(layout.lockAddr(lockid::inode));

    // Read the image through the buffer cache into fresh pages:
    // sources are cold buffer pages, not the warm fork chain.
    const unsigned pages = 1 + unsigned(rng.below(3));
    for (unsigned p = 0; p < pages; ++p) {
        const Addr src = allocBufferPage(rng);
        const Addr dst = allocPoolPage(rng);
        const std::uint32_t size = pickBlockSize(rng, false);
        const BlockOpId id = em.blockOp(src, dst, size, BlockOpKind::Copy);
        maybeTagReadOnly(em, rng, id, size);
        recentPage[proc] = dst;
    }

    // Zero the bss and the new stack, and rebuild the translations.
    em.blockOp(invalidAddr, allocPoolPage(rng), 4096, BlockOpKind::Zero);
    em.blockOp(invalidAddr, allocPoolPage(rng), 4096, BlockOpKind::Zero);
    const unsigned base = unsigned(rng.below(
        KernelLayout::ptesPerProc - 16));
    for (unsigned i = 0; i < 16; ++i) {
        em.exec(4, bb::pteInitLoop);
        em.write(layout.pageTableEntry(proc, base + i),
                 DataCategory::PageTable, bb::pteInitLoop);
    }
    stackChurn(em, cpu, 32, bb::execEntry);
    em.exec(40, bb::execEntry);
}

void
Activities::syscall(Emitter &em, Rng &rng, CpuId cpu, unsigned proc)
{
    // Trap, dispatch through the syscall table (a prefetchable hot
    // sequence), a small copyin and often a copyout.
    em.exec(30, bb::trapSyscall);
    em.read(layout.perCpuPrivate(cpu) + 32, DataCategory::KernelPrivate,
            bb::trapSyscall);
    const unsigned nr = unsigned(rng.below(KernelLayout::numSyscalls));
    em.exec(5, bb::syscallDispatch);
    em.read(layout.syscallTableEntry(nr), DataCategory::KernelOther,
            bb::syscallDispatch);
    em.exec(40, bb::trapSyscall);
    em.read(layout.procEntry(proc) + 64, DataCategory::KernelOther,
            bb::trapSyscall);

    // copyin: user buffer -> kernel.  Argument blocks are small
    // (16-512 bytes) and processes reuse their argument buffer, so
    // it is warm after the first call.  Not every syscall moves
    // data; the rate is workload dependent.
    if (rng.chance(profile.copyinChance)) {
        const std::uint32_t in_size =
            16 + 16 * std::uint32_t(rng.below(32));
        const Addr ubuf = layout.userRegion(proc) + 16 * 4096;
        // Kernel-side buffers come from the big kernel buffer arena,
        // so destinations are usually cold in the caches.
        const Addr kbuf = allocPoolPage(rng) + 1024;
        const BlockOpId in_id =
            em.blockOp(ubuf, kbuf, in_size, BlockOpKind::Copy);
        maybeTagReadOnly(em, rng, in_id, in_size);

        if (rng.chance(0.5)) {
            // copyout: kernel -> user buffer.
            const std::uint32_t out_size =
                16 + 16 * std::uint32_t(rng.below(32));
            const BlockOpId out_id =
                em.blockOp(kbuf, ubuf + 8192, out_size, BlockOpKind::Copy);
            maybeTagReadOnly(em, rng, out_id, out_size);
        }
    }

    // Shared file-table bookkeeping (producer-consumer flavour).
    const unsigned ftab = fsid::resourcePtr0 + 4 + unsigned(rng.below(4));
    em.read(layout.freqSharedAddr(ftab), DataCategory::FreqShared,
            bb::trapSyscall);
    if (rng.chance(0.3))
        em.write(layout.freqSharedAddr(ftab), DataCategory::FreqShared,
                 bb::trapSyscall);

    if (profile.doubleCounterBumps)
        counterBump(em, cpu, ctrid::vTrap, bb::counterUpdate);
    counterBump(em, cpu, ctrid::vSyscall, bb::counterUpdate);
    stackChurn(em, cpu, 56, bb::trapSyscall);
    em.exec(25, bb::trapSyscall);
}

void
Activities::fileIo(Emitter &em, Rng &rng, CpuId cpu, unsigned proc)
{
    em.exec(30, bb::trapSyscall);
    em.exec(25, bb::fileIo);

    // Buffer-cache hash walk (fsck touches many headers).
    em.lockAcquire(layout.lockAddr(lockid::bufferCache));
    const unsigned probes = 7 + unsigned(rng.below(7));
    const unsigned bsite = unsigned(rng.below(8));
    for (unsigned i = 0; i < probes; ++i) {
        const unsigned buf = unsigned(rng.below(
            KernelLayout::numBufHeaders));
        em.exec(4, vbb(bb::bufferCacheLookup, bsite, 8));
        em.read(layout.bufferHeader(buf), DataCategory::KernelOther,
                vbb(bb::bufferCacheLookup, bsite, 8));
    }
    em.lockRelease(layout.lockAddr(lockid::bufferCache));

    // Inode update under its lock.
    em.lockAcquire(layout.lockAddr(lockid::inode));
    const unsigned inode = unsigned(rng.below(KernelLayout::numInodes));
    em.exec(6, bb::inodeOps);
    em.read(layout.inodeEntry(inode), DataCategory::KernelOther,
            bb::inodeOps);
    em.write(layout.inodeEntry(inode) + 16, DataCategory::KernelOther,
             bb::inodeOps);
    em.lockRelease(layout.lockAddr(lockid::inode));

    // Move the data between a recycled buffer frame and user space;
    // fsck-style traffic rewrites the same frames over and over, so
    // destinations are often dirty in the secondary cache.
    em.lockAcquire(layout.lockAddr(lockid::io));
    const std::uint32_t size = pickBlockSize(rng, false);
    const Addr buf_page = allocBufferPage(rng);
    const Addr user_page = layout.userRegion(proc) +
        4096 * rng.below(KernelLayout::userRegionBytes / 4096 - 2);
    BlockOpId id;
    if (rng.chance(0.5))
        id = em.blockOp(buf_page, user_page, size, BlockOpKind::Copy);
    else
        id = em.blockOp(user_page, buf_page, size, BlockOpKind::Copy);
    maybeTagReadOnly(em, rng, id, size);
    em.lockRelease(layout.lockAddr(lockid::io));

    em.read(layout.freqSharedAddr(fsid::resourcePtr0 + 8),
            DataCategory::FreqShared, bb::fileIo);
    counterBump(em, cpu, ctrid::vIo, bb::counterUpdate);
    stackChurn(em, cpu, 40, bb::fileIo);
    em.exec(20, bb::fileIo);
}

void
Activities::contextSwitch(Emitter &em, Rng &rng, CpuId cpu, unsigned from,
                          unsigned to)
{
    (void)rng;
    // The descheduled process's freshly written page has now aged a
    // quantum: it is the page its future copies will read from.
    agedPage[from] = recentPage[from];
    em.exec(40, bb::contextSwitch);

    // Pick the next process off a run queue.
    em.lockAcquire(layout.lockAddr(lockid::scheduler));
    em.exec(10, bb::scheduleProc);
    em.read(layout.runQueue(to % KernelLayout::numRunQueues),
            DataCategory::OtherShared, bb::scheduleProc);
    em.read(layout.freqSharedAddr(fsid::runRegime),
            DataCategory::FreqShared, bb::scheduleProc);
    em.write(layout.runQueue(to % KernelLayout::numRunQueues),
             DataCategory::OtherShared, bb::scheduleProc);
    // Resource-table process pointer moves to the new owner.
    const unsigned res = fsid::resourcePtr0 + (cpu % 4);
    em.read(layout.freqSharedAddr(res), DataCategory::FreqShared,
            bb::scheduleProc);
    em.write(layout.freqSharedAddr(res), DataCategory::FreqShared,
             bb::scheduleProc);
    em.lockRelease(layout.lockAddr(lockid::scheduler));

    // Save and restore process state.
    for (unsigned w = 0; w < 6; ++w) {
        em.exec(3, bb::contextSwitch);
        em.write(layout.procEntry(from) + 32 + Addr{w} * 4,
                 DataCategory::KernelOther, bb::contextSwitch);
    }
    for (unsigned w = 0; w < 6; ++w) {
        em.exec(3, bb::resumeProc);
        em.read(layout.procEntry(to) + 32 + Addr{w} * 4,
                DataCategory::KernelOther, bb::resumeProc);
    }
    em.write(layout.perCpuPrivate(cpu), DataCategory::KernelPrivate,
             bb::resumeProc);
    counterBump(em, cpu, ctrid::vSwtch, bb::counterUpdate);
    stackChurn(em, cpu, 44, bb::contextSwitch);
    em.exec(30, bb::resumeProc);
}

void
Activities::timerTick(Emitter &em, Rng &rng, CpuId cpu, unsigned proc)
{
    em.exec(25, bb::timerFuncs);
    em.read(layout.timerStruct(), DataCategory::KernelOther,
            bb::timerFuncs);
    em.read(layout.timerStruct() + 8, DataCategory::KernelOther,
            bb::timerFuncs);

    // Walk the callout wheel under the high-resolution timer lock
    // (16-byte entries: every other entry starts a new line).
    em.lockAcquire(layout.lockAddr(lockid::timer));
    const unsigned callouts = 9 + unsigned(rng.below(8));
    const unsigned base = unsigned(rng.below(
        KernelLayout::numCallouts - callouts));
    const unsigned csite = unsigned(rng.below(4));
    for (unsigned i = 0; i < callouts; ++i) {
        em.exec(3, vbb(bb::timerFuncs, csite, 4));
        em.read(layout.calloutEntry(base + i), DataCategory::KernelOther,
                vbb(bb::timerFuncs, csite, 4));
    }
    em.lockRelease(layout.lockAddr(lockid::timer));

    // Periodic scheduler scan (schedcpu): recompute priorities over
    // a stretch of the proc table — one line per entry.
    if (rng.chance(0.6)) {
        const unsigned procs = 24 + unsigned(rng.below(32));
        const unsigned first = unsigned(rng.below(
            KernelLayout::numProcs - procs));
        const unsigned site = unsigned(rng.below(6));
        for (unsigned i = 0; i < procs; ++i) {
            em.exec(4, vbb(bb::scheduleProc, site, 6));
            em.read(layout.procEntry(first + i) + 96,
                    DataCategory::KernelOther,
                    vbb(bb::scheduleProc, site, 6));
        }
    }

    // System accounting for the running process.
    em.lockAcquire(layout.lockAddr(lockid::accounting));
    em.exec(6, bb::timerFuncs);
    em.read(layout.procEntry(proc) + 128, DataCategory::KernelOther,
            bb::timerFuncs);
    em.write(layout.procEntry(proc) + 128, DataCategory::KernelOther,
             bb::timerFuncs);
    em.lockRelease(layout.lockAddr(lockid::accounting));

    counterBump(em, cpu, ctrid::vTicks, bb::counterUpdate);
    stackChurn(em, cpu, 32, bb::timerFuncs);
}

void
Activities::cpiSend(Emitter &em, Rng &rng, CpuId src, CpuId dst)
{
    (void)rng;
    (void)src;
    em.exec(20, bb::interruptEntry);
    const Addr slot = layout.freqSharedAddr(fsid::cpievents0 + dst);
    em.write(slot, DataCategory::FreqShared, bb::interruptEntry);
}

void
Activities::cpiReceive(Emitter &em, Rng &rng, CpuId dst)
{
    (void)rng;
    em.exec(30, bb::interruptEntry);
    const Addr slot = layout.freqSharedAddr(fsid::cpievents0 + dst);
    em.read(slot, DataCategory::FreqShared, bb::interruptEntry);
    counterBump(em, dst, ctrid::vIntr, bb::counterUpdate);
    stackChurn(em, dst, 16, bb::interruptEntry);
}

void
Activities::pagerRun(Emitter &em, Rng &rng, CpuId cpu)
{
    em.exec(60, bb::pagerRun);

    // The infrequent reader: sum every event counter.  With
    // privatization this reads every processor's sub-counter.
    for (unsigned c = 0; c < KernelLayout::numCounters; ++c) {
        if (layout.countersPrivatized()) {
            for (CpuId owner = 0; owner < layout.numCpus(); ++owner) {
                em.exec(2, bb::pagerRun);
                em.read(layout.counterAddr(c, owner),
                        DataCategory::InfreqComm, bb::pagerRun);
            }
        } else {
            em.exec(2, bb::pagerRun);
            em.read(layout.counterAddr(c, cpu), DataCategory::InfreqComm,
                    bb::pagerRun);
        }
    }

    // Reclaim pages: a long free-list traversal.
    em.lockAcquire(layout.lockAddr(lockid::physMemory));
    freelistWalk(em, rng, 12 + unsigned(rng.below(10)));
    em.read(layout.freqSharedAddr(fsid::freelistSize),
            DataCategory::FreqShared, bb::pagerRun);
    em.write(layout.freqSharedAddr(fsid::freelistSize),
             DataCategory::FreqShared, bb::pagerRun);
    em.lockRelease(layout.lockAddr(lockid::physMemory));
    counterBump(em, cpu, ctrid::vPgin, bb::counterUpdate);
    stackChurn(em, cpu, 24, bb::pagerRun);
}

void
Activities::networkOp(Emitter &em, Rng &rng, CpuId cpu, unsigned proc)
{
    em.exec(70, bb::networkStack);
    em.lockAcquire(layout.lockAddr(lockid::network));
    const unsigned buf = unsigned(rng.below(KernelLayout::numBufHeaders));
    em.read(layout.bufferHeader(buf), DataCategory::KernelOther,
            bb::networkStack);
    em.write(layout.bufferHeader(buf) + 16, DataCategory::KernelOther,
             bb::networkStack);
    em.lockRelease(layout.lockAddr(lockid::network));

    // An mbuf-sized copy to user space.
    const std::uint32_t size = 64 + 64 * std::uint32_t(rng.below(8));
    const Addr src = allocBufferPage(rng);
    const Addr dst = layout.userRegion(proc) + 12288;
    const BlockOpId id = em.blockOp(src, dst, size, BlockOpKind::Copy);
    maybeTagReadOnly(em, rng, id, size);
    counterBump(em, cpu, ctrid::vIntr, bb::counterUpdate);
    stackChurn(em, cpu, 24, bb::networkStack);
}

void
Activities::dirScan(Emitter &em, Rng &rng, CpuId cpu)
{
    (void)cpu;
    em.exec(40, bb::fileIo);
    // Directory blocks hash through the buffer cache; only some
    // lookups contend on the shared lock (per-bucket locking).
    const bool locked = rng.chance(0.35);
    if (locked)
        em.lockAcquire(layout.lockAddr(lockid::bufferCache));
    const unsigned headers = 10 + unsigned(rng.below(16));
    const unsigned site = unsigned(rng.below(8));
    for (unsigned i = 0; i < headers; ++i) {
        em.exec(5, vbb(bb::bufferCacheLookup, site, 8));
        em.read(layout.bufferHeader(unsigned(rng.below(
                    KernelLayout::numBufHeaders))),
                DataCategory::KernelOther,
                vbb(bb::bufferCacheLookup, site, 8));
    }
    if (locked)
        em.lockRelease(layout.lockAddr(lockid::bufferCache));
    // ...and each component touches an inode.
    const unsigned inodes = 4 + unsigned(rng.below(6));
    const unsigned isite = unsigned(rng.below(8));
    for (unsigned i = 0; i < inodes; ++i) {
        em.exec(6, vbb(bb::inodeOps, isite, 8));
        const unsigned ino = unsigned(rng.below(KernelLayout::numInodes));
        em.read(layout.inodeEntry(ino), DataCategory::KernelOther,
                vbb(bb::inodeOps, isite, 8));
        em.read(layout.inodeEntry(ino) + 64, DataCategory::KernelOther,
                vbb(bb::inodeOps, isite, 8));
    }
    stackChurn(em, cpu, 24, bb::bufferCacheLookup);
    em.exec(20, bb::fileIo);
}

void
Activities::regimeChange(Emitter &em, Rng &rng, CpuId cpu)
{
    (void)rng;
    (void)cpu;
    // The scheduling master flips the machine regime (parallel vs
    // serial); every other processor's next regime check then takes
    // a coherence miss on this producer-consumer variable.
    em.exec(15, bb::scheduleProc);
    em.write(layout.freqSharedAddr(fsid::runRegime),
             DataCategory::FreqShared, bb::scheduleProc);
}

void
Activities::gangBarrier(Emitter &em, Rng &rng, CpuId cpu, unsigned episode,
                        unsigned parties)
{
    (void)rng;
    (void)cpu;
    em.exec(30, bb::scheduleProc);
    em.read(layout.freqSharedAddr(fsid::runRegime),
            DataCategory::FreqShared, bb::scheduleProc);
    em.barrierArrive(layout.barrierAddr(episode % KernelLayout::numBarriers),
                     parties);
}

void
Activities::userCompute(Emitter &em, Rng &rng, CpuId cpu, unsigned proc)
{
    (void)cpu;
    const Addr region = layout.userRegion(proc);
    const unsigned instr = profile.userInstrPerSlice;

    switch (profile.userStyle) {
      case UserStyle::Numeric: {
        // Blocked numeric kernel: dense, line-local accesses over a
        // hot window that drifts slowly, with occasional strided
        // exchange phases (the TRFD/ARC2D data exchanges).
        constexpr Addr window_bytes = 8 * 1024;
        if (rng.chance(0.15))
            userWindow[proc] = (userWindow[proc] + window_bytes) %
                (KernelLayout::userRegionBytes - 2 * window_bytes);
        const Addr base = region + userWindow[proc];
        const unsigned groups = instr / 24;
        for (unsigned g = 0; g < groups; ++g) {
            em.userExec(24, bb::userNumeric);
            // Three reads and a write within one line; the next
            // group moves one word, so each line is visited ~4x.
            const Addr a = base + (Addr{g} * 4) % window_bytes;
            em.userRead(a, bb::userNumeric);
            em.userRead(a + 4, bb::userNumeric);
            em.userRead(a + 8, bb::userNumeric);
            em.userWrite(a + 12, bb::userNumeric);
        }
        if (rng.chance(0.30)) {
            // Data-exchange phase: stream 2 KB from a distant stride.
            const Addr far = region + 64 * 1024 +
                4096 * rng.below(16);
            for (unsigned i = 0; i < 32; ++i) {
                em.userExec(4, bb::userNumeric);
                em.userRead(far + Addr{i} * 64, bb::userNumeric);
            }
        }
        break;
      }
      case UserStyle::Compiler: {
        // Pointer-heavy code: most references hit a hot core (symbol
        // table head, current token buffer), the rest wander the
        // full working set.
        constexpr Addr hot_bytes = 2 * 1024;
        constexpr Addr ws_bytes = 48 * 1024;
        if (rng.chance(0.015))
            userWindow[proc] = 4096 * rng.below(
                (KernelLayout::userRegionBytes - hot_bytes) / 4096);
        const Addr hot_base = region + userWindow[proc];
        const unsigned groups = instr / 18;
        for (unsigned g = 0; g < groups; ++g) {
            em.userExec(18, bb::userCompiler);
            const Addr hot = hot_base + 16 * rng.below(hot_bytes / 16);
            em.userRead(hot, bb::userCompiler);
            em.userRead(hot + 4, bb::userCompiler);
            if (rng.chance(0.02))
                em.userRead(region + 16 * rng.below(ws_bytes / 16),
                            bb::userCompiler);
            em.userWrite(hot + 8, bb::userCompiler);
        }
        break;
      }
      case UserStyle::ShellMix: {
        // Short-lived commands: page-sized footprints that move at
        // exec boundaries; each slice sweeps the page from a rotating
        // phase so the whole window stays live.
        constexpr Addr burst_bytes = 4 * 1024;
        if (rng.chance(0.02))
            userWindow[proc] = 4096 * rng.below(
                KernelLayout::userRegionBytes / 4096 - 2);
        const Addr base = region + userWindow[proc];
        const Addr phase = 16 * rng.below(burst_bytes / 16);
        const unsigned groups = instr / 15;
        for (unsigned g = 0; g < groups; ++g) {
            em.userExec(15, bb::userShellCmd);
            const Addr a = base + (phase + Addr{g} * 8) % burst_bytes;
            em.userRead(a, bb::userShellCmd);
            em.userRead(a + 4, bb::userShellCmd);
            em.userWrite(a, bb::userShellCmd);
        }
        break;
      }
    }
}

} // namespace oscache
