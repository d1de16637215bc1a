/**
 * @file
 * Tests of the trace-driven simulation engine: record handling, time
 * accounting, and the retimed synchronization semantics (locks keep
 * mutual exclusion, barriers block until all participants arrive).
 */

#include <gtest/gtest.h>

#include "core/blockop/schemes.hh"
#include "mem/memsys.hh"
#include "sim/system.hh"
#include "trace/trace.hh"

namespace oscache
{
namespace
{

constexpr Addr lockA = 0x9000'0000;
constexpr Addr barrierA = 0x9000'1000;

/** Harness bundling everything a small simulation needs. */
struct SimHarness
{
    explicit SimHarness(unsigned cpus = 4)
        : trace(cpus), mem(machineFor(cpus)),
          executor(makeBlockOpExecutor(BlockScheme::Base, mem, stats,
                                       SimOptions{}))
    {}

    static MachineConfig
    machineFor(unsigned cpus)
    {
        MachineConfig cfg = MachineConfig::base();
        cfg.numCpus = cpus;
        return cfg;
    }

    void
    run()
    {
        MaterializedTraceSource source(trace);
        System system(source, mem, *executor, options, stats);
        system.run();
    }

    Trace trace;
    SimStats stats;
    MemorySystem mem;
    SimOptions options;
    std::unique_ptr<BlockOpExecutor> executor;
};

TraceRecord
lockAcq(Addr addr)
{
    TraceRecord r;
    r.type = RecordType::LockAcquire;
    r.addr = addr;
    r.flags = flagOs;
    return r;
}

TraceRecord
lockRel(Addr addr)
{
    TraceRecord r;
    r.type = RecordType::LockRelease;
    r.addr = addr;
    r.flags = flagOs;
    return r;
}

TraceRecord
barrier(Addr addr, std::uint32_t parties)
{
    TraceRecord r;
    r.type = RecordType::BarrierArrive;
    r.addr = addr;
    r.aux = parties;
    r.flags = flagOs;
    return r;
}

TEST(SystemTest, ExecAdvancesTimeAndCounts)
{
    SimHarness h(1);
    h.options.osImissCpi = 0.0;
    h.trace.stream(0).push_back(TraceRecord::exec(100, 1, true));
    h.run();
    EXPECT_EQ(h.stats.osInstrs, 100u);
    EXPECT_EQ(h.stats.osExec, 100u);
    EXPECT_EQ(h.stats.osTime(), 100u);
}

TEST(SystemTest, ImissModelCharges)
{
    SimHarness h(1);
    h.options.osImissCpi = 0.5;
    h.trace.stream(0).push_back(TraceRecord::exec(100, 1, true));
    h.run();
    EXPECT_EQ(h.stats.osImiss, 50u);
}

TEST(SystemTest, ImissCarryAccumulates)
{
    SimHarness h(1);
    h.options.osImissCpi = 0.125; // Exactly representable in binary.
    // 16 x 1-instruction records: fractional cycles must accumulate
    // into exactly two whole I-miss cycles.
    for (int i = 0; i < 16; ++i)
        h.trace.stream(0).push_back(TraceRecord::exec(1, 1, true));
    h.run();
    EXPECT_EQ(h.stats.osImiss, 2u);
}

TEST(SystemTest, IdleAccumulates)
{
    SimHarness h(1);
    h.trace.stream(0).push_back(TraceRecord::idle(500));
    h.run();
    EXPECT_EQ(h.stats.idle, 500u);
}

TEST(SystemTest, ReadsAndWritesCounted)
{
    SimHarness h(1);
    h.trace.stream(0).push_back(
        TraceRecord::read(0x1000, DataCategory::KernelOther, 1, true));
    h.trace.stream(0).push_back(
        TraceRecord::write(0x2000, DataCategory::KernelOther, 1, true));
    h.trace.stream(0).push_back(
        TraceRecord::read(0x3000, DataCategory::User, 2, false));
    h.run();
    EXPECT_EQ(h.stats.osReads, 1u);
    EXPECT_EQ(h.stats.osWrites, 1u);
    EXPECT_EQ(h.stats.userReads, 1u);
    EXPECT_EQ(h.stats.osMissTotal(), 1u);
    EXPECT_EQ(h.stats.userMisses, 1u);
}

TEST(SystemTest, UncontendedLockIsCheap)
{
    SimHarness h(1);
    h.trace.stream(0).push_back(lockAcq(lockA));
    h.trace.stream(0).push_back(lockRel(lockA));
    h.run();
    EXPECT_EQ(h.stats.osSpin, 0u);
}

TEST(SystemTest, ContendedLockSerializes)
{
    SimHarness h(2);
    // CPU 0 takes the lock and holds it through a long execution;
    // CPU 1 wants it immediately.  CPU 1 must spin until CPU 0's
    // release.
    h.trace.stream(0).push_back(lockAcq(lockA));
    h.trace.stream(0).push_back(TraceRecord::exec(5000, 1, true));
    h.trace.stream(0).push_back(lockRel(lockA));
    h.trace.stream(1).push_back(lockAcq(lockA));
    h.trace.stream(1).push_back(lockRel(lockA));
    h.run();
    // The spinner's wait shows up as OS spin time of roughly the
    // holder's critical section.
    EXPECT_GT(h.stats.osSpin, 4000u);
}

TEST(SystemTest, LockGrantsBothEventually)
{
    SimHarness h(2);
    for (CpuId c = 0; c < 2; ++c) {
        h.trace.stream(c).push_back(lockAcq(lockA));
        h.trace.stream(c).push_back(TraceRecord::exec(100, 1, true));
        h.trace.stream(c).push_back(lockRel(lockA));
    }
    h.run(); // Must terminate: both critical sections execute.
    EXPECT_EQ(h.stats.osInstrs, 200u);
}

TEST(SystemTest, BarrierBlocksUntilAllArrive)
{
    SimHarness h(4);
    // CPU 3 arrives late; the others must wait for it.
    for (CpuId c = 0; c < 4; ++c) {
        if (c == 3)
            h.trace.stream(c).push_back(TraceRecord::exec(10000, 1, true));
        h.trace.stream(c).push_back(barrier(barrierA, 4));
        h.trace.stream(c).push_back(TraceRecord::exec(10, 1, true));
    }
    h.run();
    // Three processors spun for about 10000 cycles each.
    EXPECT_GT(h.stats.osSpin, 3u * 8000u);
}

TEST(SystemTest, BarrierEpisodesSequence)
{
    SimHarness h(2);
    // Two consecutive episodes at the same barrier address.
    for (CpuId c = 0; c < 2; ++c) {
        h.trace.stream(c).push_back(barrier(barrierA, 2));
        h.trace.stream(c).push_back(barrier(barrierA, 2));
        h.trace.stream(c).push_back(TraceRecord::exec(1, 1, true));
    }
    h.run();
    EXPECT_EQ(h.stats.osInstrs, 2u);
}

TEST(SystemTest, BarrierReleaseReadMissesUnderInvalidate)
{
    SimHarness h(2);
    // Warm both caches on the barrier line first via an episode,
    // then run a second episode: the spinner's release read must be
    // a coherence miss (the last arriver's write invalidated it).
    for (CpuId c = 0; c < 2; ++c) {
        h.trace.stream(c).push_back(barrier(barrierA, 2));
        h.trace.stream(c).push_back(barrier(barrierA, 2));
    }
    h.run();
    EXPECT_GT(h.stats.osMissCoherence[static_cast<std::size_t>(
                  DataCategory::Barrier)],
              0u);
}

TEST(SystemTest, BarrierReleaseHitsUnderUpdateProtocol)
{
    SimHarness h(2);
    h.trace.updatePages().insert(alignDown(barrierA, Addr{4096}));
    for (CpuId c = 0; c < 2; ++c) {
        h.trace.stream(c).push_back(barrier(barrierA, 2));
        h.trace.stream(c).push_back(barrier(barrierA, 2));
        h.trace.stream(c).push_back(barrier(barrierA, 2));
    }
    SimStats invalidate_stats;
    {
        // Reference run without the update page.
        SimHarness h2(2);
        for (CpuId c = 0; c < 2; ++c) {
            h2.trace.stream(c).push_back(barrier(barrierA, 2));
            h2.trace.stream(c).push_back(barrier(barrierA, 2));
            h2.trace.stream(c).push_back(barrier(barrierA, 2));
        }
        h2.run();
        invalidate_stats = h2.stats;
    }
    h.run();
    const auto idx = static_cast<std::size_t>(DataCategory::Barrier);
    EXPECT_LT(h.stats.osMissCoherence[idx],
              invalidate_stats.osMissCoherence[idx]);
}

TEST(SystemTest, BlockOpExpandedByExecutor)
{
    SimHarness h(1);
    BlockOp op;
    op.src = 0x10000;
    op.dst = 0x20000;
    op.size = 256;
    op.kind = BlockOpKind::Copy;
    const BlockOpId id = h.trace.blockOps().add(op);
    TraceRecord begin;
    begin.type = RecordType::BlockOpBegin;
    begin.aux = id;
    begin.flags = flagOs;
    TraceRecord end = begin;
    end.type = RecordType::BlockOpEnd;
    h.trace.stream(0).push_back(begin);
    h.trace.stream(0).push_back(end);
    h.run();
    // 64 words copied: 64 reads and 64 writes.
    EXPECT_EQ(h.stats.osReads, 64u);
    EXPECT_EQ(h.stats.osWrites, 64u);
    EXPECT_GT(h.stats.osMissBlock, 0u);
}

TEST(SystemTest, PrefetchRecordHidesLaterMiss)
{
    SimHarness h(1);
    h.trace.stream(0).push_back(
        TraceRecord::prefetch(0x5000, DataCategory::KernelOther, 1, true));
    h.trace.stream(0).push_back(TraceRecord::exec(200, 1, true));
    h.trace.stream(0).push_back(
        TraceRecord::read(0x5000, DataCategory::KernelOther, 1, true));
    h.run();
    // The read was fully hidden: no OS miss remains visible.
    EXPECT_EQ(h.stats.osMissTotal(), 0u);
}

TEST(SystemTest, LatePrefetchCountsAsPartiallyHidden)
{
    SimHarness h(1);
    h.trace.stream(0).push_back(
        TraceRecord::prefetch(0x5000, DataCategory::KernelOther, 1, true));
    h.trace.stream(0).push_back(
        TraceRecord::read(0x5000, DataCategory::KernelOther, 1, true));
    h.run();
    EXPECT_EQ(h.stats.osMissPartiallyHidden, 1u);
    EXPECT_GT(h.stats.osPrefStall, 0u);
}

TEST(SystemTest, MismatchedCpuCountIsFatal)
{
    Trace trace(2);
    MemorySystem mem(MachineConfig::base()); // 4 cpus.
    SimStats stats;
    SimOptions options;
    auto exec = makeBlockOpExecutor(BlockScheme::Base, mem, stats,
                                    options);
    MaterializedTraceSource source(trace);
    EXPECT_DEATH(
        { System system(source, mem, *exec, options, stats); }, "cpus");
}

TEST(SystemTest, DoubleAcquirePanics)
{
    SimHarness h(1);
    h.trace.stream(0).push_back(lockAcq(lockA));
    h.trace.stream(0).push_back(lockAcq(lockA));
    EXPECT_DEATH(h.run(), "re-acquiring");
}

TEST(SystemTest, ReleaseWithoutHoldPanics)
{
    SimHarness h(1);
    h.trace.stream(0).push_back(lockRel(lockA));
    EXPECT_DEATH(h.run(), "does not hold");
}

TEST(SystemTest, CodePressureEvictsData)
{
    SimHarness h(1);
    // Fill a data line whose L2 set aliases a basic block's code
    // stretch; executing that block must evict it from L2.
    // Code base for bb 0 is 0xc0000000; pick data at the same set.
    const Addr data = 0xc000'0000 % (256 * 1024) + 0x4000'0000;
    h.trace.stream(0).push_back(
        TraceRecord::read(data, DataCategory::KernelOther, 999, true));
    h.run();
    EXPECT_TRUE(h.mem.l1Contains(0, data));
}

} // namespace
} // namespace oscache
