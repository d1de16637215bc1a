/**
 * @file
 * Tests of the OS activity generators: every activity's emissions
 * carry the right structure categories, locks pair, counters follow
 * the privatization option, and the chained-copy machinery behaves.
 * Each test flushes the emitter before it reads a stream.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "synth/activities.hh"
#include "testutil.hh"
#include "synth/bbids.hh"

namespace oscache
{
namespace
{

struct ActivityFixture : ::testing::Test
{
    ActivityFixture()
        : profile(WorkloadProfile::forKind(WorkloadKind::Trfd4)),
          layout(4, CoherenceOptions::none()), acts(layout, profile),
          trace(4), em(trace.stream(0), trace.blockOps()), rng(42)
    {}

    /** Count records of @p category in stream 0. */
    std::uint64_t
    countCategory(DataCategory category) const
    {
        std::uint64_t n = 0;
        for (const auto &rec : trace.stream(0))
            if (rec.isData() && rec.category == category)
                ++n;
        return n;
    }

    /** Check every acquire has a matching release, in order. */
    void
    expectLocksBalanced() const
    {
        std::map<Addr, int> depth;
        for (const auto &rec : trace.stream(0)) {
            if (rec.type == RecordType::LockAcquire) {
                EXPECT_EQ(depth[rec.addr]++, 0);
            } else if (rec.type == RecordType::LockRelease) {
                EXPECT_EQ(--depth[rec.addr], 0);
            }
        }
        for (const auto &[addr, d] : depth)
            EXPECT_EQ(d, 0) << addr;
    }

    WorkloadProfile profile;
    KernelLayout layout;
    Activities acts;
    Trace trace;
    Emitter em;
    Rng rng;
};

TEST_F(ActivityFixture, PageFaultTouchesTheRightStructures)
{
    acts.pageFault(em, rng, 0, 3);
    em.flush();
    EXPECT_GT(countCategory(DataCategory::PageTable), 0u);
    EXPECT_GT(countCategory(DataCategory::OtherShared), 0u); // Freelist.
    EXPECT_GT(countCategory(DataCategory::InfreqComm), 0u);  // Counters.
    EXPECT_GT(countCategory(DataCategory::FreqShared), 0u);  // freelist.size
    EXPECT_GT(trace.blockOps().size(), 0u); // Zero/copy per fault.
    expectLocksBalanced();
}

TEST_F(ActivityFixture, PageFaultBurstChainsCopies)
{
    // Several bursts: once fresh pages exist, later faults COW from
    // them and the destinations keep chaining.
    for (int i = 0; i < 10; ++i)
        acts.pageFault(em, rng, 0, 3);
    unsigned copies = 0;
    for (const BlockOp &op : trace.blockOps())
        copies += op.isCopy();
    EXPECT_GT(copies, 0u);
    // Every copy's source is a pool page some earlier op produced.
    std::set<Addr> produced;
    for (const BlockOp &op : trace.blockOps()) {
        if (op.isCopy()) {
            EXPECT_TRUE(produced.count(op.src)) << std::hex << op.src;
        }
        produced.insert(op.dst);
    }
}

TEST_F(ActivityFixture, ForkCopiesProcAndPageTables)
{
    acts.fork(em, rng, 0, 1, 2);
    em.flush();
    EXPECT_GT(countCategory(DataCategory::PageTable), 0u);
    EXPECT_GT(countCategory(DataCategory::KernelOther), 0u);
    unsigned page_copies = 0;
    for (const BlockOp &op : trace.blockOps())
        page_copies += op.isCopy() && op.size == 4096;
    EXPECT_GE(page_copies, 1u);
    expectLocksBalanced();
}

TEST_F(ActivityFixture, SyscallReadsSyscallTable)
{
    // Syscall-table reads are tagged with the dispatch block.
    for (int i = 0; i < 5; ++i)
        acts.syscall(em, rng, 0, 3);
    em.flush();
    bool dispatch_seen = false;
    for (const auto &rec : trace.stream(0))
        if (rec.type == RecordType::Read && rec.bb == bb::syscallDispatch)
            dispatch_seen = true;
    EXPECT_TRUE(dispatch_seen);
    expectLocksBalanced();
}

TEST_F(ActivityFixture, TimerTickWalksCalloutsUnderTimerLock)
{
    acts.timerTick(em, rng, 0, 3);
    em.flush();
    bool timer_lock_taken = false;
    for (const auto &rec : trace.stream(0))
        if (rec.type == RecordType::LockAcquire &&
            rec.addr == layout.lockAddr(lockid::timer))
            timer_lock_taken = true;
    EXPECT_TRUE(timer_lock_taken);
    expectLocksBalanced();
}

TEST_F(ActivityFixture, CpiPairTouchesSharedSlot)
{
    acts.cpiSend(em, rng, 0, 2);
    Emitter em2(trace.stream(2), trace.blockOps());
    acts.cpiReceive(em2, rng, 2);
    em.flush();
    em2.flush();
    // The sender writes and the receiver reads the same cpievents
    // slot.
    Addr written = invalidAddr;
    for (const auto &rec : trace.stream(0))
        if (rec.type == RecordType::Write &&
            rec.category == DataCategory::FreqShared)
            written = rec.addr;
    ASSERT_NE(written, invalidAddr);
    bool read_back = false;
    for (const auto &rec : trace.stream(2))
        if (rec.type == RecordType::Read && rec.addr == written)
            read_back = true;
    EXPECT_TRUE(read_back);
}

TEST_F(ActivityFixture, PagerReadsEveryCounterOnce)
{
    acts.pagerRun(em, rng, 0);
    em.flush();
    std::set<Addr> counter_reads;
    for (const auto &rec : trace.stream(0))
        if (rec.type == RecordType::Read &&
            rec.category == DataCategory::InfreqComm)
            counter_reads.insert(rec.addr);
    // Shared counters: one address per counter (plus the bump of its
    // own v_pgin counter).
    EXPECT_GE(counter_reads.size(), KernelLayout::numCounters);
}

TEST_F(ActivityFixture, GangBarrierArrives)
{
    acts.gangBarrier(em, rng, 0, 5, 4);
    em.flush();
    bool arrived = false;
    for (const auto &rec : trace.stream(0))
        if (rec.type == RecordType::BarrierArrive) {
            arrived = true;
            EXPECT_EQ(rec.aux, 4u);
            EXPECT_EQ(rec.addr, layout.barrierAddr(5 % 3));
        }
    EXPECT_TRUE(arrived);
}

TEST_F(ActivityFixture, DirScanIsLockBalancedAndReadHeavy)
{
    for (int i = 0; i < 4; ++i)
        acts.dirScan(em, rng, 0);
    em.flush();
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (const auto &rec : trace.stream(0)) {
        reads += rec.type == RecordType::Read;
        writes += rec.type == RecordType::Write;
    }
    EXPECT_GT(reads, writes * 2);
    expectLocksBalanced();
}

TEST(ActivityPrivatizationTest, PagerReadsSubCountersWhenPrivatized)
{
    const WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::Trfd4);
    KernelLayout layout(4, CoherenceOptions::reloc());
    Activities acts(layout, profile);
    Trace trace(4);
    Emitter em(trace.stream(0), trace.blockOps());
    Rng rng = testutil::testRng(42);
    acts.pagerRun(em, rng, 0);
    em.flush();
    std::set<Addr> counter_reads;
    for (const auto &rec : trace.stream(0))
        if (rec.type == RecordType::Read &&
            rec.category == DataCategory::InfreqComm)
            counter_reads.insert(rec.addr);
    // Privatized: numCounters x numCpus distinct sub-counter lines.
    EXPECT_GE(counter_reads.size(),
              std::size_t{KernelLayout::numCounters} * 4);
}

TEST(ActivityUserTest, UserComputeEmitsOnlyUserRecords)
{
    for (WorkloadKind kind : allWorkloads) {
        const WorkloadProfile profile = WorkloadProfile::forKind(kind);
        KernelLayout layout(4, CoherenceOptions::none());
        Activities acts(layout, profile);
        Trace trace(4);
        Emitter em(trace.stream(0), trace.blockOps());
        Rng rng = testutil::testRng(7);
        acts.userCompute(em, rng, 0, 2);
        em.flush();
        for (const auto &rec : trace.stream(0)) {
            EXPECT_FALSE(rec.isOs()) << toString(kind);
            if (rec.isData()) {
                EXPECT_EQ(rec.category, DataCategory::User);
            }
        }
        EXPECT_GT(trace.stream(0).size(), 10u);
    }
}

TEST(ActivityUserTest, UserAddressesStayInTheProcessRegion)
{
    const WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::Trfd4);
    KernelLayout layout(4, CoherenceOptions::none());
    Activities acts(layout, profile);
    Trace trace(4);
    Emitter em(trace.stream(0), trace.blockOps());
    Rng rng = testutil::testRng(11);
    const unsigned proc = 5;
    for (int i = 0; i < 20; ++i)
        acts.userCompute(em, rng, 0, proc);
    em.flush();
    const Addr lo = layout.userRegion(proc);
    const Addr hi = lo + KernelLayout::userRegionBytes;
    for (const auto &rec : trace.stream(0))
        if (rec.isData()) {
            EXPECT_GE(rec.addr, lo);
            EXPECT_LT(rec.addr, hi);
        }
}

} // namespace
} // namespace oscache
